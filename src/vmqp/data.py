"""CSV ingestion, unit conversion and train/test splitting.

Three schemas are supported:

  wind:    lon, lat, direction_deg        (angle in compass degrees)
  gait:    ankle_deg, knee_deg, hip_deg, gradient_pct, cycle_pct
           (target is the cycle percentage t in (0, 100], mapped to
           2*pi*t/100 and normalized)
  generic: x1..xk, angle_rad

Every row has one cell per header column. Rows with an empty angle cell
are prediction locations with unknown truth. Internally every angle is
stored in radians in (-pi, pi].
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .circular import as_generator, normalize_angle
from .errors import DataError

SCHEMAS = ("wind", "gait", "generic")

_ANGLE_COLUMN = {"wind": "direction_deg", "gait": "cycle_pct", "generic": "angle_rad"}
_FIXED_COLUMNS = {
    "wind": ["lon", "lat"],
    "gait": ["ankle_deg", "knee_deg", "hip_deg", "gradient_pct"],
}


@dataclass
class Dataset:
    """Observed rows plus (possibly empty) prediction rows.

    ``test_angles`` holds the true held-out angle where known and NaN
    otherwise; it is used only for scoring.
    """

    schema: str
    observed_locations: np.ndarray
    observed_angles: np.ndarray
    test_locations: np.ndarray
    test_angles: np.ndarray

    @property
    def n_observed(self) -> int:
        return self.observed_locations.shape[0]

    @property
    def n_test(self) -> int:
        return self.test_locations.shape[0]


def _convert_angle(raw: float, schema: str, line: int) -> float:
    if schema == "wind":
        if not -360.0 <= raw <= 360.0:
            raise DataError(f"row {line}: direction_deg {raw} out of [-360, 360]")
        return normalize_angle(math.radians(raw))
    if schema == "gait":
        if not 0.0 < raw <= 100.0:
            raise DataError(f"row {line}: cycle_pct {raw} out of (0, 100]")
        return normalize_angle(2.0 * math.pi * raw / 100.0)
    if not np.isfinite(raw):
        raise DataError(f"row {line}: angle_rad must be finite")
    return normalize_angle(raw)


def angle_to_schema_units(angle: float, schema: str) -> float:
    """Inverse of the ingestion conversion, for writing split files."""
    if schema == "wind":
        return math.degrees(angle) % 360.0
    if schema == "gait":
        t = (angle % (2.0 * math.pi)) / (2.0 * math.pi) * 100.0
        return 100.0 if t == 0.0 else t
    return angle


def _location_columns(schema: str, header: list) -> list:
    if schema in _FIXED_COLUMNS:
        return _FIXED_COLUMNS[schema]
    cols = [name for name in header if name != _ANGLE_COLUMN["generic"]]
    bad = [c for c in cols if not (c.startswith("x") and c[1:].isdigit())]
    if bad or not cols:
        raise DataError(f"generic schema expects columns x1..xk, got {header}")
    return sorted(cols, key=lambda c: int(c[1:]))


def ingest(path, schema: str) -> Dataset:
    """Parse and validate one CSV file into a Dataset.

    Every error in the file's contents is prefixed with its path.
    """
    if schema not in SCHEMAS:
        raise DataError(f"unknown schema {schema!r}")
    try:
        return _parse(path, schema)
    except DataError as err:
        raise DataError(f"{path}: {err}") from None


def _parse(path, schema: str) -> Dataset:
    angle_col = _ANGLE_COLUMN[schema]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError("empty file: missing header row") from None
        repeated = sorted({c for c in header if c and header.count(c) > 1})
        if repeated:
            raise DataError(f"repeated column(s): {', '.join(repeated)}")
        loc_cols = _location_columns(schema, header)
        missing = [c for c in loc_cols + [angle_col] if c not in header]
        if missing:
            raise DataError(f"missing column(s): {', '.join(missing)}")
        idx = {c: header.index(c) for c in header}
        obs_loc, obs_ang, tst_loc, tst_ang = [], [], [], []
        for line, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DataError(f"row {line} has {len(row)} of {len(header)} cells")
            coords = []
            for c in loc_cols:
                cell = row[idx[c]].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"row {line}: unparseable value {cell!r} in column {c}"
                    ) from None
                if not np.isfinite(value):
                    raise DataError(f"row {line}: non-finite value in column {c}")
                coords.append(value)
            cell = row[idx[angle_col]].strip()
            if cell == "":
                tst_loc.append(coords)
                tst_ang.append(np.nan)
                continue
            try:
                raw = float(cell)
            except ValueError:
                raise DataError(
                    f"row {line}: unparseable value {cell!r} in column {angle_col}"
                ) from None
            obs_loc.append(coords)
            obs_ang.append(_convert_angle(raw, schema, line))
    p = len(loc_cols)
    return Dataset(
        schema,
        np.array(obs_loc, dtype=float).reshape(-1, p),
        np.array(obs_ang, dtype=float),
        np.array(tst_loc, dtype=float).reshape(-1, p),
        np.array(tst_ang, dtype=float),
    )


def load_dataset(data_path, schema: str, test_path=None) -> Dataset:
    """Load training data plus an optional file of prediction locations.

    Every row of ``test_path`` becomes a prediction row; an angle there,
    when present, is kept as scoring truth.
    """
    ds = ingest(data_path, schema)
    if test_path is None:
        return ds
    extra = ingest(test_path, schema)
    p, q = ds.observed_locations.shape[1], extra.observed_locations.shape[1]
    if q != p:
        raise DataError(f"test data has {q} location coordinates, data has {p}")
    # rows of the test file with an angle are truth-labelled test rows
    test_loc = np.vstack([ds.test_locations, extra.observed_locations, extra.test_locations])
    test_ang = np.concatenate(
        [ds.test_angles, extra.observed_angles, extra.test_angles]
    )
    return Dataset(schema, ds.observed_locations, ds.observed_angles, test_loc, test_ang)


def split_indices(n: int, fraction: float, seed) -> tuple:
    """Seeded shuffle split; returns (train_idx, test_idx)."""
    if not 0.0 < fraction < 1.0:
        raise DataError(f"split fraction {fraction} must be in (0, 1)")
    n_test = int(round(fraction * n))
    if n_test < 1 or n_test >= n:
        raise DataError(f"fraction {fraction} leaves an empty side for n={n}")
    perm = as_generator(seed).permutation(n)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def write_rows(path, schema: str, locations, angles=None) -> None:
    """Write a dataset file in the given schema (angles may be None)."""
    if schema in _FIXED_COLUMNS:
        loc_cols = _FIXED_COLUMNS[schema]
    else:
        loc_cols = [f"x{i + 1}" for i in range(locations.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(loc_cols + [_ANGLE_COLUMN[schema]])
        for i, coords in enumerate(locations):
            cells = [f"{v:.17g}" for v in coords]
            if angles is None or not np.isfinite(angles[i]):
                cells.append("")
            else:
                cells.append(f"{angle_to_schema_units(angles[i], schema):.17g}")
            writer.writerow(cells)
