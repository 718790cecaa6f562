import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "param_ess.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("param_ess", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ess_of_independent_and_of_sticky_traces():
    tool = load_tool()
    rng = np.random.default_rng(0)
    n = 4000
    assert tool.ess(rng.standard_normal(n)) == pytest.approx(n, rel=0.1)
    # AR(1) at 0.9: ESS = n (1 - 0.9) / (1 + 0.9)
    x = np.empty(n)
    x[0] = 0.0
    for t in range(1, n):
        x[t] = 0.9 * x[t - 1] + rng.standard_normal()
    assert tool.ess(x) == pytest.approx(n * 0.1 / 1.9, rel=0.3)
    assert tool.ess(np.ones(n)) == 0.0


def test_column_ess_reads_nu_as_an_angle():
    tool = load_tool()
    rng = np.random.default_rng(1)
    n = 2000
    nu = rng.uniform(-np.pi, np.pi, n)
    rows = np.column_stack([np.arange(n), rng.standard_normal(n), nu + 2 * np.pi, np.zeros(n)])
    got = tool.column_ess(["iter", "sigma2", "nu", "accepted"], rows)
    assert set(got) == {"sigma2", "nu"}
    # a turn of 2 pi changes no angle, so the nu ESS is that of the angles
    cos_sin = min(tool.ess(np.cos(nu)), tool.ess(np.sin(nu)))
    assert got["nu"] == pytest.approx(cos_sin, rel=1e-9)
