"""In-process span tracer for the traced benchmark run.

The tracer wraps public functions of the ``vmqp`` modules from outside;
nothing in the package changes. A function is replaced at every module
attribute that holds it, because callers reach it through their own
``from .x import f`` binding: ``gibbs_sweep`` is called as
``vmqp.inference.gibbs_sweep`` as well as ``vmqp.gibbs.gibbs_sweep``.
Spans stay in memory with a link to the span that was open when they
started; ``uninstall`` puts every original function back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time

# Layer spans: "<module>.<function>" under the vmqp package.
SPANS = (
    "cli.cmd_sample",
    "cli.cmd_fit",
    "cli.cmd_diagnose",
    "config.parse_config",
    "data.load_dataset",
    "kernels.build_gram",
    "model.build_precision",
    "model.energy",
    "gibbs.make_augmentation",
    "gibbs.augmentation_at",
    "gibbs.gibbs_sweep",
    "gibbs.run_chain",
    "circular.sample_von_mises",
    "evaluation.circular_ress",
    "inference.build_param_model",
    "inference.sample_fictitious",
    "inference.bridge_ladder",
    "inference.block_gibbs_fit",
    "inference.cd_gradient",
    "inference.energy_gradient",
    "inference.dmh_step",
)

# dmh_step spans are reported per parameter block.
DMH = "inference.dmh_step"
DMH_BLOCKS = (DMH + ".kernel", DMH + ".mean")
REPORTED_SPANS = tuple(s for s in SPANS if s != DMH) + DMH_BLOCKS

# Flops are computed, not measured, from textbook formulas per call of
# matrix size n: Cholesky n^3/3 per attempt (retries included), inverse
# from a Cholesky factor by two triangular solves 2n^3, symmetric
# eigenvalues 4n^3/3, and 4n^2 per power iteration (two mat-vecs) above
# the size where the package switches to power iteration.
def _cholesky_flops(n: int, attempts: int) -> float:
    return attempts * n**3 / 3.0


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "error", "info")

    def __init__(self, name: str, parent):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.error = None
        self.info = None

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


def _bound(fn):
    """Map (args, kwargs) of a call of ``fn`` to all its named arguments."""
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _hook_dmh(fn):
    bind = _bound(fn)
    kernel_params = set(sys.modules[fn.__module__].KERNEL_BLOCK)

    def hook(span, args, kwargs, result):
        block = bind(args, kwargs)["block"]  # None moves every parameter
        mean_only = block is not None and not kernel_params & set(block)
        span.name = DMH_BLOCKS[1] if mean_only else DMH_BLOCKS[0]
        span.info = {"accepted": bool(result.accepted)}

    return hook


def _eig_flops(fn):
    """Flops of the package's top-eigenvalue solve at matrix size n."""
    module = sys.modules[fn.__module__]
    limit, iterations = module._EIG_EXACT_LIMIT, module._POWER_ITERATIONS
    return lambda n: 4.0 * n**3 / 3.0 if n <= limit else iterations * 4.0 * n**2


def _hook_make_augmentation(fn):
    bind = _bound(fn)
    eig_flops = _eig_flops(fn)

    def hook(span, args, kwargs, result):
        got = bind(args, kwargs)
        n = len(got["Q"])
        retries = 0
        if n:  # an empty Q returns before any factorization
            # lam = (1 + slack * 2**retries) * lam_max: each retry doubles the slack
            eps = result.lam / result.lam_max_estimate - 1.0
            retries = max(0, round(math.log2(eps / got["slack"])))
        span.info = {"retry": retries > 0, "flops": eig_flops(n) + _cholesky_flops(n, 1 + retries)}

    return hook


def _hook_augmentation_at(fn):
    bind = _bound(fn)
    eig_flops = _eig_flops(fn)

    def hook(span, args, kwargs, result):
        n = len(bind(args, kwargs)["Q"])
        span.info = {"flops": eig_flops(n) + _cholesky_flops(n, 1)}

    return hook


def _hook_build_gram(fn):
    module = sys.modules[fn.__module__]
    start, factor = module.JITTER_START, module.JITTER_FACTOR
    bind = _bound(fn)

    def hook(span, args, kwargs, result):
        first = start * bind(args, kwargs)["spec"].variance
        # jitter grows by ``factor`` per failed Cholesky, capped at the last step
        escalations = max(0, math.ceil(math.log(result.jitter / first) / math.log(factor) - 1e-6))
        span.info = {
            "escalated": escalations > 0,
            "flops": _cholesky_flops(result.matrix.shape[0], 1 + escalations),
        }

    return hook


def _hook_build_precision(fn):
    def hook(span, args, kwargs, result):
        span.info = {"flops": 2.0 * result.matrix.shape[0] ** 3}

    return hook


def _hook_iters(iterations):
    """Record ``iterations(bound arguments)`` sampler iterations per call."""

    def make(fn):
        bind = _bound(fn)

        def hook(span, args, kwargs, result):
            span.info = {"iters": int(iterations(bind(args, kwargs)))}

        return hook

    return make


HOOKS = {
    DMH: _hook_dmh,
    "gibbs.make_augmentation": _hook_make_augmentation,
    "gibbs.augmentation_at": _hook_augmentation_at,
    "kernels.build_gram": _hook_build_gram,
    "model.build_precision": _hook_build_precision,
    "gibbs.run_chain": _hook_iters(lambda got: got["n_iter"]),
    "inference.block_gibbs_fit": _hook_iters(lambda got: got["config"].n_iter),
}


class Tracer:
    """Wraps the SPANS functions of the vmqp package while installed.

    Use as a context manager; ``spans`` holds every finished span in
    the order the spans ended. A name in SPANS that the package no longer
    has raises ``LookupError``, so a renamed layer cannot read as zero.
    """

    PACKAGE = "vmqp"

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        package = self.PACKAGE
        targets = []
        for qualified in SPANS:
            module_name, _, attr = qualified.rpartition(".")
            module = importlib.import_module(f"{package}.{module_name}")
            if not callable(getattr(module, attr, None)):
                raise LookupError(f"{package}.{qualified} does not exist; update SPANS")
            targets.append((qualified, getattr(module, attr)))
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for qualified, fn in targets:
            hook = HOOKS[qualified](fn) if qualified in HOOKS else None
            wrapper = self._wrap(qualified, fn, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            mod, key, fn = self._patches.pop()
            setattr(mod, key, fn)

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                spans.append(span)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return wrapper


def _ratio(num: float, den: float) -> float:
    """A ratio whose base is reported beside it; 0 when the base is 0."""
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer counts, times and ratios of one traced session.

    Each value is (number, unit). Every ratio's base is reported too:
    ``<block>.calls`` for the exchange-move ratios and ``trace.iters``
    (``run_chain`` plus ``block_gibbs_fit`` iterations) for ``per_iter``.
    """
    calls = dict.fromkeys(REPORTED_SPANS, 0)
    total = dict.fromkeys(REPORTED_SPANS, 0.0)
    own = dict.fromkeys(REPORTED_SPANS, 0.0)
    accepted = dict.fromkeys(DMH_BLOCKS, 0)
    built, numerical = set(), 0
    builds_in_mean = retries = escalations = iters = 0
    flops = 0.0
    for span in spans:
        name, info = span.name, span.info or {}
        if name not in calls:
            continue
        calls[name] += 1
        total[name] += span.total_s
        own[name] += span.self_s
        if name in accepted:
            accepted[name] += info.get("accepted", False)
        if name == "inference.build_param_model" and span.parent is not None:
            if span.parent.name in DMH_BLOCKS:
                built.add(id(span.parent))
                builds_in_mean += span.parent.name == DMH_BLOCKS[1]
                numerical += span.error == "NumericalError"
        retries += bool(info.get("retry"))
        escalations += bool(info.get("escalated"))
        iters += info.get("iters", 0)
        flops += info.get("flops", 0.0)
    dmh_calls = sum(calls[b] for b in DMH_BLOCKS)
    metrics = {}
    for name in REPORTED_SPANS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.total_s"] = (total[name], "s")
        metrics[f"{name}.self_s"] = (own[name], "s")
    for block in DMH_BLOCKS:
        metrics[f"{block}.accept_ratio"] = (_ratio(accepted[block], calls[block]), "ratio")
    metrics[f"{DMH}.support_rejects"] = (dmh_calls - len(built), "count")
    metrics[f"{DMH}.numerical_rejects"] = (numerical, "count")
    metrics["inference.build_param_model.per_mean_proposal"] = (
        _ratio(builds_in_mean, calls[DMH_BLOCKS[1]]),
        "ratio",
    )
    metrics["trace.iters"] = (iters, "count")
    metrics["gibbs.gibbs_sweep.per_iter"] = (_ratio(calls["gibbs.gibbs_sweep"], iters), "ratio")
    metrics["gibbs.make_augmentation.per_iter"] = (
        _ratio(calls["gibbs.make_augmentation"], iters),
        "ratio",
    )
    metrics["gibbs.make_augmentation.slack_retries"] = (retries, "count")
    metrics["kernels.build_gram.jitter_escalations"] = (escalations, "count")
    metrics["linalg.flops_computed"] = (flops, "flop")
    return metrics


def merge(sessions: list) -> dict:
    """Median of each metric over repeated traced sessions."""
    return {
        key: (statistics.median(s[key][0] for s in sessions), unit)
        for key, (_, unit) in sessions[0].items()
    }


def write_spans(spans, path) -> None:
    """Write spans as CSV rows: index, name, parent index, start, end, error."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w") as fh:
        fh.write("index,name,parent,start_s,end_s,error\n")
        for i, s in enumerate(spans):
            parent = index.get(id(s.parent), -1) if s.parent is not None else -1
            fh.write(f"{i},{s.name},{parent},{s.start!r},{s.end!r},{s.error or ''}\n")
