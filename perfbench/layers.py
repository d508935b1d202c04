"""Per-layer metrics of one traced pass, measured from outside the package.

The layers are the modules of ``eamchain`` (``textconfig`` counts as
``cli``).  One pass runs under ``cProfile``; every profiled function is
assigned to a layer:

* a function defined in ``src/eamchain/<module>.py`` belongs to that module;
* a scipy.linalg eigensolver or Cholesky call is its caller's named linear
  algebra metric (``stability.eigh`` or ``solver.cholesky``), including all
  it calls; called from any other module it counts as that module's self time;
* any other function (numpy, builtins, the rest of scipy) counts as self time
  of the layer that called it.  A helper reached from several layers is split
  among them in proportion to the cumulative time of each caller edge.

Self times are thus a partition of the traced pass.  Counts are exact.  The
linear-algebra calls are wrapped for the traced pass only, so the matrix size
of each call is known and its flop count can be computed from it; these are
estimates from the standard LAPACK operation counts, labelled as computed.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from collections import defaultdict
from pathlib import Path

import scipy.linalg

from eamchain.models import SymmetricBandedOperator

HERE = Path(__file__).resolve().parent

LAYERS = ("stability", "solver", "models", "potentials", "lattice", "cli")
LAYER_OF_MODULE = {name: name for name in LAYERS} | {"textconfig": "cli"}

# The scipy.linalg entry points the package calls, wrapped during the traced
# pass: (name, kind).
LINALG_FUNCS = (("eigh", "eigen"), ("cho_factor", "factor"), ("cho_solve", "solve"))
# The module whose named metric each kind feeds.
KIND_LAYER = {"eigen": "stability", "factor": "solver", "solve": "solver"}
KIND_BUCKET = {"eigen": "stability.eigh", "factor": "solver.cholesky", "solve": "solver.cholesky"}


def eigen_flops(args, kwargs) -> float:
    """Tridiagonal reduction 4n^3/3; a generalized pencil adds the Cholesky
    of B (n^3/3) and the reduction to standard form (n^3)."""
    n = (args[0] if args else kwargs["a"]).shape[0]
    b = args[1] if len(args) > 1 else kwargs.get("b")
    return (4.0 / 3.0 + (4.0 / 3.0 if b is not None else 0.0)) * n**3


def factor_flops(args, kwargs) -> float:
    """Dense Cholesky: n^3/3."""
    return (args[0] if args else kwargs["a"]).shape[0] ** 3 / 3.0


def solve_flops(args, kwargs) -> float:
    """Two triangular solves per right-hand side: 2 n^2."""
    c = (args[0] if args else kwargs["c_and_lower"])[0]
    b = args[1] if len(args) > 1 else kwargs["b"]
    nrhs = b.shape[1] if b.ndim > 1 else 1
    return 2.0 * c.shape[0] ** 2 * nrhs


FLOPS = {"eigen": eigen_flops, "factor": factor_flops, "solve": solve_flops}


def layer_of_file(filename: str, package_dir: Path) -> str | None:
    path = Path(filename)
    if path.parent == package_dir and path.suffix == ".py":
        return LAYER_OF_MODULE.get(path.stem)
    return None


class WrappedCalls:
    """Context manager that wraps, for one traced pass, the scipy.linalg eigen
    and Cholesky entry points and ``SymmetricBandedOperator.to_dense``.

    Records calls and computed flops per (caller layer, kind), and the bytes
    of every dense matrix materialized from a banded operator."""

    def __init__(self, package_dir: Path):
        self.package_dir = package_dir
        self.calls = defaultdict(int)
        self.flops = defaultdict(float)
        self.dense_calls = 0
        self.dense_bytes = 0
        self.wrapper_codes = {}
        self._saved = []

    def _wrap_linalg(self, kind: str, func):
        calls, flop_sums, package_dir, flops = self.calls, self.flops, self.package_dir, FLOPS[kind]

        def linalg_call(*args, **kwargs):
            layer = layer_of_file(sys._getframe(1).f_code.co_filename, package_dir)
            calls[(layer, kind)] += 1
            flop_sums[(layer, kind)] += flops(args, kwargs)
            return func(*args, **kwargs)

        # cProfile keys functions by (file, line, name): a name per kind keeps
        # the stats of the three kinds apart.
        linalg_call.__code__ = linalg_call.__code__.replace(co_name=f"{kind}_call")
        return linalg_call

    def _wrap_to_dense(self, func):
        def to_dense_call(operator):
            out = func(operator)
            self.dense_calls += 1
            self.dense_bytes += out.nbytes
            return out

        return to_dense_call

    def _replace(self, owner, name: str, wrapper, kind: str | None) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        self.wrapper_codes[wrapper.__code__] = kind
        setattr(owner, name, wrapper)

    def __enter__(self):
        for name, kind in LINALG_FUNCS:
            self._replace(scipy.linalg, name, self._wrap_linalg(kind, getattr(scipy.linalg, name)), kind)
        dense = SymmetricBandedOperator.to_dense
        self._replace(SymmetricBandedOperator, "to_dense", self._wrap_to_dense(dense), None)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        return False


def _is_harness(filename: str) -> bool:
    return filename != "~" and HERE in Path(filename).resolve().parents


def _code_key(code) -> tuple:
    return (code.co_filename, code.co_firstlineno, code.co_name)


def run_traced(fn, package_dir: Path):
    """Run ``fn()`` under cProfile with the linear-algebra calls wrapped.
    Returns (result, stats dict, WrappedCalls)."""
    calls = WrappedCalls(package_dir)
    profiler = cProfile.Profile()
    with calls:
        profiler.enable()
        try:
            result = fn()
        finally:
            profiler.disable()
    return result, pstats.Stats(profiler).stats, calls


def attribute(stats: dict, calls: WrappedCalls, package_dir: Path) -> dict:
    """Self seconds per bucket: the six layers, ``stability.eigh``,
    ``solver.cholesky`` and ``harness`` (the benchmark's own code)."""
    wrapper_kind = {_code_key(code): kind for code, kind in calls.wrapper_codes.items()}
    memo: dict = {}

    def owner(func, active: set):
        if func in memo:
            return memo[func]
        layer = layer_of_file(func[0], package_dir)
        if layer is not None:
            return memo.setdefault(func, {layer: 1.0})
        if func not in wrapper_kind and _is_harness(func[0]):
            return memo.setdefault(func, {"harness": 1.0})
        if func in active:
            return None
        active.add(func)
        callers = stats[func][4]
        weights = {c: edge[3] for c, edge in callers.items()}
        if not any(weights.values()):
            weights = {c: edge[1] for c, edge in callers.items()}
        total = sum(weights.values())
        share = defaultdict(float)
        kind = wrapper_kind.get(func)
        for caller, weight in weights.items():
            if kind is not None and layer_of_file(caller[0], package_dir) == KIND_LAYER[kind]:
                share[KIND_BUCKET[kind]] += weight / total
                continue
            up = owner(caller, active)
            if up is None:
                continue
            for bucket, frac in up.items():
                share[bucket] += frac * weight / total
        active.discard(func)
        result = dict(share) if share else {"harness": 1.0}
        memo[func] = result
        return result

    buckets = defaultdict(float)
    for func, (_, _, tt, _, _) in stats.items():
        for bucket, frac in owner(func, set()).items():
            buckets[bucket] += tt * frac
    return dict(buckets)


def function_totals(stats: dict, package_dir: Path, module: str, name: str) -> tuple[int, float]:
    """(calls, cumulative seconds) of the named function in one package module."""
    n, cum = 0, 0.0
    for (filename, _, funcname), (_, nc, _, ct, _) in stats.items():
        if funcname == name and Path(filename).parent == package_dir and Path(filename).stem == module:
            n += nc
            cum += ct
    return n, cum


def named_op_seconds(stats: dict, calls: WrappedCalls, kinds: tuple[str, ...]) -> float:
    """Cumulative seconds of wrapped linear-algebra calls made from their layer."""
    total = 0.0
    package_dir = calls.package_dir
    for code, kind in calls.wrapper_codes.items():
        if kind not in kinds:
            continue
        entry = stats.get(_code_key(code))
        if entry is None:
            continue
        for caller, edge in entry[4].items():
            if layer_of_file(caller[0], package_dir) == KIND_LAYER[kind]:
                total += edge[3]
    return total


def layer_metrics(stats: dict, calls: WrappedCalls, package_dir: Path, potential_codes) -> dict:
    """Every per-layer metric of the benchmark from one traced pass."""
    buckets = attribute(stats, calls, package_dir)

    def fn(module, name):
        return function_totals(stats, package_dir, module, name)

    out = {}
    out["stability.eigh.calls"] = calls.calls[("stability", "eigen")]
    out["stability.eigh_s"] = named_op_seconds(stats, calls, ("eigen",))
    out["stability.eigh.flops"] = calls.flops[("stability", "eigen")]
    out["stability.lambda_evals"] = fn("stability", "min_eig_numeric")[0] + fn("stability", "fourier_spectrum")[0]
    out["stability.critical_strain.cum_s"] = fn("stability", "critical_strain")[1]
    out["stability.min_eig_numeric.cum_s"] = fn("stability", "min_eig_numeric")[1]
    out["stability.self_s"] = buckets.get("stability", 0.0)

    out["solver.factorizations"] = calls.calls[("solver", "factor")]
    out["solver.cholesky_s"] = named_op_seconds(stats, calls, ("factor", "solve"))
    out["solver.cholesky.flops"] = calls.flops[("solver", "factor")] + calls.flops[("solver", "solve")]
    calls_sl, cum_sl = fn("solver", "solve_linearized")
    out["solver.solve_linearized.calls"] = calls_sl
    out["solver.solve_linearized.cum_s"] = cum_sl
    out["solver.negative_norm.cum_s"] = fn("solver", "negative_norm")[1]
    out["solver.consistency_residual.cum_s"] = fn("solver", "consistency_residual")[1]
    out["solver.self_s"] = buckets.get("solver", 0.0)

    for name in ("hessian", "energy", "gradient"):
        n, cum = fn("models", name)
        out[f"models.{name}.calls"] = n
        out[f"models.{name}.cum_s"] = cum
    out["models.apply.cum_s"] = fn("models", "apply")[1]
    out["models.to_dense.calls"] = calls.dense_calls
    out["models.to_dense.bytes"] = calls.dense_bytes
    out["models.self_s"] = buckets.get("models", 0.0)

    keys = {_code_key(code) for code in potential_codes}
    out["potentials.evals"] = sum(stats[k][1] for k in keys if k in stats)
    out["potentials.self_s"] = buckets.get("potentials", 0.0)

    out["lattice.calls"] = sum(
        entry[1] for func, entry in stats.items() if layer_of_file(func[0], package_dir) == "lattice"
    )
    out["lattice.self_s"] = buckets.get("lattice", 0.0)

    out["cli.main.cum_s"] = fn("cli", "main")[1]
    out["cli.write_csv.cum_s"] = fn("cli", "write_csv")[1]
    out["cli.self_s"] = buckets.get("cli", 0.0)
    return out
