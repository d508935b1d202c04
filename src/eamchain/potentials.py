"""Scalar potential functions (pair, electron density, embedding).

An EAM potential is a triple of C^2 scalar functions: the pair interaction
``phi``, the per-neighbor electron density ``rho``, and the embedding energy
``G`` applied to the summed density.  Everything is dimensionless.  Three
parametric families are parseable from definition files:

* ``morse``      pair:       phi(r) = exp(-2 a (r-1)) - 2 exp(-a (r-1))
* ``expdecay``   density:    rho(r) = exp(-b (r-1))
* ``quadratic``  embedding:  G(d)   = c0/2 * d^2 - c1 * d

plus a ``zero`` tag for degenerate members (pure pair chains and the like).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from .textconfig import ConfigError, parse_kv_lines

__all__ = [
    "ScalarFunctionC2",
    "EAMPotential",
    "validate_derivatives",
    "morse_pair",
    "expdecay_density",
    "quadratic_embedding",
    "zero_function",
    "load_potential_file",
    "parse_potential",
    "shipped_potential",
    "STABLE_RANGES",
    "mean_field_density",
    "NonFiniteError",
    "require_finite",
]

#: Documented strain ranges on which stability.check_assumptions(...).a1_holds
#: is true for the shipped potentials (and a2 also holds for "default-eam").
#: These were established by scripts/scan_potentials.py and are asserted in
#: tests.
STABLE_RANGES = {
    "default-eam": (0.95, 1.15),
    "reversal-eam": (0.95, 1.15),
    "pair-morse": (0.95, 1.15),
}


class NonFiniteError(ArithmeticError):
    """A potential's derivatives at the analysed uniform strain are not
    finite (e.g. an exponential overflows) or all vanish (they underflow),
    so no result there means anything."""


def require_finite(p: "EAMPotential", F: float, what: str, values: tuple) -> None:
    """Raise NonFiniteError, naming the potential and F, unless every one of
    the floats ``values`` is finite and not every one is 0."""
    if not all(map(math.isfinite, values)):
        raise NonFiniteError(f"potential {p.name or '<unnamed>'!r} gives a non-finite {what} at F={F}")
    if not any(values):
        raise NonFiniteError(f"potential {p.name or '<unnamed>'!r} gives {what} values that are all 0 at F={F}")


@dataclass(frozen=True)
class ScalarFunctionC2:
    """A scalar function with analytic first and second derivatives.

    ``eval``, ``d1`` and ``d2`` act elementwise: given a float they return
    a float, given an array they return an array of its shape.  The model
    evaluators call them on arrays: the pair and density once per argument
    kind (strains, next-nearest sums, doubled strains) on its values on the
    bond spans whose terms read it, the embedding on the group densities;
    and they broadcast a result that does not depend on the argument (such
    as ``lambda d: 1.0``) to the argument's shape.
    """

    eval: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]

    def __call__(self, r: float) -> float:
        return self.eval(r)


@dataclass(frozen=True)
class EAMPotential:
    """Pair/density/embedding triple defining one EAM chain material."""

    pair: ScalarFunctionC2
    density: ScalarFunctionC2
    embedding: ScalarFunctionC2
    name: str = ""
    #: memo of :func:`_uniform_derivatives` by strain; not part of the value
    _uniform: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def morse_pair(alpha: float) -> ScalarFunctionC2:
    """Morse pair interaction with well at r = 1 and stiffness alpha."""

    def f(r: float) -> float:
        e = np.exp(-alpha * (r - 1))
        return e * (e - 2)

    def f1(r: float) -> float:
        e = np.exp(-alpha * (r - 1))
        return 2 * alpha * e * (1 - e)

    def f2(r: float) -> float:
        return 4 * alpha**2 * np.exp(-2 * alpha * (r - 1)) - 2 * alpha**2 * np.exp(
            -alpha * (r - 1)
        )

    return ScalarFunctionC2(f, f1, f2)


def expdecay_density(beta: float) -> ScalarFunctionC2:
    """Exponentially decaying electron density, normalized to 1 at r = 1."""

    def f(r: float) -> float:
        return np.exp(-beta * (r - 1))

    def f1(r: float) -> float:
        return -beta * np.exp(-beta * (r - 1))

    def f2(r: float) -> float:
        return beta**2 * np.exp(-beta * (r - 1))

    return ScalarFunctionC2(f, f1, f2)


def quadratic_embedding(c0: float, c1: float) -> ScalarFunctionC2:
    """Embedding energy G(d) = c0/2 d^2 - c1 d; G'' = c0 everywhere."""

    def f(d: float) -> float:
        return 0.5 * c0 * d * d - c1 * d

    def f1(d: float) -> float:
        return c0 * d - c1

    def f2(d: float) -> float:
        return np.full_like(d, c0, dtype=float)[()]

    return ScalarFunctionC2(f, f1, f2)


def zero_function() -> ScalarFunctionC2:
    """Identically zero member (e.g. no embedding term)."""
    zero = lambda r: np.zeros_like(r, dtype=float)[()]  # noqa: E731
    return ScalarFunctionC2(zero, zero, zero)


#: Parseable families by role, in the order of :class:`EAMPotential`'s
#: members: family name -> (constructor, keys of its numeric parameters)
FAMILIES = {
    "pair": {"morse": (morse_pair, ("alpha",)), "zero": (zero_function, ())},
    "density": {"expdecay": (expdecay_density, ("beta",)), "zero": (zero_function, ())},
    "embedding": {"quadratic": (quadratic_embedding, ("c0", "c1")), "zero": (zero_function, ())},
}

POTENTIAL_KEYS = {"name", *(f"family.{role}" for role in FAMILIES)} | {
    key for families in FAMILIES.values() for _, keys in families.values() for key in keys
}


def mean_field_density(p: EAMPotential, F: float) -> float:
    """Summed electron density 2 rho(F) + 2 rho(2F) at uniform strain F."""
    return 2.0 * p.density(F) + 2.0 * p.density(2 * F)


#: Strains kept by one potential's memo of :func:`_uniform_derivatives`; a
#: critical-strain run visits about 90 per potential.
_UNIFORM_MEMO_SIZE = 256


def _uniform_derivatives(p: EAMPotential, F: float) -> tuple:
    """phi''(F), phi''(2F), rho'(F), rho'(2F), rho''(F), rho''(2F), G'(rho_bar)
    and G''(rho_bar) at the uniform strain F, rho_bar = 2 rho(F) + 2 rho(2F):
    every uniform-state stability quantity is built from these.  Memoized
    per potential and strain as Python floats, whose arithmetic does not
    warn.  Raises ValueError unless 0 < F < inf.  The values may be
    non-finite; each caller checks what it derives from them, so the check
    repeats on every call."""
    if not 0 < F < math.inf:
        raise ValueError(f"strain must be finite and positive, got F={F}")
    F = float(F)
    memo = p._uniform
    values = memo.get(F)
    if values is None:
        with np.errstate(over="ignore", invalid="ignore"):
            dbar = mean_field_density(p, F)
            values = (
                p.pair.d2(F),
                p.pair.d2(2 * F),
                p.density.d1(F),
                p.density.d1(2 * F),
                p.density.d2(F),
                p.density.d2(2 * F),
                p.embedding.d1(dbar),
                p.embedding.d2(dbar),
            )
        if len(memo) >= _UNIFORM_MEMO_SIZE:
            memo.clear()
        memo[F] = values = tuple(map(float, values))
    return values


def validate_derivatives(
    p: EAMPotential, probe: np.ndarray, h: float = 1e-5, tol: float = 1e-6
):
    """Check the analytic derivatives against central differences.

    Returns (passed, max_rel) where max_rel is the largest relative
    deviation between the analytic d1/d2 and central differences of eval/d1
    over the probe values (embedding functions probed at the corresponding
    summed densities).  Deviations are measured against the pointwise
    finite difference, floored by a fraction of its magnitude over the
    whole probe so isolated derivative roots (e.g. a pair-potential well
    bottom) do not amplify truncation noise.
    """
    probe = np.asarray(probe, dtype=float)
    worst = 0.0

    def _pair_dev(fn_lo, fn_hi, points):
        fds = np.array([(fn_lo(r + h) - fn_lo(r - h)) / (2 * h) for r in points])
        ans = np.array([fn_hi(r) for r in points])
        floor = max(1e-3 * float(np.max(np.abs(fds))), 1e-12)
        denom = np.maximum(np.abs(fds), floor)
        return float(np.max(np.abs(ans - fds) / denom))

    for fn in (p.pair, p.density):
        worst = max(worst, _pair_dev(fn.eval, fn.d1, probe), _pair_dev(fn.d1, fn.d2, probe))
    dens_probe = np.array([mean_field_density(p, r) for r in probe])
    worst = max(
        worst,
        _pair_dev(p.embedding.eval, p.embedding.d1, dens_probe),
        _pair_dev(p.embedding.d1, p.embedding.d2, dens_probe),
    )
    return worst <= tol, worst


def parse_potential(text: str, origin: str = "<string>") -> EAMPotential:
    """Parse a potential definition from key = value text.

    Recognized keys (POTENTIAL_KEYS): name, family.pair, family.density,
    family.embedding and the parameters of the FAMILIES: alpha, beta, c0,
    c1.  Unknown and repeated keys are a hard error (with line number).
    """
    seen: dict[str, str] = {}
    for lineno, key, value in parse_kv_lines(text, origin):
        if key not in POTENTIAL_KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        seen[key] = value

    def _num(key: str) -> float:
        if key not in seen:
            raise ConfigError(f"{origin}: missing numeric parameter {key!r}")
        try:
            value = float(seen[key])
        except ValueError as exc:
            raise ConfigError(f"{origin}: bad number for {key!r}: {seen[key]!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"{origin}: parameter {key!r} must be finite, got {seen[key]!r}")
        return value

    members = []
    for role, families in FAMILIES.items():
        family = seen.get(f"family.{role}", "zero")
        if family not in families:
            raise ConfigError(f"{origin}: unknown {role} family {family!r}")
        make, keys = families[family]
        members.append(make(*map(_num, keys)))
    return EAMPotential(*members, name=seen.get("name", ""))


def load_potential_file(path) -> EAMPotential:
    """Load a potential definition from a UTF-8 key = value file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 (byte {exc.start})") from exc
    return parse_potential(text, origin=str(path))


def shipped_potential(name: str) -> EAMPotential:
    """Load one of the potentials shipped with the package.

    Known names: "default-eam" (tuned so a1 and a2 hold on the documented
    range), "reversal-eam" (violates a2 but satisfies a3, the regime where
    the local model is the more stable one), "pair-morse" (no embedding).
    """
    fname = name.replace("-", "_") + ".pot"
    ref = resources.files("eamchain").joinpath("data", fname)
    if not ref.is_file():
        raise ValueError(f"no shipped potential named {name!r}")
    return parse_potential(ref.read_text(encoding="utf-8"), origin=fname)
