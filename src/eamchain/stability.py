"""Lattice stability of the uniform state: closed forms and numerics.

At the uniform state the atomistic second variation diagonalizes in the
strain Fourier basis: its eigenvalues with respect to the ``||Du||`` metric
are values of a cubic

    lambda_F(s) = A_F + B_F s + C_F s^2 + D_F s^3,   s_k = 4 sin^2(k pi / 2N),

whose coefficients are closed-form combinations of the potential's
derivatives at strains F and 2F.  The quasi-nonlocal and local couplings are
not translation invariant.  With H = D^T Q D, their smallest eigenvalue of
H u = lambda L u on zero-mean displacements (L the operator of the
squared-strain metric) is that of the strain Hessian Q on zero-sum strains
Du.  It is at most A_F, the eigenvalue of Q on constants, so one banded
Cholesky factorization of Q - lambda I decides in O(N) whether lambda lies
below it; lambda_min and the critical strain in F are both found by
deterministic bisection on that test.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import ChainGrid, PeriodicField, diff, displacement_from_strain, norm_l2eps
from .models import ModelKind, RegionDecomposition, SymmetricBandedOperator, ring_solver, strain_hessian
from .potentials import EAMPotential, mean_field_density, require_finite

__all__ = [
    "StabilityCoefficients",
    "SpectrumReport",
    "BracketError",
    "coefficients",
    "lambda_cubic",
    "fourier_spectrum",
    "min_eig_numeric",
    "critical_strain",
    "remark_test_functions",
    "rayleigh_quotient",
    "strain_metric_operator",
]


class BracketError(ValueError):
    """Critical-strain bracket does not straddle a sign change."""


@dataclass(frozen=True)
class StabilityCoefficients:
    """Coefficients of the stability cubic at strain F.

    ``A_hat`` is the embedding contribution to the continuum elastic
    modulus, ``A_tilde`` the pair contribution; A = A_hat + A_tilde by
    construction.  Under the a1 sign conditions, C >= 0 >= D and
    8|D| <= C, which makes lambda_F nondecreasing on [0, 4] whenever
    B >= 0 (the a2 condition).
    """

    F: float
    A_hat: float
    A_tilde: float
    B: float
    C: float
    D: float

    @property
    def A(self) -> float:
        return self.A_hat + self.A_tilde


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues lambda_k = lambda_F(s_k) of the atomistic chain.

    Arrays are in site order (k = -N+1 .. N); the k = 0 entry is the
    translation mode and is excluded from the minimum.  ``minimizer_is_fundamental``
    flags whether the minimum over k != 0 sits at |k| = 1, which the a2
    condition guarantees; when it fails the report simply records where the
    minimum moved.
    """

    F: float
    N: int
    modes: np.ndarray
    s_values: np.ndarray
    eigenvalues: np.ndarray
    min_eigenvalue: float
    min_mode: int

    @property
    def minimizer_is_fundamental(self) -> bool:
        return abs(self.min_mode) == 1


def coefficients(p: EAMPotential, F: float) -> StabilityCoefficients:
    """Closed-form stability coefficients of the atomistic chain at F.

    Embedding derivatives are evaluated at the uniform summed density
    2 rho(F) + 2 rho(2F).  For a pure pair potential only A_tilde survives.
    Raises NonFiniteError if a coefficient is not finite.
    """
    if not F > 0:
        raise ValueError(f"strain must be positive, got F={F}")
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite reports it
        dbar = mean_field_density(p, F)
        phi2_F = p.pair.d2(F)
        phi2_2F = p.pair.d2(2 * F)
        r1F = p.density.d1(F)
        r12F = p.density.d1(2 * F)
        r2F = p.density.d2(F)
        r22F = p.density.d2(2 * F)
        g1 = p.embedding.d1(dbar)
        g2 = p.embedding.d2(dbar)

        a_hat = 4 * g2 * (r1F + 2 * r12F) ** 2 + 2 * g1 * (r2F + 4 * r22F)
        a_tilde = phi2_F + 4 * phi2_2F
        b = -(phi2_2F + g2 * (r1F**2 + 20 * r12F**2 + 12 * r1F * r12F) + 2 * g1 * r22F)
        c = g2 * (8 * r12F**2 + 2 * r1F * r12F)
        d = -g2 * r12F**2
    require_finite(p, F, "stability coefficient", [a_hat, a_tilde, b, c, d])
    return StabilityCoefficients(F=F, A_hat=a_hat, A_tilde=a_tilde, B=b, C=c, D=d)


def lambda_cubic(c: StabilityCoefficients, s: float) -> float:
    """Evaluate the stability cubic at s; physical modes live in [0, 4]."""
    if not 0.0 <= s <= 4.0:
        warnings.warn(f"stability cubic evaluated outside [0, 4] at s={s}", stacklevel=2)
    return c.A + c.B * s + c.C * s**2 + c.D * s**3


def fourier_spectrum(p: EAMPotential, F: float, N: int) -> SpectrumReport:
    """Exact atomistic eigenvalues with respect to the squared-strain metric."""
    if N < 4:
        raise ValueError(f"need N >= 4, got {N}")
    c = coefficients(p, F)
    modes = np.arange(-N + 1, N + 1)
    s = 4.0 * np.sin(modes * np.pi / (2 * N)) ** 2
    lam = c.A + c.B * s + c.C * s**2 + c.D * s**3
    nonzero = modes != 0
    idx = np.argmin(np.where(nonzero, lam, np.inf))
    return SpectrumReport(
        F=F,
        N=N,
        modes=modes,
        s_values=s,
        eigenvalues=lam,
        min_eigenvalue=float(lam[idx]),
        min_mode=int(modes[idx]),
    )


def strain_metric_operator(grid: ChainGrid) -> SymmetricBandedOperator:
    """Operator L with <Lu, u> = ||Du||^2 in the l2_eps pairing."""
    n = grid.period_atoms
    bands = np.zeros((n, 5))
    bands[:, 0] = 2.0 / grid.epsilon**2
    bands[:, 1] = -1.0 / grid.epsilon**2
    return SymmetricBandedOperator(grid, bands)


def _bisect(inside, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve [lo, hi] until it is at most tol wide, keeping ``inside(lo)``
    true and ``inside(hi)`` false; returns the final (lo, hi)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo, hi


def min_eig_numeric(
    model: ModelKind,
    region: RegionDecomposition,
    p: EAMPotential,
    F: float,
    N: int,
):
    """Smallest eigenvalue of H u = lambda L u on zero-mean displacements.

    Returns (lambda_min, mode), the mode with unit ``||Du||``.  The
    atomistic chain has both in closed form: the minimum of
    :func:`fourier_spectrum` and the cosine displacement at its wavenumber.
    A coupled model's lambda_min is the smallest eigenvalue of the strain
    Hessian Q on zero-sum strains, and at most A_F: QCL's Q is A_F I, and a
    QNL region leaves two or more bonds that only continuum atoms touch,
    where Q is A_F I.  So lambda < lambda_min exactly when the banded
    Cholesky of Q - lambda I succeeds: a copy of Q's ring band storage, a
    diagonal update and one factorization.  The bracket: a step doubled
    down from the Rayleigh quotient x.Qx / x.x of a fixed-seed zero-sum
    start vector until definite gives the lower end; two inverse-iteration
    steps with that factor, means removed, give a Rayleigh quotient, the
    upper end.  Shifts below it lower the upper end while definiteness
    fails and become the lower end once it holds, starting at the Aitken
    estimate dec2^2 / (dec1 - dec2) of the quotient's remaining error from
    its two decrements (when they shrink) and 4 times further each time;
    when both decrements are within the bisection tolerance (QCL, whose Q
    is A_F I), one probe a tolerance below the quotient.  Bisection then
    closes the bracket to ~1e-14 relative; the mode integrates one
    inverse-iteration step from the start vector with the factor at the
    final lower end.
    """
    if region.N != N:
        raise ValueError(f"region size {region.N} does not match N={N}")
    grid = ChainGrid(N)
    if model == ModelKind.ATOMISTIC:
        rep = fourier_spectrum(p, F, N)
        mode = PeriodicField.displacement(grid, np.cos(np.pi * rep.min_mode * grid.positions()))
        return rep.min_eigenvalue, mode * (1.0 / norm_l2eps(diff(mode, 1)))
    q_op = strain_hessian(model, region, p, F)
    ab_q = q_op.ring_bands()
    solve_lo = None  # solve with the factor at the highest shift found definite

    def definite(lam: float) -> bool:
        nonlocal solve_lo
        ab = ab_q.copy(order="F")
        ab[0] -= lam
        solve = ring_solver(ab)
        if solve is not None:
            solve_lo = solve
        return solve is not None

    def inverse_step(x: np.ndarray) -> np.ndarray:
        y = solve_lo(x)
        return y - y.mean()

    def rayleigh(x: np.ndarray) -> float:
        return float(np.dot(x, q_op.apply(x)) / np.dot(x, x))

    start = np.random.default_rng(0).standard_normal(grid.period_atoms)
    start -= start.mean()
    hi = rayleigh(start)
    step = max(1.0, abs(hi))
    while not definite(hi - step):
        step *= 2.0
    lo = hi - step
    x1 = inverse_step(start)
    x2 = inverse_step(x1)
    rq1, rq2 = rayleigh(x1), rayleigh(x2)
    dec1, dec2 = hi - rq1, rq1 - rq2
    hi = min(hi, rq2)
    tol = 1e-14 * max(1.0, abs(lo), abs(hi))
    if max(abs(dec1), abs(dec2)) <= tol:  # converged: one probe just below
        delta, growth = tol, math.inf
    elif 0 < dec2 < dec1:
        delta, growth = max(dec2 * dec2 / (dec1 - dec2), tol), 4.0
    else:
        delta = growth = math.inf
    while hi - delta > lo:
        if definite(hi - delta):
            lo = hi - delta
            break
        hi -= delta
        delta *= growth
    lo, hi = _bisect(definite, lo, hi, tol)
    mode = displacement_from_strain(grid, inverse_step(start))
    return 0.5 * (lo + hi), mode * (1.0 / norm_l2eps(diff(mode, 1)))


def critical_strain(
    model: ModelKind,
    region: RegionDecomposition,
    p: EAMPotential,
    N: int,
    bracket,
    tol: float = 1e-10,
) -> float:
    """Bisect F to the strain where the chain stops being stable.

    ``bracket = (F_lo, F_hi)`` must hold a stable and an unstable end.  The
    atomistic chain is stable when the minimum of the stability cubic over
    the discrete modes is positive; a coupled model is stable when its
    strain Hessian Q is positive definite, which is whether its banded
    Cholesky succeeds (lambda_min <= A_F, see :func:`min_eig_numeric`).
    Deterministic.
    """
    f_lo, f_hi = float(bracket[0]), float(bracket[1])
    if not 0 < f_lo < f_hi:
        raise BracketError(f"bad bracket ({f_lo}, {f_hi})")
    if model == ModelKind.ATOMISTIC:
        stable = lambda F: fourier_spectrum(p, F, N).min_eigenvalue > 0  # noqa: E731
    else:
        stable = lambda F: strain_hessian(model, region, p, F).cholesky_solver() is not None  # noqa: E731
    lo_stable = stable(f_lo)
    if stable(f_hi) == lo_stable:
        state = "stable" if lo_stable else "unstable"
        raise BracketError(f"{model.value} chain is {state} at both F={f_lo} and F={f_hi}")
    f_lo, f_hi = _bisect(lambda F: stable(F) == lo_stable, f_lo, f_hi, tol)
    return 0.5 * (f_lo + f_hi)


def remark_test_functions(N: int, K: int):
    """Oscillatory displacements probing the zone-boundary mode.

    Returns (u_tilde, u_hat): u_tilde alternates over the whole period with
    ||D u_tilde|| = 1 exactly; u_hat is the same oscillation truncated to
    the atomistic core (support |l| <= K-1), whose boundary strains at
    l = -(K-1) and l = K have half amplitude, so
    ||D u_hat||^2 = eps (K - 1) + eps / 4.
    """
    if N < 4:
        raise ValueError(f"need N >= 4, got {N}")
    if not 2 <= K <= N - 3:
        raise ValueError(f"need 2 <= K <= N-3 for the truncated mode, got K={K}")
    grid = ChainGrid(N)
    sites = grid.sites()
    amp = grid.epsilon / (2.0 * np.sqrt(2.0))
    signs = np.where(sites % 2 == 0, 1.0, -1.0)
    u_tilde = PeriodicField.displacement(grid, signs * amp)
    hat_vals = np.where(np.abs(sites) <= K - 1, signs * amp, 0.0)
    u_hat = PeriodicField.displacement(grid, hat_vals)
    return u_tilde, u_hat


def rayleigh_quotient(
    model: ModelKind,
    region: RegionDecomposition,
    p: EAMPotential,
    F: float,
    u: PeriodicField,
) -> float:
    """<H u, u> / ||Du||^2 at the uniform state y_F, the quadratic form of the
    strain Hessian on Du."""
    du = diff(u, 1)
    norm = norm_l2eps(du)
    if norm == 0.0:
        raise ValueError("Rayleigh quotient of a constant field is undefined")
    return strain_hessian(model, region, p, F).quadratic_form(du) / norm**2
