"""Lattice stability of the uniform state: closed forms and numerics.

At the uniform state the atomistic second variation diagonalizes in the
strain Fourier basis: its eigenvalues with respect to the ``||Du||`` metric
are values of a cubic

    lambda_F(s) = A_F + B_F s + C_F s^2 + D_F s^3,   s_k = 4 sin^2(k pi / 2N),

whose coefficients are closed-form combinations of the potential's
derivatives at strains F and 2F.  The quasi-nonlocal and local couplings are
not translation invariant, so their smallest eigenvalue is computed as a
dense symmetric generalized eigenproblem H u = lambda L u on the zero-mean
subspace, with L the operator of the squared-strain metric.  A bisection on
F locates the critical strain where the smallest eigenvalue changes sign.
There is one evaluator per model and no strategy switch: the closed-form
cubic for the atomistic chain, the dense eigensolve for the couplings.

Numerical choices: dense eigensolves (exactness over speed at desk scale),
zero-mean handling by deflating the constant vector from both operators
through a fixed Householder basis, so results are deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .lattice import ChainGrid, PeriodicField, diff, norm_l2eps
from .models import (
    ModelKind,
    RegionDecomposition,
    SymmetricBandedOperator,
    hessian,
)
from .potentials import EAMPotential, mean_field_density

__all__ = [
    "StabilityCoefficients",
    "SpectrumReport",
    "BracketError",
    "EigensolveError",
    "coefficients",
    "lambda_cubic",
    "fourier_spectrum",
    "min_eig_numeric",
    "critical_strain",
    "remark_test_functions",
    "rayleigh_quotient",
    "strain_metric_operator",
    "zero_mean_basis",
]


class BracketError(ValueError):
    """Critical-strain bracket does not straddle a sign change."""


class EigensolveError(RuntimeError):
    """Dense generalized eigensolve failed."""


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
    """
    if not F > 0:
        raise ValueError(f"strain must be positive, got F={F}")
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
    return StabilityCoefficients(F=F, A_hat=a_hat, A_tilde=a_tilde, B=b, C=c, D=d)


def lambda_cubic(c: StabilityCoefficients, s: float) -> float:
    """Evaluate the stability cubic at s; physical modes live in [0, 4]."""
    if not 0.0 <= s <= 4.0:
        warnings.warn(f"stability cubic evaluated outside [0, 4] at s={s}", stacklevel=2)
    return c.A + c.B * s + c.C * s**2 + c.D * s**3


def mode_s_values(N: int) -> np.ndarray:
    """s_k = 4 sin^2(k pi / 2N) for k = -N+1 .. N in site order."""
    k = np.arange(-N + 1, N + 1)
    return 4.0 * np.sin(k * np.pi / (2 * N)) ** 2


def fourier_spectrum(p: EAMPotential, F: float, N: int) -> SpectrumReport:
    """Exact atomistic eigenvalues with respect to the squared-strain metric."""
    if N < 4:
        raise ValueError(f"need N >= 4, got {N}")
    c = coefficients(p, F)
    modes = np.arange(-N + 1, N + 1)
    s = mode_s_values(N)
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


@lru_cache(maxsize=32)
def zero_mean_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the zero-mean subspace as columns of an n x (n-1)
    matrix, built from a fixed Householder reflection (deterministic)."""
    ones = np.full(n, 1.0 / np.sqrt(n))
    v = -ones.copy()
    v[0] += 1.0
    v /= np.linalg.norm(v)
    house = np.eye(n) - 2.0 * np.outer(v, v)
    basis = house[:, 1:].copy()
    basis.flags.writeable = False
    return basis


def min_eig_numeric(
    model: ModelKind,
    region: RegionDecomposition,
    p: EAMPotential,
    F: float,
    N: int,
):
    """Smallest eigenvalue of H u = lambda L u on zero-mean displacements.

    Returns (lambda_min, mode) with the mode as a displacement field.  Dense
    solve after deflating the constant vector from both operators.
    """
    if region.N != N:
        raise ValueError(f"region size {region.N} does not match N={N}")
    h_op = hessian(model, region, p, F)
    basis = zero_mean_basis(h_op.grid.period_atoms)
    hd = basis.T @ (h_op.to_dense() @ basis)
    ld = basis.T @ (strain_metric_operator(h_op.grid).to_dense() @ basis)
    try:
        vals, vecs = scipy.linalg.eigh(hd, ld, subset_by_index=[0, 0])
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - L is SPD here
        raise EigensolveError(
            f"generalized eigensolve failed for {model.value} at F={F}, N={N}: {exc}"
        ) from exc
    mode_vals = basis @ vecs[:, 0]
    mode = PeriodicField.displacement(h_op.grid, mode_vals)
    return float(vals[0]), mode


def _lambda_min_evaluator(model: ModelKind, region: RegionDecomposition, p, N):
    if model == ModelKind.ATOMISTIC:
        # The strain Fourier basis diagonalizes the atomistic operator, so
        # the cubic minimum over the discrete modes IS the smallest
        # generalized eigenvalue (cross-checked against the dense solve in
        # the test suite).
        return lambda F: fourier_spectrum(p, F, N).min_eigenvalue
    return lambda F: min_eig_numeric(model, region, p, F, N)[0]


def critical_strain(
    model: ModelKind,
    region: RegionDecomposition,
    p: EAMPotential,
    N: int,
    bracket,
    tol: float = 1e-10,
) -> float:
    """Bisect the smallest stability eigenvalue to its zero crossing in F.

    ``bracket = (F_lo, F_hi)`` must straddle a sign change of lambda_min.
    The atomistic lambda_min is the minimum of the stability cubic over the
    discrete modes; the coupled models use the dense eigensolve of
    :func:`min_eig_numeric`.  Deterministic: no random starting vectors.
    """
    f_lo, f_hi = float(bracket[0]), float(bracket[1])
    if not 0 < f_lo < f_hi:
        raise BracketError(f"bad bracket ({f_lo}, {f_hi})")
    lam = _lambda_min_evaluator(model, region, p, N)
    lo_val = lam(f_lo)
    hi_val = lam(f_hi)
    if lo_val == 0.0:
        return f_lo
    if hi_val == 0.0:
        return f_hi
    if np.sign(lo_val) == np.sign(hi_val):
        raise BracketError(
            f"lambda_min({f_lo})={lo_val:.6e} and lambda_min({f_hi})={hi_val:.6e} "
            "have the same sign"
        )
    while f_hi - f_lo > tol:
        mid = 0.5 * (f_lo + f_hi)
        mid_val = lam(mid)
        if mid_val == 0.0:
            return mid
        if np.sign(mid_val) == np.sign(lo_val):
            f_lo, lo_val = mid, mid_val
        else:
            f_hi, hi_val = mid, mid_val
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
    """<H u, u> / ||Du||^2 at the uniform state y_F."""
    h_op = hessian(model, region, p, F)
    du = norm_l2eps(diff(u, 1))
    if du == 0.0:
        raise ValueError("Rayleigh quotient of a constant field is undefined")
    return h_op.quadratic_form(u) / du**2
