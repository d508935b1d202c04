"""Lattice stability of the uniform state: closed forms and numerics.

At the uniform state the atomistic second variation diagonalizes in the
strain Fourier basis: its eigenvalues with respect to the ``||Du||`` metric
are values of a cubic

    lambda_F(s) = A_F + B_F s + C_F s^2 + D_F s^3,   s_k = 4 sin^2(k pi / 2N),

whose coefficients are closed-form combinations of the potential's
derivatives at strains F and 2F, evaluated once per potential and strain.
s_k grows with k, so the smallest lambda_F(s_k) lies at k = 1, at k = N or
beside a critical point of the cubic, and a few modes decide atomistic
stability at any N.  The quasi-nonlocal and local couplings are not
translation invariant.  With H = D^T Q D, their smallest eigenvalue of
H u = lambda L u on zero-mean displacements (L the operator of the
squared-strain metric) is that of the strain Hessian Q on zero-sum strains
Du.  Continuum atoms couple no two bonds, so Q is a core block on 2K+4 rows
(none for QCL) plus A_F I; one banded Cholesky of the shifted block decides,
at a cost independent of N, whether lambda < lambda_min <= A_F, and
deterministic bisection on that test finds lambda_min and critical strains.
Only a solve (:func:`strain_solver`, which reads the operator alone) costs O(N).

The banded Cholesky is LAPACK's ``dpbtrf``/``dpbtrs`` from scipy's own f2py
extension ``scipy.linalg._flapack``, loaded from its file at import without
running ``scipy.linalg``'s package initializer: the routines are the same
objects ``scipy.linalg.lapack`` exports, and skipping the package saves most
of the import time and memory of a process.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.fft  # numpy loads it on first use; strain_solver needs it, so load it at import

from .lattice import ChainGrid, PeriodicField, diff, norm_l2eps
from .models import ModelKind, RegionDecomposition, SymmetricBandedOperator, _band_apply, strain_hessian
from .potentials import EAMPotential, _minus_b, _uniform_derivatives, require_finite

__all__ = [
    "StabilityCoefficients",
    "SpectrumReport",
    "BracketError",
    "coefficients",
    "lambda_cubic",
    "fourier_spectrum",
    "strain_solver",
    "lambda_min",
    "critical_strain",
    "stability_key",
    "remark_test_functions",
    "rayleigh_quotient",
]


def _load_flapack():
    """scipy's LAPACK extension module, loaded from the ``scipy.linalg``
    directory; finding that directory imports ``scipy`` but not
    ``scipy.linalg``."""
    linalg = importlib.util.find_spec("scipy.linalg")
    path = [] if linalg is None else linalg.submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", path)
    if spec is None:
        import scipy

        raise ImportError(f"scipy {scipy.__version__} has no LAPACK extension scipy.linalg._flapack")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()


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
    translation mode and is excluded from the minimum.
    """

    F: float
    N: int
    modes: np.ndarray
    s_values: np.ndarray
    eigenvalues: np.ndarray
    min_eigenvalue: float
    min_mode: int


def coefficients(p: EAMPotential, F: float) -> StabilityCoefficients:
    """Closed-form stability coefficients of the atomistic chain at F.

    Embedding derivatives are evaluated at the uniform summed density
    2 rho(F) + 2 rho(2F).  For a pure pair potential only A_tilde survives.
    Raises NonFiniteError if a coefficient is not finite or every one is 0.
    """
    phi2_F, phi2_2F, r1F, r12F, r2F, r22F, g1, g2 = _uniform_derivatives(p, F)
    try:
        a_hat = 4 * g2 * (r1F + 2 * r12F) ** 2 + 2 * g1 * (r2F + 4 * r22F)
        a_tilde = phi2_F + 4 * phi2_2F
        b = -_minus_b(phi2_2F, r1F, r12F, r22F, g1, g2)
        c = g2 * (8 * r12F**2 + 2 * r1F * r12F)
        d = -g2 * r12F**2
    except OverflowError:  # a float square overflowed: a coefficient is not finite
        a_hat = a_tilde = b = c = d = math.inf
    require_finite(p, F, "stability coefficient", (a_hat, a_tilde, b, c, d))
    return StabilityCoefficients(F=F, A_hat=a_hat, A_tilde=a_tilde, B=b, C=c, D=d)


def lambda_cubic(c: StabilityCoefficients, s: float) -> float:
    """Evaluate the stability cubic at s; physical modes live in [0, 4]."""
    if not 0.0 <= s <= 4.0:
        warnings.warn(f"stability cubic evaluated outside [0, 4] at s={s}", stacklevel=2)
    return c.A + c.B * s + c.C * s**2 + c.D * s**3


def _symbol(c: StabilityCoefficients, modes: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(s_k, lambda_F(s_k)) of the atomistic chain at wavenumbers ``modes``."""
    s = 4.0 * np.sin(modes * np.pi / (2 * N)) ** 2
    return s, c.A + c.B * s + c.C * s**2 + c.D * s**3


def _critical_points(c: StabilityCoefficients) -> list[float]:
    """Real roots of lambda_F'(s) = B + 2 C s + 3 D s^2: none, one or two."""
    scale = max(abs(c.B), abs(c.C), abs(c.D))
    if scale == 0:
        return []
    a, b, k = 3.0 * c.D / scale, 2.0 * c.C / scale, c.B / scale
    if a == 0:
        return [] if b == 0 else [-k / b]
    disc = b * b - 4.0 * a * k
    if disc < 0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))  # no cancellation
    return [q / a, k / q] if q != 0 else [0.0]


def _atomistic_min(c: StabilityCoefficients, N: int) -> float:
    """The minimum of lambda_F(s_k) over k = 1..N, the minimum of
    :func:`fourier_spectrum`.

    s_k grows with k, and lambda_F is monotone between its critical points,
    so the minimum lies at k = 1, at k = N or beside a critical point in
    (0, 4).  Those modes, with three more on each side of each critical
    point against rounding, are the only ones evaluated, by the arithmetic
    of the full spectrum, so the cost does not depend on N.
    """
    if N < 4:
        raise ValueError(f"need N >= 4, got {N}")
    modes = {1, N}
    for s in _critical_points(c):
        if 0 < s < 4:
            k = round(2 * N / math.pi * math.asin(math.sqrt(s) / 2))
            modes.update(range(max(k - 3, 1), min(k + 3, N) + 1))
    modes = np.array(sorted(modes))
    return float(np.min(_symbol(c, modes, N)[1]))


def fourier_spectrum(p: EAMPotential, F: float, N: int) -> SpectrumReport:
    """Exact atomistic eigenvalues with respect to the squared-strain metric."""
    if N < 4:
        raise ValueError(f"need N >= 4, got {N}")
    modes = np.arange(-N + 1, N + 1)
    s, lam = _symbol(coefficients(p, F), modes, N)
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


def _band_solver(ab_q: np.ndarray, shift: float = 0.0):
    """Cholesky solve of the matrix in LAPACK lower band storage ``ab_q``
    minus shift I, or None if it is not positive definite.  Factors a copy,
    so ``ab_q`` is not changed.  ``dpbtrf``/``dpbtrs`` are called on the
    module-level ``_flapack``, so the definiteness test and the solve run
    the same LAPACK as ``scipy.linalg.lapack`` without its import."""
    ab = ab_q.copy(order="F")
    ab[0] -= shift
    factor, info = _flapack.dpbtrf(ab, lower=1, overwrite_ab=1)
    if info > 0:
        return None
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpbtrf")
    return lambda b: _flapack.dpbtrs(factor, b, lower=1)[0]


def strain_solver(q: SymmetricBandedOperator):
    """Solve with the strain Hessian ``q`` by the method its form allows, or
    None if ``q`` is not positive definite; ``q`` is not changed.  A circulant
    far row with no core (the atomistic chain) is solved by FFT: mode k has
    eigenvalue a + s (b + c s + d s^2), s = 4 sin^2(k pi / n), a to d sums of
    the row's bands.  A diagonal far row is far[0] I off the core block (the
    coupled models): definite when far[0] > 0 and the block's Cholesky succeeds."""
    n, (q0, q1, q2, q3) = q.n, q.far
    if q.far[1:].any():
        a = q0 + 2 * (q1 + q2 + q3)
        s = 4.0 * np.sin(np.arange(n // 2 + 1) * np.pi / n) ** 2
        excess = s * (-(q1 + 4 * q2 + 9 * q3) + (q2 + 6 * q3) * s - q3 * s**2)
        if not np.all(a + excess > 0):
            return None
        # 1/lambda = 1/a - (lambda - a) / (lambda a): the FFT carries only
        # the second term, so its roundoff stays small on smooth strains
        excess /= (a + excess) * a
        return lambda b: b / a - np.fft.irfft(np.fft.rfft(b) * excess, n)
    core_solve = _band_solver(q.core_bands.T) if q0 > 0 and len(q.core) else np.copy
    if not q0 > 0 or core_solve is None:
        return None

    def solve(s: np.ndarray) -> np.ndarray:
        r = s / q0
        r[q.core] = core_solve(s[q.core])
        return r

    return solve


def _bisect(inside, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve [lo, hi] until it is at most tol wide, or its ends are adjacent
    floats, keeping ``inside(lo)`` true and ``inside(hi)`` false; returns
    the final (lo, hi)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo, hi


def lambda_min(model: ModelKind, region: RegionDecomposition, p: EAMPotential, F: float) -> float:
    """Smallest eigenvalue of H u = lambda L u on zero-mean displacements, at
    a cost that does not depend on N.

    The atomistic chain has it in closed form: the minimum of
    :func:`fourier_spectrum`.  A coupled model's lambda_min is the smallest
    eigenvalue of the strain Hessian Q on zero-sum strains.  Q is a core
    block plus A_F I on two or more rows, and the block has eigenvalue A_F
    on constants, so lambda_min is A_F unless a probe of the block's banded
    Cholesky a tolerance below A_F fails.  Then the smallest eigenvalue of
    the core block lies above its Gershgorin lower bound and at most its
    smallest diagonal entry and the probe: bisection on whether the shifted
    block factors (Sylvester inertia) closes that bracket, from just below
    the bound, to 1e-14 relative.
    """
    if model == ModelKind.ATOMISTIC:
        return _atomistic_min(coefficients(p, F), region.N)
    q = strain_hessian(model, region, p, F)
    a_f = coefficients(p, F).A
    found = _core_min_eig(q.core_bands.T, a_f - 1e-14 * max(1.0, abs(a_f))) if len(q.core) else None
    return a_f if found is None else found


def _core_min_eig(ab_q: np.ndarray, cap: float) -> float | None:
    """Smallest eigenvalue on zero-sum vectors of the core block in lower
    band storage ``ab_q``, by the bisection of :func:`lambda_min`; None if
    the block minus cap I is definite."""
    definite = lambda lam: _band_solver(ab_q, lam) is not None  # noqa: E731
    if definite(cap):
        return None
    # Gershgorin bound d - (row sum of |block| - |d|); the periodic wrap of
    # the band product adds the zero padding past the block's last row
    row_sums = _band_apply(np.abs(ab_q.T), np.ones(ab_q.shape[1]))
    bound = float(np.min(ab_q[0] + np.abs(ab_q[0]) - row_sums))
    scale = max(1.0, abs(bound), abs(cap))
    start = bound - 1e-8 * scale
    lo, hi = _bisect(definite, start, min(cap, float(np.min(ab_q[0]))), 1e-14 * scale)
    if lo == start and not definite(lo):  # checked only if bisection never moved lo
        raise ArithmeticError(f"core block is not definite below its Gershgorin bound {bound}")
    return 0.5 * (lo + hi)


def critical_strain(
    model: ModelKind,
    region: RegionDecomposition,
    p: EAMPotential,
    bracket,
    tol: float = 1e-10,
) -> float:
    """Bisect F to the strain where the chain stops being stable.

    ``bracket = (F_lo, F_hi)`` must hold a stable and an unstable end.  The
    atomistic chain is stable when the minimum of the stability cubic over
    the discrete modes is positive; a coupled model is stable when its
    strain Hessian Q is positive definite (lambda_min <= A_F, see
    :func:`lambda_min`): when A_F > 0 and the banded Cholesky of its
    core block succeeds (:func:`strain_solver`).  Each step costs the same
    at every N.  Deterministic; ``tol`` must be finite and positive.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"bisection tolerance must be finite and positive, got tol={tol}")
    f_lo, f_hi = float(bracket[0]), float(bracket[1])
    if not 0 < f_lo < f_hi < math.inf:
        raise BracketError(f"bad bracket ({f_lo}, {f_hi})")
    if model == ModelKind.ATOMISTIC:
        stable = lambda F: _atomistic_min(coefficients(p, F), region.N) > 0  # noqa: E731
    else:
        stable = lambda F: strain_solver(strain_hessian(model, region, p, F)) is not None  # noqa: E731
    lo_stable = stable(f_lo)
    if stable(f_hi) == lo_stable:
        state = "stable" if lo_stable else "unstable"
        raise BracketError(f"{model.value} chain is {state} at both F={f_lo} and F={f_hi}")
    f_lo, f_hi = _bisect(lambda F: stable(F) == lo_stable, f_lo, f_hi, tol)
    return 0.5 * (f_lo + f_hi)


def stability_key(model: ModelKind, region: RegionDecomposition) -> int | None:
    """What of ``region`` the uniform-state results of ``model`` depend on:
    N for the atomistic chain, K for QNL and nothing (None) for QCL.  At one
    potential, strain and bracket, two regions with equal keys give
    bitwise-equal :func:`critical_strain` and :func:`lambda_min`, because a
    coupled strain Hessian's core block and far row do not depend on N (and
    QCL's has no core), so a driver computes each once per key."""
    return {ModelKind.ATOMISTIC: region.N, ModelKind.QNL: region.K}.get(model)


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
    strain Hessian on Du; ValueError unless u lives on the grid of ``region``."""
    du = diff(u, 1)
    norm = norm_l2eps(du)
    if norm == 0.0:
        raise ValueError("Rayleigh quotient of a constant field is undefined")
    return strain_hessian(model, region, p, F).quadratic_form(du) / norm**2
