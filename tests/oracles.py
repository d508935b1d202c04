"""Independent oracles the tests check the library against.

Everything here is deliberately written from the defining formulas, not by
calling the code paths under test: finite differences of energies, direct
summations, hand-assembled coupled pair energies, and dense linear algebra
on explicitly built matrices.  The exceptions are the site-space views
``hessian``, ``strain_metric_operator`` and ``solve_linearized``: the
library works in strain space only, so they are built from
``strain_hessian`` and ``_strain_solution``, and
``test_assembly::test_small_chain_hessians_match_loop_oracle`` checks
``hessian`` against ``D^T Q_loop D``.
"""

from functools import lru_cache

import numpy as np
import scipy.linalg

from eamchain.lattice import ChainGrid, PeriodicField, diff, displacement_from_strain, norm_l2eps
from eamchain.models import (
    Deformation,
    ModelKind,
    RegionDecomposition,
    SymmetricBandedOperator,
    energy,
    strain_hessian,
)
from eamchain.potentials import EAMPotential
from eamchain.solver import DeadLoad, _strain_solution

HALF = 0.5
STRAIN_HALF_BANDWIDTH = 3


# --------------------------------------------------------------------------
# Loop oracle of the term-table evaluators: per-site tuple tables and one
# chain-rule loop per quantity, visiting every term of every atom in site
# order.  A table is a list of density groups (weight, [(coeff, bonds), ...]);
# each density term also carries half a pair term at its argument.  Bond
# labels are site labels of strains.
# --------------------------------------------------------------------------


def _atom_table(l: int):
    """Exact nearest/next-nearest stencil centred at atom l."""
    return [(1.0, [(1.0, [l]), (1.0, [l, l - 1]), (1.0, [l + 1]), (1.0, [l + 1, l + 2])])]


def _continuum_table(l: int):
    """Cauchy-Born stencil: local densities on the two adjacent bonds."""
    return [
        (HALF, [(2.0, [l]), (2.0, [l, l])]),
        (HALF, [(2.0, [l + 1]), (2.0, [l + 1, l + 1])]),
    ]


def _transition_table(l: int):
    """Positive-side transition atom l (K+1 or K+2)."""
    return [
        (HALF, [(2.0, [l]), (2.0, [l, l - 1])]),
        (HALF, [(2.0, [l + 1]), (2.0, [l + 1, l + 1])]),
    ]


def _reflect(table):
    """Table of the mirror atom -l: bond b -> 1-b."""
    return [(w, [(c, [1 - b for b in bonds]) for c, bonds in terms]) for w, terms in table]


@lru_cache(maxsize=64)
def _loop_site_tables(kind: ModelKind, N: int, K: int):
    """Per-site term tables with bond labels resolved to array indices."""
    grid = ChainGrid(N)
    if kind == ModelKind.QNL:
        region = RegionDecomposition(N, K)

    resolved = []
    for l in range(-N + 1, N + 1):
        if kind == ModelKind.ATOMISTIC:
            table = _atom_table(l)
        elif kind == ModelKind.QCL:
            table = _continuum_table(l)
        else:
            tag = region.classify(l)
            if tag == "atomistic":
                table = _atom_table(l)
            elif tag == "quasi-nonlocal":
                table = _transition_table(l) if l > 0 else _reflect(_transition_table(-l))
            else:
                table = _continuum_table(l)
        resolved.append(
            tuple(
                (w, tuple((c, tuple(grid.index(b) for b in bonds)) for c, bonds in terms))
                for w, terms in table
            )
        )
    return tuple(resolved)


def _loop_tables(model: ModelKind, region: RegionDecomposition):
    return _loop_site_tables(model, region.N, region.K if model == ModelKind.QNL else -1)


def loop_energy(model, region, p, y: Deformation) -> float:
    """Interaction energy per period by the per-site loop."""
    tables = _loop_tables(model, region)
    r = y.strain()
    phi = p.pair.eval
    rho = p.density.eval
    G = p.embedding.eval
    total = 0.0
    for groups in tables:
        for w, terms in groups:
            dbar = 0.0
            for c, bonds in terms:
                arg = 0.0
                for b in bonds:
                    arg += r[b]
                dbar += c * rho(arg)
                total += HALF * phi(arg)
            total += w * G(dbar)
    return y.grid.epsilon * total


def loop_strain_gradient(model, region, p, r: np.ndarray) -> np.ndarray:
    """Per-bond derivative of the per-period energy sum (no eps factor)."""
    tables = _loop_tables(model, region)
    phi1 = p.pair.d1
    rho = p.density.eval
    rho1 = p.density.d1
    G1 = p.embedding.d1
    g = np.zeros_like(r)
    for groups in tables:
        for w, terms in groups:
            dbar = 0.0
            contribs = []
            for c, bonds in terms:
                arg = 0.0
                for b in bonds:
                    arg += r[b]
                dbar += c * rho(arg)
                contribs.append((c * rho1(arg), HALF * phi1(arg), bonds))
            wg1 = w * G1(dbar)
            for slope, pair_slope, bonds in contribs:
                total_slope = wg1 * slope + pair_slope
                for b in bonds:
                    g[b] += total_slope
    return g


def loop_strain_hessian_bands(model, region, p, r: np.ndarray) -> np.ndarray:
    """Strain-space Hessian of the per-period sum, upper bands 0..3."""
    tables = _loop_tables(model, region)
    n = len(r)
    phi2 = p.pair.d2
    rho = p.density.eval
    rho1 = p.density.d1
    rho2 = p.density.d2
    G1 = p.embedding.d1
    G2 = p.embedding.d2
    q = np.zeros((n, STRAIN_HALF_BANDWIDTH + 1))

    def add(m: int, k: int, val: float) -> None:
        d = (k - m) % n
        if d <= STRAIN_HALF_BANDWIDTH:
            q[m, d] += val
        elif n - d <= STRAIN_HALF_BANDWIDTH:
            q[k, n - d] += val
        else:
            raise AssertionError("bond coupling beyond strain bandwidth")

    for groups in tables:
        for w, terms in groups:
            dbar = 0.0
            lin: dict[int, float] = {}
            curv = []
            for c, bonds in terms:
                arg = 0.0
                for b in bonds:
                    arg += r[b]
                dbar += c * rho(arg)
                slope = c * rho1(arg)
                for b in bonds:
                    lin[b] = lin.get(b, 0.0) + slope
                curv.append((c * rho2(arg), HALF * phi2(arg), bonds))
            wg1 = w * G1(dbar)
            wg2 = w * G2(dbar)
            # G'' (ddbar/dr_m)(ddbar/dr_k) over unordered bond pairs
            items = sorted(lin.items())
            for i, (m, sm) in enumerate(items):
                add(m, m, wg2 * sm * sm)
                for k, sk in items[i + 1 :]:
                    add(m, k, wg2 * sm * sk)
            # G' rho'' + phi''/2: second derivative of each term in its argument
            for c2, pair2, bonds in curv:
                val = wg1 * c2 + pair2
                counts: dict[int, int] = {}
                for b in bonds:
                    counts[b] = counts.get(b, 0) + 1
                citems = sorted(counts.items())
                for i, (m, cm) in enumerate(citems):
                    add(m, m, val * cm * cm)
                    for k, ck in citems[i + 1 :]:
                        add(m, k, val * cm * ck)
    return q


# --------------------------------------------------------------------------
# Site-space views of the strain-space library: the site Hessian
# H = D^T Q D, the strain metric L with <Lu, u> = ||Du||^2 and the
# displacement solve, as the dense eigenvalue, negative-norm and solve
# oracles use them.
# --------------------------------------------------------------------------

#: Displacements couple over at most four sites, one more than strains.
SITE_HALF_BANDWIDTH = 4


def _site_bands_from_strain_bands(grid: ChainGrid, q: np.ndarray) -> np.ndarray:
    """Convert a strain-space band matrix Q into site space: H = D^T Q D."""
    n = grid.period_atoms
    eps2 = grid.epsilon**2
    w = STRAIN_HALF_BANDWIDTH
    # band d of Q as a contiguous row; column k holds Q[(k - w) % n, (k - w) % n + d]
    padded = np.concatenate([q[-w:], q, q[: w + 1]]).T.copy()

    def qoff(shift: int, d: int) -> np.ndarray:
        # Q[m+shift, m+shift+d] as a vector over m, allowing negative d.
        if abs(d) > w:
            return 0.0
        start = w + shift + min(d, 0)
        return padded[abs(d), start : start + n]

    bands = np.empty((SITE_HALF_BANDWIDTH + 1, n))
    for j in range(SITE_HALF_BANDWIDTH + 1):
        bands[j] = (qoff(0, j) - qoff(0, j + 1) - qoff(1, j - 1) + qoff(1, j)) / eps2
    return bands.T


def hessian(
    model: ModelKind,
    region: RegionDecomposition,
    p: EAMPotential,
    F: float,
) -> SymmetricBandedOperator:
    """Site-space second variation D^T Q D at y_F of :func:`strain_hessian`;
    it annihilates constants and its rows are circulant deep inside the
    atomistic and continuum regions."""
    q = strain_hessian(model, region, p, F)
    q_bands = np.empty((q.n, len(q.far)))
    q_bands[:] = q.far
    q_bands[q.core] = q.core_bands
    bands = _site_bands_from_strain_bands(ChainGrid(region.N), q_bands)
    return SymmetricBandedOperator(q.n, np.arange(q.n), bands, np.zeros(SITE_HALF_BANDWIDTH + 1))


def strain_metric_operator(grid: ChainGrid) -> SymmetricBandedOperator:
    """Operator L with <Lu, u> = ||Du||^2 in the l2_eps pairing: the far row
    ``[2, -1, 0, 0, 0] / eps^2`` on every row."""
    far = np.array([2.0, -1.0, 0.0, 0.0, 0.0]) / grid.epsilon**2
    return SymmetricBandedOperator(grid.period_atoms, np.arange(0), np.zeros((0, 5)), far)


def solve_linearized(
    model: ModelKind,
    region: RegionDecomposition,
    p: EAMPotential,
    F: float,
    load: DeadLoad,
) -> PeriodicField:
    """Zero-mean displacement u with <H u, w> = <f, w> for all zero-mean w,
    integrated from the strain solve; raises NotPositiveDefiniteError when
    the model is unstable at (F, N) and SolveError when the strain solve
    fails its backward-error check."""
    q = strain_hessian(model, region, p, F)
    return displacement_from_strain(load.field.grid, _strain_solution(q, model, p, F, load))


@lru_cache(maxsize=32)
def zero_mean_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the zero-mean subspace as the columns of an
    n x (n-1) matrix: the last columns of the fixed Householder reflection
    that maps e_0 to the unit constant vector (deterministic)."""
    v = np.full(n, -1.0 / np.sqrt(n))
    v[0] += 1.0
    basis = (np.eye(n) - 2.0 * np.outer(v, v) / np.dot(v, v))[:, 1:]
    basis.flags.writeable = False
    return basis


def fd_directional_derivative(model, region, p, F, u, w, h=1e-5):
    """Central difference of the energy along direction w."""
    e_plus = energy(model, region, p, Deformation(F, u + h * w))
    e_minus = energy(model, region, p, Deformation(F, u + (-h) * w))
    return (e_plus - e_minus) / (2.0 * h)


def fd_gradient_of_gradient(gradient_fn, grid, w, h=1e-5):
    """Central difference of a gradient map along direction w (site array)."""
    g_plus = gradient_fn(PeriodicField.displacement(grid, h * w.values))
    g_minus = gradient_fn(PeriodicField.displacement(grid, -h * w.values))
    return (g_plus.values - g_minus.values) / (2.0 * h)


def region_norm_bruteforce(v: PeriodicField, sites) -> float:
    """Direct summation of the restricted l2_eps norm."""
    total = 0.0
    for l in sites:
        total += v[l] ** 2
    return np.sqrt(v.grid.epsilon * total)


def qnl_pair_energy_by_hand(phi, region: RegionDecomposition, y: Deformation) -> float:
    """Coupled pair energy assembled directly from the per-atom formulas.

    Atomistic atoms carry half-weighted exact neighbor terms, the two
    transition atoms per side mix exact inner terms with locally uniform
    outer terms, and continuum atoms are fully local; the negative side
    mirrors the positive one.
    """
    g = y.grid
    N, K = region.N, region.K
    r = y.strain()

    def s(l):
        return r[g.index(l)]

    total = 0.0
    for l in range(-K, K + 1):
        total += 0.5 * (phi(s(l)) + phi(s(l) + s(l - 1)) + phi(s(l + 1)) + phi(s(l + 1) + s(l + 2)))
    total += 0.5 * (phi(s(K + 1)) + phi(s(K + 2)) + phi(s(K + 1) + s(K)) + phi(2 * s(K + 2)))
    total += 0.5 * (phi(s(K + 2)) + phi(s(K + 3)) + phi(s(K + 2) + s(K + 1)) + phi(2 * s(K + 3)))
    total += 0.5 * (phi(s(-K)) + phi(s(-K - 1)) + phi(s(-K) + s(-K + 1)) + phi(2 * s(-K - 1)))
    total += 0.5 * (phi(s(-K - 1)) + phi(s(-K - 2)) + phi(s(-K - 1) + s(-K)) + phi(2 * s(-K - 2)))
    for l in list(range(K + 3, N + 1)) + list(range(-N + 1, -K - 2)):
        total += 0.5 * (phi(s(l)) + phi(2 * s(l)) + phi(s(l + 1)) + phi(2 * s(l + 1)))
    return g.epsilon * total


def dense_generalized_eigenvalues(h_dense: np.ndarray, l_dense: np.ndarray) -> np.ndarray:
    """Eigenvalues of H u = lambda L u on the zero-mean subspace, ascending."""
    n = h_dense.shape[0]
    basis = np.asarray(zero_mean_basis(n))
    return scipy.linalg.eigh(basis.T @ h_dense @ basis, basis.T @ l_dense @ basis, eigvals_only=True)


def dense_core_min_eig(region: RegionDecomposition, p, F: float) -> float:
    """Smallest eigenvalue, on zero-sum vectors, of the QNL strain Hessian's
    core block at y_F: the principal submatrix on bonds -K-1 .. K+2 of the
    dense loop-oracle Q, by a dense symmetric eigensolver."""
    grid = ChainGrid(region.N)
    n = grid.period_atoms
    bands = loop_strain_hessian_bands(ModelKind.QNL, region, p, np.full(n, F))
    q = np.zeros((n, n))
    rows = np.arange(n)
    for d in range(bands.shape[1]):
        q[rows, (rows + d) % n] += bands[:, d]
        if d:
            q[(rows + d) % n, rows] += bands[:, d]
    core = [grid.index(b) for b in range(-region.K - 1, region.K + 3)]
    block = q[np.ix_(core, core)]
    basis = np.asarray(zero_mean_basis(len(core)))
    return float(scipy.linalg.eigh(basis.T @ block @ basis, eigvals_only=True)[0])


def loop_atomistic_min(c, N: int) -> float:
    """Minimum of the stability cubic lambda_F(s_k) = A + B s + C s^2 + D s^3,
    s_k = 4 sin^2(k pi / 2N), over every mode k = 1..N, by an explicit loop.

    The values are formed for all modes at once in the spectrum's own order
    of operations: numpy's array power and libm's scalar power round s^3
    differently, so a per-mode scalar evaluation would not reproduce the
    spectrum's bits.
    """
    k = np.arange(1, N + 1)
    s = 4.0 * np.sin(k * np.pi / (2 * N)) ** 2
    lam = c.A + c.B * s + c.C * s**2 + c.D * s**3
    best = float(lam[0])
    for i in range(1, N):
        if lam[i] < best:
            best = float(lam[i])
    return best


def dual_norm_by_maximization(t: PeriodicField, l_dense: np.ndarray) -> float:
    """max <T, w>/||Dw|| over the zero-mean subspace via the rank-one pencil."""
    grid = t.grid
    n = grid.period_atoms
    basis = np.asarray(zero_mean_basis(n))
    t_proj = basis.T @ t.values
    l_proj = basis.T @ l_dense @ basis
    vals = scipy.linalg.eigh(np.outer(t_proj, t_proj), l_proj, eigvals_only=True)
    return float(np.sqrt(grid.epsilon * max(vals[-1], 0.0)))


def consistency_residual(region: RegionDecomposition, p, F: float, u_a: PeriodicField) -> PeriodicField:
    """Action difference T = (H_qnl - H_atomistic) u_a = D^T sigma of the
    two second variations on the atomistic solution, with the stress
    difference sigma = (Q_qnl - Q_atomistic) D u_a.  Vanishes identically
    wherever the coupled and exact stencils agree, so T is supported in the
    continuum and near the interface.
    """
    if u_a.kind != "displacement":
        raise ValueError("consistency residual needs a zero-mean displacement")
    grid = u_a.grid
    if region.N != grid.N:
        raise ValueError("region and field live on different sizes")
    r_a = diff(u_a, 1).values
    sigma = strain_hessian(ModelKind.QNL, region, p, F).apply(r_a)
    sigma -= strain_hessian(ModelKind.ATOMISTIC, region, p, F).apply(r_a)
    return PeriodicField(grid, (sigma - np.roll(sigma, -1)) / grid.epsilon, "residual")


def negative_norm(t: PeriodicField) -> float:
    """Dual norm sup_w <T, w> / ||Dw|| over zero-mean displacements.

    Summation by parts pairs the antiderivative S = eps * cumsum(T) with
    Dw, which ranges over all zero-mean strains, so the norm is the l2_eps
    norm of S with its mean removed ("integrate once").  The residual must
    be zero-mean up to roundoff (assembled residuals carry cancellation
    noise of order machine epsilon times their largest entry); the mean is
    then projected out, which the dual pairing cannot see anyway.
    """
    vals = t.values
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    if scale == 0.0:
        return 0.0
    if abs(float(np.mean(vals))) > 1e-10 * scale:
        raise ValueError("negative norm needs a zero-mean residual")
    vals = vals - vals.mean()
    grid = t.grid
    return norm_l2eps(PeriodicField.displacement(grid, grid.epsilon * np.cumsum(vals)))


def loglog_slope(x, y) -> float:
    return float(np.polyfit(np.log(np.asarray(x, float)), np.log(np.asarray(y, float)), 1)[0])
