"""Independent oracles the tests check the library against.

Everything here is deliberately written from the defining formulas, not by
calling the code paths under test: finite differences of energies, direct
summations, hand-assembled coupled pair energies, and dense linear algebra
on explicitly built matrices.
"""

from functools import lru_cache

import numpy as np
import scipy.linalg

from eamchain.lattice import PeriodicField
from eamchain.models import Deformation, RegionDecomposition, energy


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


def electron_density_resum(p, y: Deformation, site: int) -> float:
    """Four-term exact density by direct lookup, no shared helpers."""
    g = y.grid
    eps = g.epsilon
    uvals = y.displacement.values

    def strain(l):
        return y.F + (uvals[g.index(l)] - uvals[g.index(l - 1)]) / eps

    rho = p.density.eval
    return (
        rho(strain(site))
        + rho(strain(site) + strain(site - 1))
        + rho(strain(site + 1))
        + rho(strain(site + 1) + strain(site + 2))
    )


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


def dual_norm_by_maximization(t: PeriodicField, l_dense: np.ndarray) -> float:
    """max <T, w>/||Dw|| over the zero-mean subspace via the rank-one pencil."""
    grid = t.grid
    n = grid.period_atoms
    basis = np.asarray(zero_mean_basis(n))
    t_proj = basis.T @ t.values
    l_proj = basis.T @ l_dense @ basis
    vals = scipy.linalg.eigh(np.outer(t_proj, t_proj), l_proj, eigvals_only=True)
    return float(np.sqrt(grid.epsilon * max(vals[-1], 0.0)))


def loglog_slope(x, y) -> float:
    return float(np.polyfit(np.log(np.asarray(x, float)), np.log(np.asarray(y, float)), 1)[0])
