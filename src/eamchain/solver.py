"""Linearized equilibrium solves, consistency residuals, and rate studies.

The linearized equilibrium of a model under a periodic dead load f reads
``H u = f`` in the l2_eps pairing, with H the second variation at the
uniform state and u a zero-mean displacement (sign convention: the dead
load enters the total energy as ``-eps * sum f_l y_l``, so the leading
minus of the equilibrium equations cancels).  Solves run in strain space,
where the entries and the condition number of the strain Hessian Q
(H = D^T Q D) stay of order one at every N: integrating once gives the
stress S = -eps * cumsum(f), and r = Du solves ``Q r = S - mean S``, since
Q 1 = A_F 1 keeps zero-sum strains zero-sum.  The caller builds Q and passes
it on: :func:`~eamchain.stability.strain_solver` on it is both the solve and
the definiteness check, and the residual check applies the same Q.

The modeling error of the coupled chain is driven by the stress difference
``sigma = (Q_qnl - Q_atomistic) r_atomistic``; the consistency residual is
``T = D^T sigma``, and its dual norm against ``||Dw||``, which bounds the
strain error through the stability constant, is ``||sigma - mean sigma||``.
The rate study sweeps a sequence of regions (N, K) under the cosine load,
records these quantities and fits log-log slopes against the lattice spacing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import ChainGrid, PeriodicField, diff, norm_l2eps, norm_region
from .models import ModelKind, RegionDecomposition, SymmetricBandedOperator, strain_hessian
from .potentials import EAMPotential
from .stability import coefficients, lambda_min, stability_key, strain_solver

__all__ = [
    "DeadLoad",
    "ConvergenceRecord",
    "NotPositiveDefiniteError",
    "SolveError",
    "cosine_load",
    "consistency_point",
    "convergence_study",
    "continuum_norm_sites",
    "interface_window_sites",
    "fit_loglog_slope",
]

LOAD_MEAN_RTOL = 1e-14
#: Limit on the normwise backward error ||Q r - S|| / (||Q|| ||r|| + ||S||)
#: of a strain solve, in infinity norms.
RESIDUAL_RTOL = 1e-14


class NotPositiveDefiniteError(RuntimeError):
    """The operator is not positive definite on zero-mean displacements."""


class SolveError(RuntimeError):
    """A strain solve failed its backward-error check."""


@dataclass(frozen=True)
class DeadLoad:
    """Periodic dead load: force per atom with zero mean."""

    field: PeriodicField

    def __post_init__(self) -> None:
        vals = self.field.values
        scale = float(np.max(np.abs(vals))) if vals.size else 0.0
        if scale > 0 and abs(float(np.mean(vals))) > LOAD_MEAN_RTOL * scale:
            raise ValueError("dead load must have zero mean (solvability on U)")


@dataclass(frozen=True)
class ConvergenceRecord:
    """One row of a rate study."""

    N: int
    K: int
    epsilon: float
    error_H1: float
    consistency_negnorm: float
    D3_continuum: float
    D2_interface_max: float
    a_modulus: float
    lambda_min_qnl: float

    def __post_init__(self) -> None:
        for name in ("error_H1", "consistency_negnorm", "D3_continuum", "D2_interface_max"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def cosine_load(grid: ChainGrid, frequency: int = 1) -> DeadLoad:
    """Smooth mirror-symmetric default load f(x) = cos(2 pi q x), sampled at
    x_l = eps*l."""
    x = grid.positions()
    vals = np.cos(2.0 * np.pi * frequency * x)
    vals -= vals.mean()
    vals -= vals.mean()
    return DeadLoad(PeriodicField(grid, vals, "generic"))


def _strain_solution(
    q: SymmetricBandedOperator,
    model: ModelKind,
    p: EAMPotential,
    F: float,
    load: DeadLoad,
) -> np.ndarray:
    """Zero-sum strain r = Du of the linearized equilibrium under ``load``,
    solved and checked with ``q``, the strain Hessian Q of ``model`` at y_F.
    Q is positive definite exactly when A_F > 0 and H is positive definite
    on zero-mean fields: NotPositiveDefiniteError if it is not, SolveError
    if the backward error ||Q r - S|| / (||Q|| ||r|| + ||S||), in infinity
    norms, exceeds RESIDUAL_RTOL.
    """
    grid = load.field.grid
    if q.n != grid.period_atoms:
        raise ValueError("region and load live on different sizes")
    solve = strain_solver(q)
    if solve is None:
        raise NotPositiveDefiniteError(
            f"{model.value} solve at F={F}, N={grid.N}: the strain Hessian is not positive "
            f"definite (continuum modulus A_F={coefficients(p, F).A:.6e})"
        )
    s = -grid.epsilon * np.roll(np.cumsum(load.field.values), 1)
    s -= s.mean()
    r = solve(s)
    res = float(np.max(np.abs(q.apply(r) - s)))
    limit = RESIDUAL_RTOL * (q.norm_inf() * float(np.max(np.abs(r))) + float(np.max(np.abs(s))))
    if res > limit:
        raise SolveError(
            f"{model.value} solve at F={F}, N={grid.N}: residual {res:.3e} exceeds "
            f"{RESIDUAL_RTOL:.0e} * (||Q|| ||r|| + ||S||) = {limit:.3e} (infinity norms)"
        )
    return r


def continuum_norm_sites(region: RegionDecomposition) -> np.ndarray:
    """Sites {-N+1..-(K+1)} u {K+1..N} entering the consistency bound."""
    N, K = region.N, region.K
    return np.concatenate([np.arange(-N + 1, -K), np.arange(K + 1, N + 1)])


def interface_window_sites(region: RegionDecomposition) -> list[int]:
    """Interface diagnostic window {-(K+7)..-K} u {K..K+7}, over which the
    consistency bound takes max |D^2 u|; wider than the four transition atoms
    +-(K+1), +-(K+2).  A set of site labels, taken modulo the period: 16
    distinct sites up to K = N-8, and for K > N-8 the window wraps the period
    and repeats sites (15 distinct at K = N-7, 13 at K = N-6), which leaves
    the maximum unchanged."""
    K = region.K
    return list(range(-(K + 7), -K + 1)) + list(range(K, K + 8))


def fit_loglog_slope(eps_values: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(eps); nan for fewer than
    two points or a value that is not positive."""
    x, y = np.asarray(eps_values, dtype=float), np.asarray(errors, dtype=float)
    if len(x) < 2 or not (np.all(x > 0) and np.all(y > 0)):
        return float("nan")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def consistency_point(
    region: RegionDecomposition,
    p: EAMPotential,
    F: float,
    load: DeadLoad,
) -> tuple[PeriodicField, float, float, float, SymmetricBandedOperator]:
    """Atomistic side of one study point: (r_a, negnorm, D3_C, D2_I_max, Q_qnl).

    r_a = D u_a is the atomistic strain under ``load``; negnorm is the
    negative norm ``||sigma - mean sigma||`` of its consistency residual
    sigma = (Q_qnl - Q_a) r_a; D3_C is the l2_eps norm of D^3 u_a = D^2 r_a
    on the continuum sites, D2_I_max the largest |D^2 u_a| = |D r_a| on the
    interface window.  ValueError if K >= N-5 (the CLI rejects it too).
    """
    if region.K >= region.N - 5:
        raise ValueError(f"need K < N-5 for a consistency point, got K={region.K}, N={region.N}")
    grid = load.field.grid
    q_a = strain_hessian(ModelKind.ATOMISTIC, region, p, F)
    q_qnl = strain_hessian(ModelKind.QNL, region, p, F)
    r_a = PeriodicField(grid, _strain_solution(q_a, ModelKind.ATOMISTIC, p, F, load), "strain")
    sigma = q_qnl.apply(r_a.values) - q_a.apply(r_a.values)
    negnorm = norm_l2eps(PeriodicField(grid, sigma - sigma.mean()))
    d3 = norm_region(diff(r_a, 2), continuum_norm_sites(region), "l2")
    d2max = norm_region(diff(r_a, 1), interface_window_sites(region), "max")
    return r_a, negnorm, d3, d2max, q_qnl


def convergence_study(p: EAMPotential, F: float, regions: Sequence[RegionDecomposition]):
    """Sweep the regions in order, solving both models under the cosine load
    of each region's grid and recording error and consistency quantities;
    returns (records, rates).

    ``rates`` holds the log-log slopes of the strain error and of the
    residual negative norm against eps, fitted over all points and over the
    tail (coarsest point excluded, the reported headline number).  The
    strain error is ||r_a - r_qnl|| of two strain solves.  lambda_min of
    the coupled operator, computed once per distinct K, is recorded beside
    the continuum modulus A_F: it is A_F whenever the core block of the QNL
    strain Hessian has no smaller eigenvalue on zero-sum core strains.
    """
    records: list[ConvergenceRecord] = []
    lam_min = {}  # per stability_key
    for region in regions:
        grid = ChainGrid(region.N)
        load = cosine_load(grid)
        r_a, negnorm, d3, d2max, q_qnl = consistency_point(region, p, F, load)
        r_qnl = _strain_solution(q_qnl, ModelKind.QNL, p, F, load)
        err = norm_l2eps(r_a - PeriodicField(grid, r_qnl))
        key = stability_key(ModelKind.QNL, region)
        if key not in lam_min:
            lam_min[key] = lambda_min(ModelKind.QNL, region, p, F)
        records.append(
            ConvergenceRecord(
                N=region.N,
                K=region.K,
                epsilon=grid.epsilon,
                error_H1=err,
                consistency_negnorm=negnorm,
                D3_continuum=d3,
                D2_interface_max=d2max,
                a_modulus=q_qnl.far[0],
                lambda_min_qnl=lam_min[key],
            )
        )
    eps = [r.epsilon for r in records]
    errs = [r.error_H1 for r in records]
    negs = [r.consistency_negnorm for r in records]
    rates = {
        "error_slope_all": fit_loglog_slope(eps, errs),
        "error_slope_tail": fit_loglog_slope(eps[1:], errs[1:]),
        "negnorm_slope_all": fit_loglog_slope(eps, negs),
        "negnorm_slope_tail": fit_loglog_slope(eps[1:], negs[1:]),
    }
    return records, rates
