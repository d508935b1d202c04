"""Linearized equilibrium solves, consistency residuals, and rate studies.

The linearized equilibrium of a model under a periodic dead load f reads
``H u = f`` in the l2_eps pairing, with H the second variation at the
uniform state and u a zero-mean displacement (sign convention: the dead
load enters the total energy as ``-eps * sum f_l y_l``, so the leading
minus of the equilibrium equations cancels).  Solves run in strain space,
where the entries and the condition number of the strain Hessian Q
(H = D^T Q D) stay of order one at every N: integrating once gives the
stress S = -eps * cumsum(f), and r = Du solves ``Q r = S - mean S``, since
Q 1 = A_F 1 keeps zero-sum strains zero-sum.  One call of
:func:`~eamchain.stability.strain_solver` is both the solve and the definiteness check.

The modeling error of the coupled chain is driven by the stress difference
``sigma = (Q_qnl - Q_atomistic) r_atomistic``; the consistency residual is
``T = D^T sigma``, and its dual norm against ``||Dw||``, which bounds the
strain error through the stability constant, is ``||sigma - mean sigma||``.
The study harness sweeps chain sizes, records these quantities and fits
log-log slopes against the lattice spacing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import ChainGrid, PeriodicField, diff, norm_l2eps, norm_region
from .models import ModelKind, RegionDecomposition, strain_hessian
from .potentials import EAMPotential
from .stability import coefficients, lambda_min, strain_solver

__all__ = [
    "DeadLoad",
    "ConvergenceRecord",
    "NotPositiveDefiniteError",
    "SolveError",
    "cosine_load",
    "consistency_point",
    "convergence_study",
    "fixed_k_rule",
    "power_k_rule",
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
    """Periodic dead load: force per atom with zero mean, plus provenance."""

    field: PeriodicField
    source: str = ""

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
    runtime_ms: float
    a_modulus: float
    lambda_min_qnl: float

    def __post_init__(self) -> None:
        for name in ("error_H1", "consistency_negnorm", "D3_continuum", "D2_interface_max"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def cosine_load(grid: ChainGrid, frequency: int = 1, amplitude: float = 1.0) -> DeadLoad:
    """Smooth mirror-symmetric default load f(x) = amplitude * cos(2 pi q x)."""
    x = grid.positions()
    vals = amplitude * np.cos(2.0 * np.pi * frequency * x)
    vals -= vals.mean()
    vals -= vals.mean()
    return DeadLoad(
        PeriodicField(grid, vals, "generic"),
        source=f"{amplitude:g}*cos(2*pi*{frequency}*x) sampled at x_l = eps*l",
    )


def _strain_solution(
    model: ModelKind,
    region: RegionDecomposition,
    p: EAMPotential,
    F: float,
    load: DeadLoad,
) -> np.ndarray:
    """Zero-sum strain r = Du of the linearized equilibrium under ``load``.

    Q is positive definite exactly when A_F > 0 and H is positive definite
    on zero-mean fields: NotPositiveDefiniteError if it is not, SolveError
    if the backward error ||Q r - S|| / (||Q|| ||r|| + ||S||), in infinity
    norms, exceeds RESIDUAL_RTOL.
    """
    grid = load.field.grid
    if region.N != grid.N:
        raise ValueError("region and load live on different sizes")
    q = strain_hessian(model, region, p, F)
    solve = strain_solver(model, region, p, F)
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
    """Interface diagnostic window {-(K+7)..-K} u {K..K+7} (16 sites), over
    which the consistency bound takes max |D^2 u|; wider than the four
    transition atoms +-(K+1), +-(K+2)."""
    K = region.K
    return list(range(-(K + 7), -K + 1)) + list(range(K, K + 8))


def fixed_k_rule(K: int) -> Callable[[int], int]:
    return lambda N: K


def power_k_rule(theta: float) -> Callable[[int], int]:
    return lambda N: int(np.floor(N**theta))


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
) -> tuple[PeriodicField, float, float, float]:
    """Atomistic side of one study point: (r_a, negnorm, D3_C, D2_I_max).

    r_a = D u_a is the atomistic strain under ``load``; negnorm is the
    negative norm ``||sigma - mean sigma||`` of its consistency residual;
    D3_C is the l2_eps norm of D^3 u_a = D^2 r_a over the continuum sites and
    D2_I_max the largest |D^2 u_a| = |D r_a| over the interface window.
    """
    grid = load.field.grid
    r_a = PeriodicField(grid, _strain_solution(ModelKind.ATOMISTIC, region, p, F, load), "strain")
    sigma = strain_hessian(ModelKind.QNL, region, p, F).apply(r_a.values)
    sigma -= strain_hessian(ModelKind.ATOMISTIC, region, p, F).apply(r_a.values)
    negnorm = norm_l2eps(PeriodicField(grid, sigma - sigma.mean()))
    d3 = norm_region(diff(r_a, 2), continuum_norm_sites(region), "l2")
    d2max = norm_region(diff(r_a, 1), interface_window_sites(region), "max")
    return r_a, negnorm, d3, d2max


def convergence_study(
    p: EAMPotential,
    F: float,
    load_generator: Callable[[ChainGrid], DeadLoad],
    k_rule: Callable[[int], int],
    n_list: Sequence[int],
):
    """Sweep chain sizes, solving both models and recording error and
    consistency quantities; returns (records, rates).

    ``rates`` holds the log-log slopes of the strain error and of the
    residual negative norm against eps, fitted over all points and over the
    tail (coarsest point excluded, the reported headline number).  The
    strain error is ||r_a - r_qnl|| of two strain solves.  lambda_min of
    the coupled operator is recorded beside the continuum modulus A_F: it
    is A_F whenever the core block of the QNL strain Hessian has no smaller
    eigenvalue on zero-sum core strains.
    """
    records: list[ConvergenceRecord] = []
    for n in n_list:
        start = time.perf_counter()
        grid = ChainGrid(n)
        region = RegionDecomposition(n, k_rule(n))
        load = load_generator(grid)
        r_a, negnorm, d3, d2max = consistency_point(region, p, F, load)
        err = norm_l2eps(r_a - PeriodicField(grid, _strain_solution(ModelKind.QNL, region, p, F, load)))
        lam_min = lambda_min(ModelKind.QNL, region, p, F)
        runtime_ms = (time.perf_counter() - start) * 1e3
        records.append(
            ConvergenceRecord(
                N=n,
                K=region.K,
                epsilon=grid.epsilon,
                error_H1=err,
                consistency_negnorm=negnorm,
                D3_continuum=d3,
                D2_interface_max=d2max,
                runtime_ms=runtime_ms,
                a_modulus=coefficients(p, F).A,
                lambda_min_qnl=lam_min,
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
