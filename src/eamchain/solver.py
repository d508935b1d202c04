"""Linearized equilibrium solves, consistency residuals, and rate studies.

The linearized equilibrium of a model under a periodic dead load f reads
``H u = f`` in the l2_eps pairing, with H the second variation at the
uniform state and u a zero-mean displacement (sign convention: the dead
load enters the total energy as ``-eps * sum f_l y_l``, so the leading
minus of the equilibrium equations cancels).  The modeling error of the
coupled chain is driven by the consistency residual

    T = (H_qnl - H_atomistic) u_atomistic,

whose dual (negative) norm against the ``||Dw||`` metric bounds the strain
error through the stability constant.  The study harness sweeps chain
sizes, records the strain error, the residual's negative norm, and the
smoothness quantities entering the consistency bound, and fits log-log
slopes against the lattice spacing.

Solves are pinned-site banded Cholesky factorizations in O(N), which double
as the definiteness check; the zero-mean solution is the pinned one with its
mean removed.  One step of iterative refinement keeps residuals at roundoff
level, and repeated solves are bitwise identical.  The negative norm needs
no solve at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import ChainGrid, PeriodicField, diff, norm_l2eps, norm_region
from .models import ModelKind, RegionDecomposition, hessian
from .potentials import EAMPotential
from .stability import coefficients, min_eig_numeric

__all__ = [
    "DeadLoad",
    "ConvergenceRecord",
    "NotPositiveDefiniteError",
    "SolveError",
    "cosine_load",
    "solve_linearized",
    "consistency_residual",
    "negative_norm",
    "consistency_point",
    "convergence_study",
    "fixed_k_rule",
    "power_k_rule",
    "continuum_norm_sites",
    "interface_window_sites",
    "fit_loglog_slope",
]

LOAD_MEAN_RTOL = 1e-14
#: Limit on the normwise backward error ||Hu - f|| / (||H|| ||u|| + ||f||) of
#: a solve, in infinity norms.
RESIDUAL_RTOL = 1e-14
#: Limit on |mean T| / (||H||_inf max|u|) of a consistency residual T.
RESIDUAL_MEAN_RTOL = 1e-12


class NotPositiveDefiniteError(RuntimeError):
    """The operator is not positive definite on zero-mean displacements."""


class SolveError(RuntimeError):
    """A solve or an operator residual failed its roundoff check."""


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


def solve_linearized(
    model: ModelKind,
    region: RegionDecomposition,
    p: EAMPotential,
    F: float,
    load: DeadLoad,
) -> PeriodicField:
    """Zero-mean displacement u with <H u, w> = <f, w> for all zero-mean w.

    Raises NotPositiveDefiniteError when the model is unstable at (F, N)
    (the definiteness check is the Cholesky factorization itself, backed by
    a coefficient-level check of the continuum modulus), and SolveError if
    the normwise backward error ||Hu - f|| / (||H|| ||u|| + ||f||), in
    infinity norms, exceeds RESIDUAL_RTOL.  A correct solve stays near
    machine epsilon at every N, while ||Hu - f|| / ||f|| grows with the
    condition number of H, which grows like N^2.
    """
    grid = load.field.grid
    if region.N != grid.N:
        raise ValueError("region and load live on different sizes")
    coeff = coefficients(p, F)
    if coeff.A <= 0:
        raise NotPositiveDefiniteError(
            f"continuum modulus A_F={coeff.A:.6e} <= 0 at F={F}; "
            "the linearized problem is unstable for every coupling"
        )
    h_op = hessian(model, region, p, F)
    solve = h_op.pinned_solver()
    if solve is None:
        raise NotPositiveDefiniteError(
            f"{model.value} solve at F={F}, N={grid.N}: not positive definite on zero-mean fields"
        )
    f = load.field.values
    u = solve(f)
    # drop the residual's mean (row-sum roundoff), or it piles up in the pinned row
    r = f - h_op.apply(u)
    u = u + solve(r - r.mean())
    u -= u.mean()
    res = float(np.max(np.abs(h_op.apply(u) - f)))
    limit = RESIDUAL_RTOL * (h_op.norm_inf() * float(np.max(np.abs(u))) + float(np.max(np.abs(f))))
    if res > limit:
        raise SolveError(
            f"{model.value} solve at F={F}, N={grid.N}: residual {res:.3e} exceeds "
            f"{RESIDUAL_RTOL:.0e} * (||H|| ||u|| + ||f||) = {limit:.3e} (infinity norms)"
        )
    return PeriodicField.displacement(grid, u)


def consistency_residual(
    region: RegionDecomposition,
    p: EAMPotential,
    F: float,
    u_a: PeriodicField,
) -> PeriodicField:
    """Action difference T = (H_qnl - H_atomistic) u_a of the two second
    variations on the atomistic solution.

    Vanishes identically wherever the coupled and exact stencils agree, so
    T is supported in the continuum and near the interface.  Both operators
    annihilate constants, so T has zero mean up to the roundoff of its
    operands: a mean above RESIDUAL_MEAN_RTOL * ||H_atomistic|| * max|u_a|
    raises SolveError.  T is returned as assembled, exact zeros included.
    """
    if u_a.kind != "displacement":
        raise ValueError("consistency residual needs a zero-mean displacement")
    grid = u_a.grid
    if region.N != grid.N:
        raise ValueError("region and field live on different sizes")
    h_qnl = hessian(ModelKind.QNL, region, p, F)
    h_atom = hessian(ModelKind.ATOMISTIC, region, p, F)
    vals = h_qnl.apply(u_a.values) - h_atom.apply(u_a.values)
    mean = float(np.mean(vals))
    limit = RESIDUAL_MEAN_RTOL * h_atom.norm_inf() * float(np.max(np.abs(u_a.values)))
    if abs(mean) > limit:
        raise SolveError(
            f"consistency residual at F={F}, N={grid.N}: mean {mean:.3e} exceeds "
            f"{RESIDUAL_MEAN_RTOL:.0e} * ||H|| max|u| = {limit:.3e}"
        )
    return PeriodicField(grid, vals, "residual")


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
    vals -= vals.mean()
    grid = t.grid
    return norm_l2eps(PeriodicField.displacement(grid, grid.epsilon * np.cumsum(vals)))


def continuum_norm_sites(region: RegionDecomposition) -> list[int]:
    """Sites {-N+1..-(K+1)} u {K+1..N} entering the consistency bound."""
    N, K = region.N, region.K
    return list(range(-N + 1, -K)) + list(range(K + 1, N + 1))


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
    """Least-squares slope of log(error) against log(eps)."""
    x = np.log(np.asarray(eps_values, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def consistency_point(
    region: RegionDecomposition,
    p: EAMPotential,
    F: float,
    load: DeadLoad,
) -> tuple[PeriodicField, float, float, float]:
    """Atomistic side of one study point: (u_a, negnorm, D3_C, D2_I_max).

    u_a solves the atomistic chain under ``load``; negnorm is the negative
    norm of its consistency residual; D3_C is the l2_eps norm of D^3 u_a over
    the continuum sites and D2_I_max the largest |D^2 u_a| over the
    interface window, the two smoothness terms of the consistency bound.
    """
    u_a = solve_linearized(ModelKind.ATOMISTIC, region, p, F, load)
    t = consistency_residual(region, p, F, u_a).values
    # its mean is roundoff of the two large operator actions (checked there),
    # which can exceed negative_norm's limit relative to max|T| at large N
    negnorm = negative_norm(PeriodicField(u_a.grid, t - t.mean(), "residual"))
    d3 = norm_region(diff(u_a, 3), continuum_norm_sites(region), "l2")
    d2max = norm_region(diff(u_a, 2), interface_window_sites(region), "max")
    return u_a, negnorm, d3, d2max


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
    tail (coarsest point excluded, the reported headline number).
    Study points are independent; lambda_min of the coupled operator is
    recorded alongside the continuum modulus because the two coincide only
    asymptotically.
    """
    records: list[ConvergenceRecord] = []
    for n in n_list:
        start = time.perf_counter()
        grid = ChainGrid(n)
        region = RegionDecomposition(n, k_rule(n))
        load = load_generator(grid)
        u_a, negnorm, d3, d2max = consistency_point(region, p, F, load)
        u_qnl = solve_linearized(ModelKind.QNL, region, p, F, load)
        err = norm_l2eps(diff(u_a, 1) - diff(u_qnl, 1))
        lam_min = min_eig_numeric(ModelKind.QNL, region, p, F, n)[0]
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

    def slope(x, y):
        return fit_loglog_slope(x, y) if len(x) >= 2 else float("nan")

    rates = {
        "error_slope_all": slope(eps, errs),
        "error_slope_tail": slope(eps[1:], errs[1:]),
        "negnorm_slope_all": slope(eps, negs),
        "negnorm_slope_tail": slope(eps[1:], negs[1:]),
    }
    return records, rates
