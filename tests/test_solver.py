"""Linearized solves, consistency residual, negative norm, rate studies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eamchain.lattice import (
    ChainGrid,
    PeriodicField,
    diff,
    displacement_from_strain,
    norm_l2eps,
    norm_region,
)
from eamchain.models import ModelKind, RegionDecomposition
from eamchain.potentials import shipped_potential
from eamchain.solver import (
    DeadLoad,
    NotPositiveDefiniteError,
    SolveError,
    consistency_point,
    continuum_norm_sites,
    convergence_study,
    cosine_load,
    fit_loglog_slope,
    interface_window_sites,
)
from eamchain.stability import coefficients, lambda_min, strain_solver

from conftest import random_displacement
from oracles import (
    consistency_residual,
    dual_norm_by_maximization,
    hessian,
    loglog_slope,
    negative_norm,
    solve_linearized,
    strain_metric_operator,
)

POTENTIALS = {name: shipped_potential(name) for name in ("default-eam", "reversal-eam", "pair-morse")}


def test_dead_load_zero_mean_required():
    grid = ChainGrid(8)
    with pytest.raises(ValueError):
        DeadLoad(PeriodicField(grid, np.ones(16)))
    load = cosine_load(grid)
    assert abs(load.field.values.mean()) <= 1e-14


def test_solve_zero_load(default_p):
    grid = ChainGrid(16)
    region = RegionDecomposition(16, 4)
    load = DeadLoad(PeriodicField.zeros(grid))
    u = solve_linearized(ModelKind.ATOMISTIC, region, default_p, 1.0, load)
    assert np.max(np.abs(u.values)) == 0.0


@pytest.mark.parametrize("n", [64, 4096])
def test_corrupted_solve_raises_solve_error(default_p, monkeypatch, n):
    # a solve off by 1e-6 of its size in a random zero-mean direction has a
    # backward error far above RESIDUAL_RTOL; the exact one passes
    grid = ChainGrid(n)
    region = RegionDecomposition(n, 8)
    load = cosine_load(grid)
    for model in ModelKind:
        solve_linearized(model, region, default_p, 1.0, load)
    noise = np.random.default_rng(5).standard_normal(grid.period_atoms)
    noise -= noise.mean()

    def corrupted(*args):
        solve = strain_solver(*args)

        def solve_with_error(b):
            x = solve(b)
            return x + 1e-6 * np.max(np.abs(x)) * noise

        return solve_with_error

    monkeypatch.setattr("eamchain.solver.strain_solver", corrupted)
    for model in ModelKind:
        with pytest.raises(SolveError, match="infinity norms"):
            solve_linearized(model, region, default_p, 1.0, load)


def test_solve_matches_dense_oracle_and_mode_content(default_p):
    grid = ChainGrid(32)
    region = RegionDecomposition(32, 6)
    load = cosine_load(grid)  # cos(2 pi x) lives in strain modes k = +-2
    u = solve_linearized(ModelKind.ATOMISTIC, region, default_p, 1.0, load)
    # independent dense solve on an explicit zero-mean basis
    h_dense = hessian(ModelKind.ATOMISTIC, region, default_p, 1.0).to_dense()
    n = grid.period_atoms
    basis = np.linalg.qr(
        np.hstack([np.ones((n, 1)), np.eye(n)[:, : n - 1]])
    )[0][:, 1:]
    x = np.linalg.solve(basis.T @ h_dense @ basis, basis.T @ load.field.values)
    np.testing.assert_allclose(u.values, basis @ x, atol=1e-12 * np.max(np.abs(u.values)))
    # strain spectrum concentrated at the load's wavenumber
    k = grid.sites()
    c = np.abs(np.fft.fft(diff(u, 1).values))[k % n]
    top = {int(m) for m in k[np.argsort(c)[-2:]]}
    assert top == {2, -2}
    residual = h_dense @ u.values - load.field.values
    assert np.linalg.norm(residual) <= 1e-11 * np.linalg.norm(load.field.values)


def test_solve_qnl_mirror_symmetric_solution(default_p):
    # even load + symmetric region -> even solution
    grid = ChainGrid(32)
    region = RegionDecomposition(32, 6)
    u = solve_linearized(ModelKind.QNL, region, default_p, 1.0, cosine_load(grid))
    scale = np.max(np.abs(u.values))
    for l in range(-31, 33):
        assert abs(u[l] - u[-l]) <= 1e-10 * scale


def test_solve_unstable_raises(default_p, reversal_p):
    grid = ChainGrid(32)
    region = RegionDecomposition(32, 6)
    load = cosine_load(grid)
    # beyond the critical strain the continuum modulus is negative
    assert coefficients(default_p, 1.13).A < 0
    with pytest.raises(NotPositiveDefiniteError):
        solve_linearized(ModelKind.QNL, region, default_p, 1.13, load)
    # reversal material at F = 1.16: modulus still positive but the exact
    # chain is unstable at the zone boundary, caught by the factorization
    assert coefficients(reversal_p, 1.16).A > 0
    lam = lambda_min(ModelKind.ATOMISTIC, region, reversal_p, 1.16)
    assert lam < 0
    with pytest.raises(NotPositiveDefiniteError):
        solve_linearized(ModelKind.ATOMISTIC, region, reversal_p, 1.16, load)


def test_solver_determinism(default_p):
    grid = ChainGrid(32)
    region = RegionDecomposition(32, 6)
    load = cosine_load(grid)
    u1 = solve_linearized(ModelKind.QNL, region, default_p, 1.0, load)
    u2 = solve_linearized(ModelKind.QNL, region, default_p, 1.0, load)
    assert np.array_equal(u1.values, u2.values)


def test_consistency_residual_zero_cases(default_p, rng):
    grid = ChainGrid(32)
    region = RegionDecomposition(32, 8)
    z = PeriodicField.zeros(grid, "displacement")
    t = consistency_residual(region, default_p, 1.0, z)
    assert np.max(np.abs(t.values)) == 0.0
    # support strictly inside the core (more than 3 sites from the edge):
    # the two operators agree there, so the residual vanishes identically.
    # dyadic values with an exactly cancelling tail keep the mean at 0.0
    # bitwise, so no global constant leaks outside the support
    vals = np.zeros(grid.period_atoms)
    bump = rng.integers(-1000, 1000, 6).astype(float) * 2.0**-20
    bump = np.append(bump, -bump.sum())
    for l, v in zip(range(-3, 4), bump):
        vals[grid.index(l)] = v
    assert vals.sum() == 0.0
    u = PeriodicField.displacement(grid, vals)
    t = consistency_residual(region, default_p, 1.0, u)
    assert np.max(np.abs(t.values)) == 0.0


def test_consistency_residual_support_and_scaling(default_p):
    # smooth field: residual rows are O(eps) near the interface (at most a
    # fixed handful, starting one site inside the core where the coupled
    # stencils first differ) and O(eps^2) in the deep continuum, zero inside
    maxes_interface, maxes_continuum, eps_list = [], [], []
    for n in (64, 128, 256):
        grid = ChainGrid(n)
        region = RegionDecomposition(n, 8)
        k = region.K
        u = PeriodicField.displacement(
            grid, np.sin(2 * np.pi * grid.positions()) / (2 * np.pi)
        )
        t = consistency_residual(region, default_p, 1.0, u)
        iface_band = set(interface_window_sites(region)) | {k - 1, -(k - 1)}
        deep_core = [l for l in range(-(k - 2), k - 1)]
        assert max(abs(t[l]) for l in deep_core) == 0.0
        nonzero = [l for l in grid.sites() if abs(t[l]) > 1e-13]
        far = [
            l for l in nonzero if l not in iface_band and region.classify(l) != "continuum"
        ]
        assert far == []
        assert len([l for l in nonzero if l in iface_band]) <= 18
        maxes_interface.append(max(abs(t[l]) for l in iface_band))
        deep_cont = [l for l in grid.sites() if min(abs(l - k), abs(l + k)) > 8]
        maxes_continuum.append(max(abs(t[l]) for l in deep_cont))
        eps_list.append(grid.epsilon)
    assert loglog_slope(eps_list, maxes_interface) == pytest.approx(1.0, abs=0.25)
    assert loglog_slope(eps_list, maxes_continuum) == pytest.approx(2.0, abs=0.25)


def test_negative_norm_properties(default_p, rng):
    grid = ChainGrid(8)
    z = PeriodicField.zeros(grid, "residual")
    assert negative_norm(z) == 0.0
    with pytest.raises(ValueError):
        negative_norm(PeriodicField(grid, np.ones(16), "residual"))
    # constructed inverse pair: T = L z recovers ||Dz||
    l_op = strain_metric_operator(grid)
    zf = random_displacement(grid, rng, strain_scale=1.0)
    t = PeriodicField(grid, l_op.apply(zf.values), "residual")
    assert negative_norm(t) == pytest.approx(norm_l2eps(diff(zf, 1)), rel=1e-12)
    # homogeneity and triangle inequality
    t1 = PeriodicField(grid, l_op.apply(random_displacement(grid, rng).values), "residual")
    t2 = PeriodicField(grid, l_op.apply(random_displacement(grid, rng).values), "residual")
    assert negative_norm(-2.0 * t1) == pytest.approx(2.0 * negative_norm(t1), rel=1e-12)
    assert negative_norm(t1 + t2) <= negative_norm(t1) + negative_norm(t2) + 1e-12


def test_negative_norm_matches_dense_maximization(default_p, rng):
    grid = ChainGrid(8)
    vals = rng.uniform(-1, 1, 16)
    vals -= vals.mean()
    vals -= vals.mean()
    t = PeriodicField(grid, vals, "residual")
    ours = negative_norm(t)
    oracle = dual_norm_by_maximization(t, strain_metric_operator(grid).to_dense())
    assert ours == pytest.approx(oracle, rel=1e-10)


@st.composite
def study_points(draw):
    """(potential, region, F, load frequency): N in [8, 128], K in [0, N-6]
    (a consistency point's window), F in [0.95, 1.05], where every shipped
    atomistic chain is stable."""
    p = POTENTIALS[draw(st.sampled_from(sorted(POTENTIALS)))]
    n = draw(st.integers(8, 128))
    region = RegionDecomposition(n, draw(st.integers(0, n - 6)))
    return p, region, draw(st.floats(0.95, 1.05)), draw(st.integers(1, n - 1))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(study_points())
def test_consistency_point_negnorm_matches_residual_oracle(point):
    # the study's ||sigma - mean sigma|| against the dual norm of T = D^T sigma
    # integrated once from the site-space residual
    p, region, F, frequency = point
    grid = ChainGrid(region.N)
    r_a, negnorm, _, _, _ = consistency_point(region, p, F, cosine_load(grid, frequency))
    u_a = displacement_from_strain(grid, r_a.values)
    assert negnorm == pytest.approx(negative_norm(consistency_residual(region, p, F, u_a)), rel=1e-12)


@pytest.mark.parametrize("n, k", [(16, 11), (16, 13), (64, 59)])
def test_consistency_point_rejects_k_outside_the_experiment_window(default_p, n, k):
    # K >= N-5: the 16-site interface window wraps the period, and the CLI
    # rejects such a K before it reaches the library
    with pytest.raises(ValueError, match="K < N-5"):
        consistency_point(RegionDecomposition(n, k), default_p, 1.0, cosine_load(ChainGrid(n)))
    consistency_point(RegionDecomposition(n, n - 6), default_p, 1.0, cosine_load(ChainGrid(n)))


@pytest.mark.parametrize("n", [16, 64])
def test_interface_window_wraps_the_period_past_k_n_minus_8(n):
    # a set of site labels: its 16 sites stay distinct up to K = N-8
    grid = ChainGrid(n)
    for k, distinct in ((n - 8, 16), (n - 7, 15), (n - 6, 13)):
        sites = interface_window_sites(RegionDecomposition(n, k))
        assert len(sites) == 16
        assert len({grid.index(site) for site in sites}) == distinct


def test_error_equation_and_stability_chain(default_p):
    grid = ChainGrid(64)
    region = RegionDecomposition(64, 8)
    load = cosine_load(grid)
    u_a = solve_linearized(ModelKind.ATOMISTIC, region, default_p, 1.0, load)
    u_q = solve_linearized(ModelKind.QNL, region, default_p, 1.0, load)
    t = consistency_residual(region, default_p, 1.0, u_a)
    h_q = hessian(ModelKind.QNL, region, default_p, 1.0)
    lhs = h_q.apply(u_a.values - u_q.values)
    assert np.linalg.norm(lhs - t.values) <= 1e-10 * np.linalg.norm(t.values)
    err = norm_l2eps(diff(u_a, 1) - diff(u_q, 1))
    assert err <= negative_norm(t) / coefficients(default_p, 1.0).A * (1 + 1e-6)


def test_consistency_negnorm_rate_holds_to_large_n(default_p):
    # the strain-space residual keeps the exact eps^1.5 rate where a
    # site-space difference of two O(N^2)-sized operator actions drifts
    negs = []
    for n in 2 ** np.arange(12, 17):
        region = RegionDecomposition(int(n), 8)
        negs.append(consistency_point(region, default_p, 1.0, cosine_load(ChainGrid(int(n))))[1])
    np.testing.assert_allclose(np.divide(negs[:-1], negs[1:]), 2**1.5, rtol=0, atol=1e-3)


def test_convergence_study_records_and_rates(default_p):
    records, rates = convergence_study(default_p, 1.0, [RegionDecomposition(n, 8) for n in [32, 64, 128]])
    assert [r.N for r in records] == [32, 64, 128]
    for r in records:
        assert r.K == 8 and r.epsilon == 1.0 / r.N
        assert r.error_H1 > 0 and r.consistency_negnorm > 0
        assert r.lambda_min_qnl == pytest.approx(r.a_modulus, abs=1e-8)
    errs = [r.error_H1 for r in records]
    assert errs == sorted(errs, reverse=True)  # monotone decay at these sizes
    assert np.isfinite(rates["error_slope_all"])
    assert np.isfinite(rates["error_slope_tail"])


def test_pair_potential_study_rate(pair_p):
    # no embedding: the coupled chain reproduces the pair-chain rate
    _, rates = convergence_study(pair_p, 1.0, [RegionDecomposition(n, 8) for n in [64, 128, 256, 512]])
    assert rates["error_slope_tail"] >= 1.4


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "eps,errors",
    [([], []), ([0.5], [1.0]), ([0.5, 0.25], [1.0, 0.0]), ([0.5, 0.25], [1.0, -1.0]),
     ([0.5, 0.25], [1.0, np.nan]), ([0.5, 0.0], [1.0, 0.5])],
    ids=["no-point", "one-point", "zero-error", "negative-error", "nan-error", "zero-eps"],
)
def test_loglog_slope_of_degenerate_input_is_nan_without_a_warning(eps, errors):
    assert np.isnan(fit_loglog_slope(eps, errors))


def test_study_norm_quantities_match_definitions(default_p):
    records, _ = convergence_study(default_p, 1.0, [RegionDecomposition(64, 8)])
    r = records[0]
    grid = ChainGrid(64)
    region = RegionDecomposition(64, 8)
    u_a = solve_linearized(ModelKind.ATOMISTIC, region, default_p, 1.0, cosine_load(grid))
    assert r.D3_continuum == pytest.approx(
        norm_region(diff(u_a, 3), continuum_norm_sites(region), "l2"), rel=1e-12
    )
    assert r.D2_interface_max == pytest.approx(
        norm_region(diff(u_a, 2), interface_window_sites(region), "max"), rel=1e-12
    )
