"""Deformed-state energies and gradients against the per-site loop oracle,
and model invariants, on drawn (material, model, N, K, deformed state) and on
every small grid; y_F Hessians from compiled feature maps against the loop
oracle at r = F."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eamchain.lattice import ChainGrid, PeriodicField
from eamchain.models import (
    Deformation,
    ModelKind,
    STRAIN_HALF_BANDWIDTH,
    RegionDecomposition,
    _band_apply,
    _core_basis,
    energy,
    force_scale,
    gradient,
    strain_hessian,
)
from eamchain.potentials import EAMPotential, ScalarFunctionC2, shipped_potential
from eamchain.stability import coefficients

from conftest import random_displacement
from oracles import hessian, loop_energy, loop_strain_gradient, loop_strain_hessian_bands

POTENTIALS = {name: shipped_potential(name) for name in ("default-eam", "reversal-eam", "pair-morse")}

# Members whose values do not depend on the argument: an evaluator that
# used such a value unbroadcast would sum one value where it needs one per
# term.
CONSTANT_CALLABLES = EAMPotential(
    ScalarFunctionC2(lambda r: 1.0, lambda r: 0.5, lambda r: 0.25),
    ScalarFunctionC2(lambda r: 0.5 * r * r - 2.0 * r + 3.0, lambda r: r - 2.0, lambda r: 1.0),
    ScalarFunctionC2(lambda d: 0.5 * d * d, lambda d: d, lambda d: 1.0),
    "constant-callables",
)

RTOL = 1e-13


def full_bands(op) -> np.ndarray:
    """Bands of every row of a banded operator: the far row, with the core rows written over it."""
    bands = np.empty((op.n, len(op.far)))
    bands[:] = op.far
    bands[op.core] = op.core_bands
    return bands


@st.composite
def deformed_chains(draw):
    """(potential, model, region, deformation): N in [4, 64], K in [0, N-3],
    a seeded random displacement about F in [0.95, 1.15]."""
    p = POTENTIALS[draw(st.sampled_from(sorted(POTENTIALS)))]
    model = draw(st.sampled_from(list(ModelKind)))
    n = draw(st.integers(4, 64))
    region = RegionDecomposition(n, draw(st.integers(0, n - 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = Deformation(draw(st.floats(0.95, 1.15)), random_displacement(ChainGrid(n), rng))
    return p, model, region, y


def assert_matches_loop_oracle(p, model, region, y):
    grid = y.grid
    r = y.strain()
    e_loop = loop_energy(model, region, p, y)
    assert abs(energy(model, region, p, y) - e_loop) <= RTOL * abs(e_loop)

    gs = loop_strain_gradient(model, region, p, r)
    g_loop = (gs - np.roll(gs, -1)) / grid.epsilon
    g = gradient(model, region, p, y).values
    np.testing.assert_allclose(g, g_loop, rtol=0, atol=RTOL * np.max(np.abs(gs)) / grid.epsilon)

    # Hessians are only built at the uniform state
    q_loop = loop_strain_hessian_bands(model, region, p, np.full(grid.period_atoms, y.F))
    q = full_bands(strain_hessian(model, region, p, y.F))
    np.testing.assert_allclose(q, q_loop, rtol=0, atol=RTOL * np.max(np.abs(q_loop)))


def mirrored(y: Deformation) -> Deformation:
    """The deformation reflected through site 0: u_l -> -u_{-l}."""
    grid = y.grid
    l = grid.sites()
    values = -y.displacement.values[(-l + grid.N - 1) % grid.period_atoms]
    return Deformation(y.F, PeriodicField.displacement(grid, values))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(deformed_chains())
def test_array_tables_match_loop_oracle_and_invariants(chain):
    p, model, region, y = chain
    grid = y.grid
    assert_matches_loop_oracle(p, model, region, y)

    uniform = gradient(model, region, p, Deformation.uniform(grid, y.F)).values
    assert np.max(np.abs(uniform)) <= 1e-12 * force_scale(p, y.F, grid)

    e = energy(model, region, p, y)
    assert abs(energy(model, region, p, mirrored(y)) - e) <= RTOL * abs(e)

    ones = np.ones(grid.period_atoms)
    h_op = hessian(model, region, p, y.F)
    assert np.max(np.abs(h_op.apply(ones))) <= 1e-14 * h_op.norm_inf()

    # Q 1 = A_F 1: the strain solve's zero-sum and definiteness claims rest on it
    q_op = strain_hessian(model, region, p, y.F)
    a_f = coefficients(p, y.F).A
    assert np.max(np.abs(q_op.apply(ones) - a_f)) <= 1e-12 * q_op.norm_inf()


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_every_small_grid_matches_loop_oracle(rng, name):
    # every N in 4..12 and K in 0..N-3: the runs of each region class,
    # down to an empty continuum run before the others at K = N-3, and the
    # transition sites shared across the period at K >= N-5
    for n in range(4, 13):
        y = Deformation(1.05, random_displacement(ChainGrid(n), rng))
        for K in range(n - 2):
            for model in ModelKind:
                assert_matches_loop_oracle(POTENTIALS[name], model, RegionDecomposition(n, K), y)


@pytest.mark.parametrize("model", list(ModelKind))
def test_constant_returning_callables_are_broadcast(rng, model):
    grid = ChainGrid(16)
    region = RegionDecomposition(16, 4)
    y = Deformation(1.02, random_displacement(grid, rng))
    assert_matches_loop_oracle(CONSTANT_CALLABLES, model, region, y)


def dense_from_bands(bands: np.ndarray) -> np.ndarray:
    """Symmetric periodic matrix with A[i, i + j] = bands[i, j], by entries."""
    n, width = bands.shape
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(width):
            a[i, (i + j) % n] += bands[i, j]
            if j:
                a[(i + j) % n, i] += bands[i, j]
    return a


@st.composite
def small_uniform_chains(draw):
    """(potential, model, region, F) with N in [4, 8] and K in [0, N-3]: the
    mirrored transition stencils share sites, and at N = 4 the two offset-4
    entries of a site pair are one entry."""
    p = POTENTIALS[draw(st.sampled_from(sorted(POTENTIALS)))]
    model = draw(st.sampled_from(list(ModelKind)))
    n = draw(st.integers(4, 8))
    return p, model, RegionDecomposition(n, draw(st.integers(0, n - 3))), draw(st.floats(0.95, 1.15))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(small_uniform_chains())
def test_small_chain_hessians_match_loop_oracle(chain):
    p, model, region, F = chain
    grid = ChainGrid(region.N)
    n = grid.period_atoms
    q_loop = loop_strain_hessian_bands(model, region, p, np.full(n, F))
    q_op = strain_hessian(model, region, p, F)
    assert np.max(np.abs(full_bands(q_op) - q_loop)) <= 1e-14 * q_op.norm_inf()

    # site space: H = D^T Q D with (Du)_l = (u_l - u_{l-1}) / eps
    d = (np.eye(n) - np.roll(np.eye(n), -1, axis=1)) / grid.epsilon
    h_dense = d.T @ dense_from_bands(q_loop) @ d
    h_op = hessian(model, region, p, F)
    assert np.max(np.abs(dense_from_bands(full_bands(h_op)) - h_dense)) <= 1e-14 * h_op.norm_inf()


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_strain_hessian_is_core_block_plus_continuum_diagonal(name):
    # the core is one cyclic run of 2K+4 rows for QNL and none for QCL;
    # every other row is diagonal, bitwise A_F, and the core bands as a
    # plain (unwrapped) band matrix rebuild Q exactly
    p = POTENTIALS[name]
    for n_half in range(4, 21):
        n = 2 * n_half
        for K in range(n_half - 2):
            region = RegionDecomposition(n_half, K)
            for model in (ModelKind.QNL, ModelKind.QCL):
                m = 2 * K + 4 if model == ModelKind.QNL else 0
                for F in (0.95, 1.0, 1.1):
                    q = strain_hessian(model, region, p, F)
                    core, core_bands, (a_f, *_) = q.core, q.core_bands, q.far
                    assert len(core) == m and np.all((core - core[:1]) % n == np.arange(m))
                    rest = np.setdiff1d(np.arange(n), core)
                    bands = full_bands(q)
                    assert np.all(bands[rest, 1:] == 0) and np.all(bands[rest, 0] == a_f)
                    block = np.zeros((n, n))
                    block[rest, rest] = a_f
                    for d in range(STRAIN_HALF_BANDWIDTH + 1):
                        k = np.arange(m - d)
                        assert np.all(core_bands[m - d :, d] == 0)
                        block[core[k + d], core[k]] = block[core[k], core[k + d]] = core_bands[k, d]
                    assert np.array_equal(block, q.to_dense())


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_block_apply_and_norm_match_the_full_band_operator(rng, name):
    # Q applied from its core block and far row gives the bits of the 2N-row
    # band product, and its row-sum norm that of the dense matrix
    p = POTENTIALS[name]
    for n_half in range(4, 13):
        r = rng.standard_normal(2 * n_half)
        for K in range(n_half - 2):
            region = RegionDecomposition(n_half, K)
            for model in ModelKind:
                for F in (0.95, 1.0, 1.1):
                    q = strain_hessian(model, region, p, F)
                    assert np.array_equal(q.apply(r), _band_apply(full_bands(q), r))
                    dense_norm = np.abs(q.to_dense()).sum(1).max()
                    assert abs(q.norm_inf() - dense_norm) <= 1e-14 * dense_norm


def test_cached_layouts_are_read_only():
    for a in _core_basis(ModelKind.QNL, 4):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
