"""Energies, densities, gradients, Hessians, and the region decomposition."""

import numpy as np
import pytest

from eamchain.lattice import ChainGrid, PeriodicField, diff, displacement_from_strain, norm_l2eps
from eamchain.models import (
    _ATOM,
    _CONTINUUM,
    _MIRROR,
    _TRANSITION,
    Deformation,
    ModelKind,
    RegionDecomposition,
    _region_classes,
    energy,
    force_scale,
    gradient,
)
from eamchain.potentials import (
    EAMPotential,
    ScalarFunctionC2,
    expdecay_density,
    mean_field_density,
    morse_pair,
    quadratic_embedding,
    zero_function,
)

from conftest import random_displacement
from oracles import (
    fd_directional_derivative,
    hessian,
    qnl_pair_energy_by_hand,
)


def test_region_decomposition_classification():
    # the runs of region classes that energies, gradients and the Hessian
    # basis use, by site label l = array index - (N - 1)
    N, K = 16, 4
    template = {}
    for t, start, length in _region_classes(ModelKind.QNL, N, K):
        template.update((i - N + 1, t) for i in range(start, start + length))
    assert sorted(template) == list(range(-N + 1, N + 1))  # a partition of one period
    assert all(template[l] is _ATOM for l in range(-K, K + 1))
    assert template[5] is template[6] is _TRANSITION
    assert template[-5] is template[-6] is _MIRROR
    assert all(template[l] is _CONTINUUM for l in template if abs(l) > K + 2)
    # mirror symmetry: the transition atom -l carries the reflection of l's table
    mirror = {_TRANSITION: _MIRROR, _MIRROR: _TRANSITION}
    for l in range(-15, 16):
        assert mirror.get(template[-l], template[-l]) is template[l]
    with pytest.raises(ValueError):
        RegionDecomposition(16, 14)
    RegionDecomposition(16, 0)  # empty-core region is allowed


def test_region_needs_the_smallest_grid():
    with pytest.raises(ValueError, match="N >= 4"):
        RegionDecomposition(3, 0)
    RegionDecomposition(4, 1)


def test_uniform_energy_all_models_agree(default_p):
    # every coupling reduces to the locally uniform energy density at y_F
    grid = ChainGrid(8)
    region = RegionDecomposition(8, 2)
    F = 1.05
    y = Deformation.uniform(grid, F)
    dbar = mean_field_density(default_p, F)
    expected = 2.0 * (
        default_p.embedding(dbar) + default_p.pair(F) + default_p.pair(2 * F)
    )
    values = [energy(m, region, default_p, y) for m in ModelKind]
    for v in values:
        assert v == pytest.approx(expected, rel=1e-13)


def test_energy_translation_invariance(default_p, rng):
    grid = ChainGrid(8)
    region = RegionDecomposition(8, 2)
    u = random_displacement(grid, rng)
    y = Deformation(1.02, u)
    # adding a constant to y shifts the displacement without changing strains;
    # model energies only see strains
    shifted = Deformation(1.02, u)  # constants are not representable in U
    for m in ModelKind:
        assert energy(m, region, default_p, shifted) == energy(m, region, default_p, y)
        h = hessian(m, region, default_p, 1.02)
        assert np.max(np.abs(h.apply(np.ones(grid.period_atoms)))) <= 1e-9


@pytest.mark.parametrize("K", [4, 11, 12, 13])
def test_qnl_pair_energy_split_assembly(default_p, rng, K):
    # pure pair chain: coupled energy matches the hand-assembled pair terms,
    # up to K = N-3 where the mirrored transition stencils share sites
    grid = ChainGrid(16)
    region = RegionDecomposition(16, K)
    pair_only = EAMPotential(default_p.pair, zero_function(), zero_function())
    y = Deformation(1.03, random_displacement(grid, rng))
    ours = energy(ModelKind.QNL, region, pair_only, y)
    by_hand = qnl_pair_energy_by_hand(default_p.pair.eval, region, y)
    assert ours == pytest.approx(by_hand, rel=1e-14)
    # and the full potential has no ghost force at the uniform state
    for F in (0.95, 1.1):
        g = gradient(ModelKind.QNL, region, default_p, Deformation.uniform(grid, F))
        assert np.max(np.abs(g.values)) <= 1e-12 * force_scale(default_p, F, grid)


@pytest.mark.parametrize("model", list(ModelKind))
def test_ghost_force_free_at_uniform(default_p, model):
    grid = ChainGrid(64)
    region = RegionDecomposition(64, 10)
    for F in (0.95, 1.0, 1.1, 1.2):
        g = gradient(model, region, default_p, Deformation.uniform(grid, F))
        scale = force_scale(default_p, F, grid)
        assert np.max(np.abs(g.values)) <= 1e-12 * scale


def test_gradient_zero_mean_and_fd(default_p, rng):
    h = 1e-5
    for n in (8, 16):
        grid = ChainGrid(n)
        region = RegionDecomposition(n, 2)
        for model in ModelKind:
            for _ in range(10):
                u = random_displacement(grid, rng)
                w = random_displacement(grid, rng, strain_scale=0.1)
                y = Deformation(1.02, u)
                g = gradient(model, region, default_p, y)
                assert abs(np.mean(g.values)) <= 1e-12 * max(np.max(np.abs(g.values)), 1e-30)
                paired = grid.epsilon * float(np.dot(g.values, w.values))
                fd = fd_directional_derivative(model, region, default_p, 1.02, u, w, h)
                assert abs(paired - fd) <= 1e-6 * max(abs(fd), 1e-12)


def test_embedding_equals_pair_for_linear_embedding(default_p, rng):
    # with G the half identity and the density playing the pair role, the
    # embedding energy reproduces the pair energy exactly, for every model
    half_id = ScalarFunctionC2(lambda d: 0.5 * d, lambda d: 0.5, lambda d: 0.0)
    phi = default_p.pair
    embed_side = EAMPotential(zero_function(), phi, half_id)
    pair_side = EAMPotential(phi, zero_function(), zero_function())
    grid = ChainGrid(16)
    region = RegionDecomposition(16, 4)
    y = Deformation(1.04, random_displacement(grid, rng))
    for model in ModelKind:
        e1 = energy(model, region, embed_side, y)
        e2 = energy(model, region, pair_side, y)
        assert e1 == pytest.approx(e2, rel=1e-14)
        g1 = gradient(model, region, embed_side, y)
        g2 = gradient(model, region, pair_side, y)
        np.testing.assert_allclose(g1.values, g2.values, rtol=1e-12, atol=1e-12)


def test_hessian_vs_gradient_fd(default_p, rng):
    h = 1e-5
    for n in (8, 16):
        grid = ChainGrid(n)
        region = RegionDecomposition(n, 2)
        for model in ModelKind:
            hop = hessian(model, region, default_p, 1.02)
            for _ in range(5):
                w = random_displacement(grid, rng, strain_scale=0.2)
                gp = gradient(model, region, default_p, Deformation(1.02, 1.0 * h * w))
                gm = gradient(model, region, default_p, Deformation(1.02, -1.0 * h * w))
                fd = (gp.values - gm.values) / (2 * h)
                hw = hop.apply(w.values)
                assert np.linalg.norm(hw - fd) <= 1e-5 * np.linalg.norm(fd)


def test_hessian_pair_only_quadratic_form(default_p, rng):
    # no embedding: <Hu,u> = A_tilde ||Du||^2 - eps^2 phi''(2F) ||D2u||^2
    pair_only = EAMPotential(default_p.pair, zero_function(), zero_function())
    grid = ChainGrid(16)
    region = RegionDecomposition(16, 4)
    F = 1.02
    hop = hessian(ModelKind.ATOMISTIC, region, pair_only, F)
    a_tilde = pair_only.pair.d2(F) + 4 * pair_only.pair.d2(2 * F)
    phi2_2F = pair_only.pair.d2(2 * F)
    eps = grid.epsilon
    for _ in range(20):
        u = random_displacement(grid, rng, strain_scale=1.0)
        lhs = hop.quadratic_form(u)
        rhs = a_tilde * norm_l2eps(diff(u, 1)) ** 2 - eps**2 * phi2_2F * norm_l2eps(diff(u, 2)) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_hessian_band_structure_and_symmetry(default_p):
    region = RegionDecomposition(16, 4)
    hop = hessian(ModelKind.QNL, region, default_p, 1.05)
    dense = hop.to_dense()
    np.testing.assert_allclose(dense, dense.T, atol=0.0)  # symmetric by storage
    # bandwidth 4 with periodic wraparound
    n = 32
    for i in range(n):
        for j in range(n):
            dist = min((i - j) % n, (j - i) % n)
            if dist > 4:
                assert dense[i, j] == 0.0
    # annihilates constants: row sums vanish relative to row magnitude
    row_mag = np.max(np.abs(dense), axis=1)
    assert np.max(np.abs(dense.sum(axis=1)) / row_mag) <= 1e-12


def test_hessian_translation_invariance_within_regions(default_p):
    region = RegionDecomposition(32, 6)
    hop = hessian(ModelKind.QNL, region, default_p, 1.05)
    dense = hop.to_dense()
    index = ChainGrid(32).index
    # rows fully inside the atomistic core are shifts of each other
    base = np.roll(dense[index(0)], -index(0))
    for l in (-2, -1, 1, 2):
        shifted = np.roll(dense[index(l)], -index(l))
        np.testing.assert_allclose(shifted, base, atol=0.0)
    # deep continuum rows are circulant too
    base_c = np.roll(dense[index(14)], -index(14))
    for l in (15, 16, -14, -15):
        shifted = np.roll(dense[index(l)], -index(l))
        np.testing.assert_allclose(shifted, base_c, atol=1e-18)


def test_qnl_matches_atomistic_inside_core(default_p, rng):
    grid = ChainGrid(16)
    region = RegionDecomposition(16, 5)
    y = Deformation(1.02, random_displacement(grid, rng))
    ga = gradient(ModelKind.ATOMISTIC, region, default_p, y)
    gq = gradient(ModelKind.QNL, region, default_p, y)
    for l in range(-(region.K - 3), region.K - 2):
        assert gq[l] == ga[l]  # identical table entries, bitwise
    ha = hessian(ModelKind.ATOMISTIC, region, default_p, 1.02).to_dense()
    hq = hessian(ModelKind.QNL, region, default_p, 1.02).to_dense()
    for l in range(-(region.K - 2), region.K - 1):
        np.testing.assert_allclose(hq[grid.index(l)], ha[grid.index(l)], atol=0.0)


def test_qnl_ignores_an_overflow_in_an_argument_it_never_reads():
    # a steep Morse pair overflows at the doubled strain 2 r_b of a
    # compressed bond inside the core, an argument only QCL reads there: QNL
    # must not weigh that inf by 0, and equals the atomistic chain
    p = EAMPotential(morse_pair(200.0), expdecay_density(3.0), quadratic_embedding(0.05, 0.5))
    grid = ChainGrid(16)
    region = RegionDecomposition(16, 4)
    strain = np.zeros(grid.period_atoms)
    strain[14:17] = 0.5, -1.45, 0.5
    y = Deformation(1.0, displacement_from_strain(grid, strain - strain.mean()))
    e_atom = energy(ModelKind.ATOMISTIC, region, p, y)
    e_qnl = energy(ModelKind.QNL, region, p, y)
    assert np.isfinite(e_atom) and abs(e_qnl - e_atom) <= 1e-12 * abs(e_atom)
    assert np.all(np.isfinite(gradient(ModelKind.QNL, region, p, y).values))
    with np.errstate(over="ignore", invalid="ignore"):
        assert energy(ModelKind.QCL, region, p, y) == np.inf


def test_qnl_matches_qcl_in_deep_continuum(default_p):
    region = RegionDecomposition(16, 0)
    hq = hessian(ModelKind.QNL, region, default_p, 1.05).to_dense()
    hc = hessian(ModelKind.QCL, region, default_p, 1.05).to_dense()
    index = ChainGrid(16).index
    for l in list(range(6, 12)) + list(range(-11, -5)):
        np.testing.assert_allclose(hq[index(l)], hc[index(l)], atol=0.0)


def test_gradient_mirror_symmetry(default_p, rng):
    # reflecting the deformation through the core center maps the residual
    # to its (negated) reflection; the coupled energy is built symmetric
    grid = ChainGrid(16)
    region = RegionDecomposition(16, 4)
    u = random_displacement(grid, rng)
    mirrored = np.empty(grid.period_atoms)
    for l in range(-15, 17):
        mirrored[grid.index(l)] = -u.values[grid.index(-l)]
    um = PeriodicField.displacement(grid, mirrored)
    for model in ModelKind:
        g = gradient(model, region, default_p, Deformation(1.02, u))
        gm = gradient(model, region, default_p, Deformation(1.02, um))
        scale = np.max(np.abs(g.values))
        for l in range(-15, 17):
            assert abs(gm[l] + g[-l]) <= 1e-12 * scale


def test_deformation_validation(default_p):
    grid = ChainGrid(8)
    with pytest.raises(ValueError):
        Deformation(0.0, PeriodicField.zeros(grid, "displacement"))
    with pytest.raises(ValueError):
        Deformation(1.0, PeriodicField.zeros(grid, "generic"))
