"""Grid, field, difference-operator and norm tests."""

import numpy as np
import pytest

from eamchain.cli import IDENTITY_RHS
from eamchain.lattice import (
    ChainGrid,
    PeriodicField,
    diff,
    displacement_from_strain,
    norm_l2eps,
    norm_region,
)

from conftest import random_displacement
from oracles import region_norm_bruteforce


def test_grid_basics():
    grid = ChainGrid(8)
    assert grid.epsilon * grid.N == 1.0
    assert grid.period_atoms == 16
    assert grid.index(-7) == 0 and grid.index(8) == 15
    assert grid.index(9) == grid.index(-7)  # wraparound l + 2N <-> l
    with pytest.raises(ValueError):
        ChainGrid(3)


def test_displacement_zero_mean_enforced():
    grid = ChainGrid(8)
    with pytest.raises(ValueError):
        PeriodicField(grid, np.ones(16), "displacement")
    u = PeriodicField.displacement(grid, np.arange(16.0))
    assert abs(u.values.mean()) <= 1e-14 * np.max(np.abs(u.values))


def test_field_values_read_only():
    grid = ChainGrid(8)
    u = PeriodicField.zeros(grid)
    with pytest.raises(ValueError):
        u.values[0] = 1.0


def test_diff_zero_field():
    grid = ChainGrid(8)
    z = PeriodicField.zeros(grid, "displacement")
    assert np.all(diff(z, 1).values == 0.0)


def test_diff_linear_ramp_single_jump():
    # sawtooth: linear ramp projected to zero mean has constant strain c
    # except at the single wraparound site
    grid = ChainGrid(8)
    c = 0.7
    u = PeriodicField.displacement(grid, c * grid.epsilon * grid.sites())
    du = diff(u, 1).values
    off = np.abs(du - c) > 1e-10
    assert off.sum() == 1
    assert off[grid.index(-grid.N + 1)]


def test_diff_order_validation_and_composition(rng):
    grid = ChainGrid(8)
    u = random_displacement(grid, rng)
    with pytest.raises(ValueError):
        diff(u, 5)
    direct = diff(u, 2).values
    composed = diff(diff(u, 1), 1).values
    np.testing.assert_allclose(composed, direct, rtol=1e-14, atol=1e-14)


def test_diff_linearity(rng):
    grid = ChainGrid(16)
    u = random_displacement(grid, rng)
    v = random_displacement(grid, rng)
    for order in (1, 2, 3, 4):
        lhs = diff(2.5 * u + (-1.25) * v, order).values
        rhs = 2.5 * diff(u, order).values - 1.25 * diff(v, order).values
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_strain_of_displacement_sums_to_zero(rng):
    grid = ChainGrid(8)
    u = random_displacement(grid, rng)
    assert abs(diff(u, 1).values.sum()) < 1e-12


def test_norm_constant_field():
    grid = ChainGrid(12)
    v = PeriodicField(grid, np.ones(24))
    assert norm_l2eps(v) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert norm_l2eps(PeriodicField.zeros(grid)) == 0.0


def test_norm_alternating_unit():
    # (-1)^l / sqrt(2) has unit strain-metric size at any N
    grid = ChainGrid(16)
    sites = grid.sites()
    v = PeriodicField(grid, np.where(sites % 2 == 0, 1.0, -1.0) / np.sqrt(2.0))
    assert norm_l2eps(v) == pytest.approx(1.0, rel=1e-14)


def test_norm_region_modes(rng):
    grid = ChainGrid(8)
    v = PeriodicField(grid, np.ones(16))
    assert norm_region(v, range(8)) == pytest.approx(np.sqrt(8 * grid.epsilon), rel=1e-14)
    full = norm_region(v, range(-7, 9))
    assert full == pytest.approx(norm_l2eps(v), rel=1e-15)
    w = PeriodicField(grid, rng.standard_normal(16))
    sites = [0, 1, 2, 3]
    assert norm_region(w, sites) == pytest.approx(
        region_norm_bruteforce(w, sites), rel=1e-15
    )
    assert norm_region(w, sites, "max") == max(abs(w[l]) for l in sites)
    with pytest.raises(ValueError):
        norm_region(w, [])


def test_strain_identities(rng):
    # explicit left-hand sums against the right-hand sides of the validate
    # table, row i the coefficients of eps^(2j) sum (D^(j+1) u)^2
    for n in (8, 16):
        grid = ChainGrid(n)
        eps = grid.epsilon
        for _ in range(100):
            u = random_displacement(grid, rng, strain_scale=1.0)
            sums = np.array([eps ** (2 * j) * np.sum(diff(u, j + 1).values ** 2) for j in range(4)])
            a = diff(u, 1).values
            up = lambda k: np.roll(a, -k)  # noqa: E731
            lhs = [
                np.sum((a + up(1)) ** 2),
                np.sum((a + up(1) + up(2)) ** 2),
                np.sum(2 * (a + up(1)) * (up(-1) + a + up(1) + up(2))),
                np.sum((a + up(1) + up(2) + up(3)) ** 2),
            ]
            for left, right in zip(lhs, IDENTITY_RHS @ sums):
                assert abs(left - right) <= 1e-12 * max(abs(left), 1e-30)


def test_summation_by_parts_matrix():
    # the strain bilinear form's operator is the centred second difference,
    # i.e. -D^(2) reindexed by one site
    grid = ChainGrid(8)
    n = grid.period_atoms
    eps = grid.epsilon

    def basis(i):
        e = np.zeros(n)
        e[i] = 1.0
        return e

    form = np.zeros((n, n))
    for i in range(n):
        ei = PeriodicField(grid, basis(i))
        dei = diff(ei, 1).values
        for j in range(n):
            dej = diff(PeriodicField(grid, basis(j)), 1).values
            form[i, j] = eps * np.dot(dei, dej)
    np.testing.assert_allclose(form, form.T, atol=1e-15)

    shifted_d2 = np.zeros((n, n))
    for j in range(n):
        col = -np.roll(diff(PeriodicField(grid, basis(j)), 2).values, -1)
        shifted_d2[:, j] = eps * col
    np.testing.assert_allclose(form, shifted_d2, rtol=1e-13, atol=1e-13)
