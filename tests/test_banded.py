"""The banded backend against the dense oracle on drawn (material, model, N, K, F),
and the banded product against the dense one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eamchain.lattice import ChainGrid
from eamchain.models import ModelKind, RegionDecomposition, SymmetricBandedOperator
from eamchain.potentials import shipped_potential
from eamchain.solver import NotPositiveDefiniteError, cosine_load
from eamchain.stability import (
    coefficients,
    lambda_min,
    strain_solver,
)

from oracles import (
    dense_core_min_eig,
    dense_generalized_eigenvalues,
    hessian,
    solve_linearized,
    strain_metric_operator,
    zero_mean_basis,
)

POTENTIALS = {name: shipped_potential(name) for name in ("default-eam", "reversal-eam", "pair-morse")}


@st.composite
def chains(draw):
    """(potential, model, region, F, load frequency) over the documented
    ranges: N in [4, 40], K in [0, N-3], F in [0.95, 1.17]."""
    p = POTENTIALS[draw(st.sampled_from(sorted(POTENTIALS)))]
    model = draw(st.sampled_from(list(ModelKind)))
    n = draw(st.integers(4, 40))
    region = RegionDecomposition(n, draw(st.integers(0, n - 3)))
    return p, model, region, draw(st.floats(0.95, 1.17)), draw(st.integers(1, n - 1))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(chains())
def test_banded_backend_matches_dense_oracle(chain):
    p, model, region, F, frequency = chain
    grid = ChainGrid(region.N)
    h_op = hessian(model, region, p, F)
    h_dense = h_op.to_dense()
    lam_dense = dense_generalized_eigenvalues(h_dense, strain_metric_operator(grid).to_dense())
    lam0 = float(lam_dense[0])
    scale = max(1.0, float(np.max(np.abs(lam_dense))))

    # a coupled model's lambda_min never exceeds A_F, so definiteness on
    # zero-mean fields is whether the strain Hessian is positive definite;
    # the atomistic strain Hessian also needs A_F > 0, its eigenvalue on
    # constants
    a_f = coefficients(p, F).A
    if model != ModelKind.ATOMISTIC:
        assert lam0 <= a_f + 1e-12 * scale
    q_min = min(lam0, a_f)
    if abs(q_min) > 1e-9 * scale:
        assert (strain_solver(model, region, p, F) is not None) == (q_min > 0)

    lam = lambda_min(model, region, p, F)
    assert lam == pytest.approx(lam0, abs=1e-11 * scale)

    load = cosine_load(grid, frequency)
    if coefficients(p, F).A <= 0 or lam0 < -1e-9 * scale:
        with pytest.raises(NotPositiveDefiniteError):
            solve_linearized(model, region, p, F, load)
    elif lam0 > 1e-3 * scale:
        u = solve_linearized(model, region, p, F, load).values
        basis = zero_mean_basis(grid.period_atoms)
        x = basis @ np.linalg.solve(basis.T @ h_dense @ basis, basis.T @ load.field.values)
        np.testing.assert_allclose(u, x, rtol=0, atol=1e-11 * np.max(np.abs(x)))


@pytest.mark.parametrize("K", [200, 500])
def test_qnl_lambda_min_matches_dense_core_at_large_k(reversal_p, K):
    # the drawn chains above stop at K = 37; the core eigenvalue lies below
    # A_F for this potential, so these cases exercise the core bisection
    region = RegionDecomposition(K + 3, K)
    for F in (0.95, 1.0, 1.2):
        lam = lambda_min(ModelKind.QNL, region, reversal_p, F)
        expected = min(coefficients(reversal_p, F).A, dense_core_min_eig(region, reversal_p, F))
        assert abs(lam - expected) <= 1e-13 * max(1.0, abs(lam))


@pytest.mark.parametrize("N,w", [(4, 3), (4, 4), (5, 4), (16, 3), (16, 4)])
def test_apply_matches_dense_product(rng, N, w):
    # at N = 4, w = 4 the offset-4 entries of rows i and i + 4 couple one pair
    grid = ChainGrid(N)
    n = grid.period_atoms
    op = SymmetricBandedOperator(n, np.arange(n), rng.standard_normal((n, w + 1)), np.zeros(w + 1))
    v = rng.standard_normal(n)
    dense = op.to_dense()
    np.testing.assert_allclose(op.apply(v), dense @ v, rtol=0, atol=1e-14 * np.max(np.abs(dense) @ np.abs(v)))
