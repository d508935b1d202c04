"""The banded backend against the dense oracle on drawn (material, model, N, K, F)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eamchain.lattice import ChainGrid
from eamchain.models import ModelKind, RegionDecomposition, hessian
from eamchain.potentials import shipped_potential
from eamchain.solver import NotPositiveDefiniteError, cosine_load, solve_linearized
from eamchain.stability import (
    coefficients,
    min_eig_numeric,
    rayleigh_quotient,
    strain_metric_operator,
)

from oracles import dense_generalized_eigenvalues, zero_mean_basis

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

    # definiteness on zero-mean fields is whether the pinned factorization succeeds
    if abs(lam0) > 1e-9 * scale:
        assert (h_op.pinned_solver() is not None) == (lam0 > 0)

    lam, mode = min_eig_numeric(model, region, p, F, region.N)
    assert lam == pytest.approx(lam0, abs=1e-11 * scale)
    assert rayleigh_quotient(model, region, p, F, mode) == pytest.approx(lam0, abs=1e-10 * scale)

    load = cosine_load(grid, frequency)
    if coefficients(p, F).A <= 0 or lam0 < -1e-9 * scale:
        with pytest.raises(NotPositiveDefiniteError):
            solve_linearized(model, region, p, F, load)
    elif lam0 > 1e-3 * scale:
        u = solve_linearized(model, region, p, F, load).values
        basis = zero_mean_basis(grid.period_atoms)
        x = basis @ np.linalg.solve(basis.T @ h_dense @ basis, basis.T @ load.field.values)
        np.testing.assert_allclose(u, x, rtol=0, atol=1e-11 * np.max(np.abs(x)))
