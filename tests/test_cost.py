"""Deterministic cost guards of the uniform-state stability drivers at
N = 2^12: they count banded Cholesky factorizations, not seconds."""

import math

import pytest
import scipy.linalg.lapack

from eamchain.models import ModelKind, RegionDecomposition
from eamchain.stability import coefficients, critical_strain, min_eig_numeric

N = 4096


@pytest.fixture
def factorizations(monkeypatch):
    calls = []
    factor = scipy.linalg.lapack.dpbtrf

    def counted(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", counted)
    return calls


@pytest.mark.parametrize("model", [ModelKind.QNL, ModelKind.QCL])
def test_critical_strain_factors_once_per_bisection_step(default_p, factorizations, model):
    lo, hi = 1.0, 1.15
    critical_strain(model, RegionDecomposition(N, 8), default_p, N, (lo, hi), tol=1e-10)
    steps = math.ceil(math.log2((hi - lo) / 1e-10))
    # both bracket ends, then one per halving of the bracket
    assert len(factorizations) == 2 + steps == 33


def test_min_eig_numeric_factorization_count(default_p, factorizations):
    min_eig_numeric(ModelKind.QNL, RegionDecomposition(N, 8), default_p, 1.0, N)
    # a definite lower end, a probe below the Rayleigh quotient that fails
    # and one that holds, 34 halvings down to 1e-14 relative; the mode
    # reuses the factor at the final lower end
    assert len(factorizations) == 37


def test_min_eig_numeric_qcl_needs_no_bisection(default_p, factorizations):
    lam, _ = min_eig_numeric(ModelKind.QCL, RegionDecomposition(N, 8), default_p, 1.0, N)
    # Q = A_F I: the start vector is an eigenvector, so both Rayleigh
    # decrements vanish and one probe just below the quotient is definite
    a_f = coefficients(default_p, 1.0).A
    assert abs(lam - a_f) <= 1e-14 * max(1.0, a_f)
    assert len(factorizations) <= 3
