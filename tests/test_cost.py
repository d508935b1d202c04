"""Deterministic cost guards of the uniform-state stability drivers at
N = 2^12: they count banded Cholesky factorizations, not seconds."""

import math

import pytest
import scipy.linalg

from eamchain.models import ModelKind, RegionDecomposition
from eamchain.stability import critical_strain, min_eig_numeric

N = 4096


@pytest.fixture
def factorizations(monkeypatch):
    calls = []
    factor = scipy.linalg.cholesky_banded

    def counted(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", counted)
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
