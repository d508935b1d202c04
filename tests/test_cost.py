"""Deterministic cost guards of the uniform-state stability drivers at
N = 2^12: they count banded Cholesky factorizations, not seconds, and check
that each one factors only the 2K+4 core rows of the strain Hessian."""

import math

import pytest
import scipy.linalg.lapack

from eamchain.models import ModelKind, RegionDecomposition
from eamchain.stability import coefficients, critical_strain, min_eig_numeric

N = 4096
K = 8
CORE = 2 * K + 4


@pytest.fixture
def factorizations(monkeypatch):
    """Column count of every ``dpbtrf`` call."""
    columns = []
    factor = scipy.linalg.lapack.dpbtrf

    def counted(ab, *args, **kwargs):
        columns.append(ab.shape[1])
        return factor(ab, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", counted)
    return columns


def test_critical_strain_factors_the_core_once_per_stable_step(default_p, factorizations):
    lo, hi = 1.0, 1.15
    f_star = critical_strain(ModelKind.QNL, RegionDecomposition(N, K), default_p, N, (lo, hi), tol=1e-10)
    steps = math.ceil(math.log2((hi - lo) / 1e-10))
    assert steps == 31 and coefficients(default_p, f_star + 1e-9).A < 0
    # one core factorization per evaluation with A_F > 0: the stable end and
    # the 17 midpoints below F_star; A_F < 0 decides the unstable end and the
    # other 14 midpoints without one
    assert factorizations == [CORE] * 18


def test_critical_strain_qcl_factors_nothing(default_p, factorizations):
    # QCL's strain Hessian is A_F I: the sign of A_F decides every step
    critical_strain(ModelKind.QCL, RegionDecomposition(N, K), default_p, N, (1.0, 1.15), tol=1e-10)
    assert factorizations == []


def test_min_eig_numeric_factorization_count(default_p, reversal_p, factorizations):
    min_eig_numeric(ModelKind.QNL, RegionDecomposition(N, K), default_p, 1.0, N)
    # the core has no eigenvalue below A_F: one probe a tolerance below it
    # factors, and lambda_min is A_F
    assert factorizations == [CORE]
    factorizations.clear()
    min_eig_numeric(ModelKind.QNL, RegionDecomposition(N, K), reversal_p, 1.0, N)
    # the core minimum lies below A_F: the failed probe, a definite lower
    # end, then 47 shifts and halvings down to 1e-14 relative, each of the
    # core alone; the mode reuses the factor at the final lower end
    assert factorizations == [CORE] * 49


def test_min_eig_numeric_qcl_needs_no_bisection(default_p, factorizations):
    lam, _ = min_eig_numeric(ModelKind.QCL, RegionDecomposition(N, K), default_p, 1.0, N)
    # Q = A_F I: the core is empty and lambda_min is A_F
    a_f = coefficients(default_p, 1.0).A
    assert abs(lam - a_f) <= 1e-14 * max(1.0, a_f)
    assert factorizations == []
