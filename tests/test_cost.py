"""Deterministic cost guards of the uniform-state stability drivers and the
deformed-state evaluators.  They count work, not seconds: banded Cholesky
factorizations at N = 2^12, each of only the 2K+4 core rows of the strain
Hessian; strain Hessians built, two per consistency point and per
rate-study point plus one per distinct K; evaluations of the potential,
once per strain, and at a deformed state once per distinct argument;
layouts compiled, none per new N and at most three per model over every
K; and the modes of the stability cubic an atomistic decision evaluates,
a few at any N."""

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
import pytest

from eamchain import cli, models, solver, stability
from eamchain.lattice import ChainGrid
from eamchain.models import Deformation, ModelKind, RegionDecomposition, energy, gradient, strain_hessian
from eamchain.potentials import (
    EAMPotential,
    NonFiniteError,
    ScalarFunctionC2,
    expdecay_density,
    morse_pair,
    quadratic_embedding,
    shipped_potential,
)
from eamchain.solver import consistency_point, convergence_study, cosine_load
from eamchain.stability import coefficients, critical_strain, lambda_min

from conftest import random_displacement

N = 4096
K = 8
CORE = 2 * K + 4


@pytest.fixture
def factorizations(monkeypatch):
    """Column count of every ``dpbtrf`` call on the LAPACK module that
    ``stability`` loads."""
    columns = []
    factor = stability._flapack.dpbtrf

    def counted(ab, *args, **kwargs):
        columns.append(ab.shape[1])
        return factor(ab, *args, **kwargs)

    monkeypatch.setattr(stability._flapack, "dpbtrf", counted)
    return columns


def test_critical_strain_factors_the_core_once_per_stable_step(default_p, factorizations):
    lo, hi = 1.0, 1.15
    f_star = critical_strain(ModelKind.QNL, RegionDecomposition(N, K), default_p, (lo, hi), tol=1e-10)
    steps = math.ceil(math.log2((hi - lo) / 1e-10))
    assert steps == 31 and coefficients(default_p, f_star + 1e-9).A < 0
    # one core factorization per evaluation with A_F > 0: the stable end and
    # the 17 midpoints below F_star; A_F < 0 decides the unstable end and the
    # other 14 midpoints without one
    assert factorizations == [CORE] * 18


def test_critical_strain_qcl_factors_nothing(default_p, factorizations):
    # QCL's strain Hessian is A_F I: the sign of A_F decides every step
    critical_strain(ModelKind.QCL, RegionDecomposition(N, K), default_p, (1.0, 1.15), tol=1e-10)
    assert factorizations == []


def test_min_eig_numeric_factorization_count(default_p, reversal_p, factorizations):
    lambda_min(ModelKind.QNL, RegionDecomposition(N, K), default_p, 1.0)
    # the core has no eigenvalue below A_F: one probe a tolerance below it
    # factors, and lambda_min is A_F
    assert factorizations == [CORE]
    factorizations.clear()
    lambda_min(ModelKind.QNL, RegionDecomposition(N, K), reversal_p, 1.0)
    # the core minimum lies below A_F: the failed probe, then 42 halvings,
    # each of the core alone, from the block's Gershgorin bound and smallest
    # diagonal entry down to 1e-14 relative
    assert factorizations == [CORE] * 43


def test_min_eig_numeric_qcl_needs_no_bisection(default_p, factorizations):
    lam = lambda_min(ModelKind.QCL, RegionDecomposition(N, K), default_p, 1.0)
    # Q = A_F I: the core is empty and lambda_min is A_F
    a_f = coefficients(default_p, 1.0).A
    assert abs(lam - a_f) <= 1e-14 * max(1.0, a_f)
    assert factorizations == []


def counting_potential(p: EAMPotential, strains: list) -> EAMPotential:
    """``p`` with a ``pair.d2`` that appends its argument to ``strains``;
    every evaluation of the uniform state calls it at F and 2F."""

    def d2(r):
        strains.append(r)
        return p.pair.d2(r)

    return EAMPotential(ScalarFunctionC2(p.pair.eval, p.pair.d1, d2), p.density, p.embedding, p.name)


def test_readme_critical_strain_run_evaluates_each_strain_once(monkeypatch, tmp_path):
    strains = []
    potential = counting_potential(shipped_potential("default-eam"), strains)
    monkeypatch.setattr(cli, "load_potential_file", lambda path: potential)
    visits = []
    uniform = stability._uniform_derivatives

    def counted(p, F):
        visits.append(F)
        return uniform(p, F)

    monkeypatch.setattr(stability, "_uniform_derivatives", counted)
    monkeypatch.setattr(models, "_uniform_derivatives", counted)
    pot = str(resources.files("eamchain").joinpath("data", "default_eam.pot"))
    args = ["--command", "critical-strain", "--potential", pot, "--F-range", "1.0:1.15"]
    assert cli.main(args + ["--N", "32,64,128", "--K", "8", "--out-dir", str(tmp_path)]) == 0
    # 165 decisions visit 87 strains; the potential is evaluated at each once.
    # The atomistic chain is bisected at each N, QNL once for the one K and
    # QCL once: 5 bisections of 33 decisions each
    assert (len(visits), len(set(visits))) == (165, 87)
    assert strains == [r for F in dict.fromkeys(visits) for r in (F, 2 * F)]


def test_convergence_study_evaluates_the_strain_once(default_p):
    strains = []
    p = counting_potential(default_p, strains)
    convergence_study(p, 1.0, [RegionDecomposition(n, 8) for n in [64, 128, 256, 512, 1024]])
    assert strains == [1.0, 2.0]


def test_study_points_build_few_strain_hessians(default_p, monkeypatch):
    # a consistency point builds Q_atomistic and Q_qnl once, for the
    # atomistic solve and the stress difference; a rate-study point solves
    # QNL with that Q_qnl, and lambda_min builds one more per distinct K
    builds = []
    build = models.strain_hessian

    def counted(*args):
        builds.append(args[0])
        return build(*args)

    monkeypatch.setattr(solver, "strain_hessian", counted)
    monkeypatch.setattr(stability, "strain_hessian", counted)
    n = 256
    consistency_point(RegionDecomposition(n, K), default_p, 1.0, cosine_load(ChainGrid(n)))
    assert len(builds) <= 2
    builds.clear()
    n_list = [64, 128, 256]
    convergence_study(default_p, 1.0, [RegionDecomposition(n, K) for n in n_list])
    assert len(builds) <= 2 * len(n_list) + 1


def argument_counting_potential(p: EAMPotential, sizes: dict) -> EAMPotential:
    """``p`` whose ``density.eval``, ``density.d1``, ``pair.eval`` and
    ``pair.d1`` add the number of arguments of each call to ``sizes`` under
    their names."""

    def counted(name, fn):
        def f(x):
            sizes[name] = sizes.get(name, 0) + np.size(x)
            return fn(x)

        return f

    pair = ScalarFunctionC2(counted("pair.eval", p.pair.eval), counted("pair.d1", p.pair.d1), p.pair.d2)
    density = ScalarFunctionC2(
        counted("density.eval", p.density.eval), counted("density.d1", p.density.d1), p.density.d2
    )
    return EAMPotential(pair, density, p.embedding, p.name)


def test_deformed_state_evaluates_each_argument_once(default_p, rng):
    # r_b and r_b + r_{b+1} (atomistic), r_b and r_b + r_b (QCL): 2N
    # arguments each, however many atoms share them.  QNL evaluates r_b at
    # every bond, r_b + r_{b+1} on the 2K+3 bonds around the core and
    # r_b + r_b on the others, bond -K-1 as both: one argument more.  At
    # K = 8, a wide core K = N/4, and K = N-3, where the transition stencils
    # wrap the period
    n = 256
    y = Deformation(1.02, random_displacement(ChainGrid(n), rng))
    for k in (K, n // 4, n - 3):
        region = RegionDecomposition(n, k)
        for model, extra in ((ModelKind.ATOMISTIC, 0), (ModelKind.QCL, 0), (ModelKind.QNL, 1)):
            for evaluate, members in (
                (energy, ("density.eval", "pair.eval")),
                (gradient, ("density.eval", "density.d1", "pair.d1")),
            ):
                sizes = {}
                evaluate(model, region, argument_counting_potential(default_p, sizes), y)
                assert sizes == {member: 2 * 2 * n + extra for member in members}


def test_coupled_decision_at_a_new_n_compiles_no_layout(default_p):
    region = RegionDecomposition(2**18 + 1, K)
    lambda_min(ModelKind.QNL, RegionDecomposition(64, K), default_p, 1.0)
    misses = models._core_basis.cache_info().misses
    critical_strain(ModelKind.QNL, region, default_p, (1.0, 1.15))
    lambda_min(ModelKind.QNL, region, default_p, 1.0)
    strain_hessian(ModelKind.QNL, region, default_p, 1.0)
    assert models._core_basis.cache_info().misses == misses


def test_strain_hessians_at_every_k_compile_one_small_layout_per_model(default_p, monkeypatch):
    # the QNL core basis is compiled at K = 0, 1 and 2 and stretched to every
    # larger K, so the compiled state does not depend on K
    compiled = {}
    basis = models._core_basis

    def recorded(kind, k):
        layout = basis(kind, k)
        compiled[kind, k] = len(layout) // (models.STRAIN_HALF_BANDWIDTH + 1)
        return layout

    monkeypatch.setattr(models, "_core_basis", recorded)
    for k in (0, 1, 2, 3, 64, 4096, 75000):
        region = RegionDecomposition(4 * k + 8, k)
        for model in ModelKind:
            q = strain_hessian(model, region, default_p, 1.0)
            assert len(q.core) == (2 * k + 4 if model == ModelKind.QNL else 0)
    for model, most in ((ModelKind.QNL, 3), (ModelKind.ATOMISTIC, 1), (ModelKind.QCL, 1)):
        assert 1 <= sum(kind == model for kind, _ in compiled) <= most
    assert max(compiled.values()) <= 9  # core rows and the far row


def test_atomistic_decision_evaluates_few_modes(default_p, reversal_p, monkeypatch):
    sizes = []
    symbol = stability._symbol

    def counted(c, modes, N):
        sizes.append(len(modes))
        return symbol(c, modes, N)

    monkeypatch.setattr(stability, "_symbol", counted)
    n = 2**18
    for p, bracket in ((default_p, (1.0, 1.15)), (reversal_p, (0.95, 1.2))):
        critical_strain(ModelKind.ATOMISTIC, RegionDecomposition(n, K), p, bracket)
    # modes 1 and N, and 7 beside each of at most two critical points
    assert sizes and max(sizes) <= 16


def test_non_finite_uniform_state_raises_on_every_call():
    p = EAMPotential(morse_pair(800.0), expdecay_density(3.0), quadratic_embedding(0.05, 0.5), "steep")
    region = RegionDecomposition(16, 4)
    for _ in range(2):
        with pytest.raises(NonFiniteError, match="stability coefficient"):
            coefficients(p, 0.5)
        for model in ModelKind:
            with pytest.raises(NonFiniteError, match="strain Hessian"):
                strain_hessian(model, region, p, 0.5)


@dataclass
class Unhashable:
    """A callable that compares by value, so it has no hash."""

    fn: object

    def __call__(self, r):
        return self.fn(r)


def test_potential_with_unhashable_callables(default_p):
    pair = default_p.pair
    p = EAMPotential(
        ScalarFunctionC2(Unhashable(pair.eval), Unhashable(pair.d1), Unhashable(pair.d2)),
        default_p.density,
        default_p.embedding,
    )
    with pytest.raises(TypeError):
        hash(p)
    region = RegionDecomposition(64, K)
    for model in ModelKind:
        assert critical_strain(model, region, p, (1.0, 1.15)) == critical_strain(
            model, region, default_p, (1.0, 1.15)
        )
        assert lambda_min(model, region, p, 1.0) == lambda_min(model, region, default_p, 1.0)
