"""Stability coefficients, spectra, eigensolves, and critical strains."""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from eamchain.lattice import ChainGrid, diff, norm_l2eps
from eamchain.models import Deformation, ModelKind, RegionDecomposition, strain_hessian
from eamchain.potentials import (
    EAMPotential,
    NonFiniteError,
    ScalarFunctionC2,
    shipped_potential,
    zero_function,
)
from eamchain.solver import convergence_study
from eamchain.stability import (
    BracketError,
    StabilityCoefficients,
    _atomistic_min,
    check_assumptions,
    coefficients,
    critical_strain,
    fourier_spectrum,
    lambda_cubic,
    lambda_min,
    rayleigh_quotient,
    remark_test_functions,
    stability_key,
)

from conftest import random_displacement
from oracles import (
    dense_generalized_eigenvalues,
    hessian,
    loglog_slope,
    loop_atomistic_min,
    strain_metric_operator,
)

# Frozen output of scripts/symbolic_coefficients.py: the stability cubic of
# the default material at F = 1, derived symbolically from the per-atom
# energy (20 significant digits).
SYMBOLIC_F1 = {
    "A": 23.391386732645357443,
    "B": 0.17747703580789143811,
    "C": 0.053731869367076439004,
    "D": -0.0011154384794998612904,
}


def test_coefficients_pair_only(default_p):
    pair_only = EAMPotential(default_p.pair, zero_function(), zero_function())
    c = coefficients(pair_only, 1.02)
    assert c.C == 0.0 and c.D == 0.0
    assert c.A == pytest.approx(
        pair_only.pair.d2(1.02) + 4 * pair_only.pair.d2(2.04), rel=1e-15
    )
    # B reduces to -phi''(2F)
    assert c.B + pair_only.pair.d2(2.04) == pytest.approx(0.0, abs=1e-18)


def test_coefficients_constant_density(default_p):
    const_rho = ScalarFunctionC2(lambda r: 1.0, lambda r: 0.0, lambda r: 0.0)
    p = EAMPotential(default_p.pair, const_rho, default_p.embedding)
    c = coefficients(p, 1.1)
    assert c.C == 0.0 and c.D == 0.0
    assert c.A == pytest.approx(p.pair.d2(1.1) + 4 * p.pair.d2(2.2), rel=1e-15)
    assert c.B + p.pair.d2(2.2) == pytest.approx(0.0, abs=1e-18)


def test_coefficients_against_symbolic_oracle(default_p):
    c = coefficients(default_p, 1.0)
    assert c.A == pytest.approx(SYMBOLIC_F1["A"], rel=1e-14)
    assert c.B == pytest.approx(SYMBOLIC_F1["B"], rel=1e-14)
    assert c.C == pytest.approx(SYMBOLIC_F1["C"], rel=1e-14)
    assert c.D == pytest.approx(SYMBOLIC_F1["D"], rel=1e-14)
    with pytest.raises(ValueError):
        coefficients(default_p, -1.0)


#: The strain sweep F = 0.800, 0.801, ..., 1.300.
SWEEP = [i / 1000 for i in range(800, 1301)]


@pytest.mark.parametrize("name", ["default-eam", "reversal-eam", "pair-morse"])
def test_a_f_is_the_coupled_far_row_bitwise(name):
    # one product of the cubic's basis with the scalars: the modulus of the
    # atomistic cubic is the far-row diagonal every coupled decision reads
    p = shipped_potential(name)
    cases = [(ModelKind.QNL, K) for K in (0, 1, 8)] + [(ModelKind.QCL, 8)]
    for F in SWEEP:
        a_f = coefficients(p, F).A
        for model, K in cases:
            assert a_f == strain_hessian(model, RegionDecomposition(64, K), p, F).far[0], (model, K, F)


@pytest.mark.parametrize("name", ["default-eam", "reversal-eam", "pair-morse"])
def test_a3_is_the_modulus_above_the_zone_boundary_value(name):
    # a3 reads A_F > lambda_F(4) as -(B + 4 C + 16 D) = (A_F - lambda_F(4)) / 4 > 0
    p = shipped_potential(name)
    for F in SWEEP:
        c = coefficients(p, F)
        rep = check_assumptions(p, F)
        scale = abs(c.A) + 4 * abs(c.B) + 16 * abs(c.C) + 64 * abs(c.D)
        expected = (c.A - lambda_cubic(c, 4.0)) / 4
        assert abs(rep.raw["a3_lhs"] - expected) <= 4 * np.finfo(float).eps * scale, F
        assert rep.a3_holds == (rep.raw["a3_lhs"] > 0), F


@pytest.mark.parametrize("F", [math.inf, math.nan, 0.0])
@pytest.mark.parametrize(
    "build",
    [
        lambda p, F: coefficients(p, F),
        lambda p, F: strain_hessian(ModelKind.QNL, RegionDecomposition(16, 4), p, F),
        lambda p, F: Deformation.uniform(ChainGrid(16), F),
    ],
    ids=["coefficients", "strain_hessian", "Deformation"],
)
def test_strain_must_be_finite_and_positive(default_p, build, F):
    # at F = inf the Hessian and the coefficients came out all zero
    with pytest.raises(ValueError, match=f"F={F}"):
        build(default_p, F)


def test_coefficient_sign_relations(default_p):
    # the a1 signs force C >= 0 >= D with 8|D| <= C
    for f in np.linspace(0.95, 1.15, 9):
        c = coefficients(default_p, float(f))
        assert c.C >= 0.0 and c.D <= 0.0
        assert 8 * abs(c.D) <= c.C + 1e-18


def test_lambda_cubic_endpoints(default_p):
    c = coefficients(default_p, 1.02)
    assert lambda_cubic(c, 0.0) == c.A
    pair_only = EAMPotential(default_p.pair, zero_function(), zero_function())
    cp = coefficients(pair_only, 1.02)
    # zone boundary value of a pair chain collapses to phi''(F)
    assert lambda_cubic(cp, 4.0) == pytest.approx(pair_only.pair.d2(1.02), rel=1e-12)
    with pytest.warns(UserWarning):
        lambda_cubic(c, 4.5)


def test_lambda_cubic_monotone_under_a2(default_p):
    for f in (0.95, 1.0, 1.1, 1.15):
        c = coefficients(default_p, f)
        s = np.linspace(0.0, 4.0, 401)
        lam = c.A + c.B * s + c.C * s**2 + c.D * s**3
        assert np.all(np.diff(lam) >= -1e-12)
        # derivative lower bound B + C/2 s stays below the true slope
        slope = c.B + 2 * c.C * s + 3 * c.D * s**2
        assert np.all(slope >= c.B + 0.5 * c.C * s - 1e-12)


def test_fourier_spectrum_symmetry_and_min(default_p):
    rep = fourier_spectrum(default_p, 1.0, 8)
    g = ChainGrid(8)
    for k in range(1, 8):
        assert rep.eigenvalues[g.index(k)] == pytest.approx(
            rep.eigenvalues[g.index(-k)], rel=1e-15
        )
    assert abs(rep.min_mode) == 1
    assert rep.min_eigenvalue == pytest.approx(
        lambda_cubic(coefficients(default_p, 1.0), rep.s_values[g.index(1)]), rel=1e-15
    )


def test_fourier_spectrum_matches_dense_eigensolve(default_p):
    for n in (8, 16):
        region = RegionDecomposition(n, 2)
        h_dense = hessian(ModelKind.ATOMISTIC, region, default_p, 1.03).to_dense()
        l_dense = strain_metric_operator(ChainGrid(n)).to_dense()
        dense = np.sort(dense_generalized_eigenvalues(h_dense, l_dense))
        rep = fourier_spectrum(default_p, 1.03, n)
        mask = rep.modes != 0
        analytic = np.sort(rep.eigenvalues[mask])
        scale = np.max(np.abs(analytic))
        np.testing.assert_allclose(dense, analytic, atol=1e-9 * scale)


def test_reversal_minimizer_leaves_fundamental(reversal_p):
    # with the second-difference coefficient negative the cubic decreases,
    # so the zone-boundary mode becomes the minimizer
    rep = fourier_spectrum(reversal_p, 1.0, 64)
    assert abs(rep.min_mode) == 64


def test_min_eig_matches_fourier(default_p):
    for n in (8, 16, 32, 64):
        region = RegionDecomposition(n, 2)
        lam = lambda_min(ModelKind.ATOMISTIC, region, default_p, 1.02)
        expected = fourier_spectrum(default_p, 1.02, n).min_eigenvalue
        assert lam == pytest.approx(expected, rel=1e-9)


def test_qnl_min_eig_is_a_f_to_roundoff_at_large_n(default_p):
    # two deep-continuum bonds carry an exact A_F eigenvector, and the strain
    # Hessian keeps entries of order one at N = 2^16
    n = 2**16
    lam = lambda_min(ModelKind.QNL, RegionDecomposition(n, 8), default_p, 1.1)
    a_f = coefficients(default_p, 1.1).A
    assert abs(lam - a_f) <= 1e-14 * a_f


BRACKETS = [("default-eam", (1.0, 1.15)), ("reversal-eam", (0.95, 1.2))]


def coupled_results(model, regions, p, bracket) -> set:
    """The distinct (lambda_min at F = 1 and 1.1, critical strain) of
    ``model`` over ``regions``, after checking that they share one
    stability_key: drivers compute these once per key."""
    assert len({stability_key(model, region) for region in regions}) == 1
    return {
        (lambda_min(model, r, p, 1.0), lambda_min(model, r, p, 1.1), critical_strain(model, r, p, bracket))
        for r in regions
    }


@pytest.mark.parametrize("name,bracket", BRACKETS)
def test_qnl_stability_does_not_depend_on_n(name, bracket):
    # the decisions see only the 2K+4 core rows and A_F, the same at every N;
    # the reversal core has an eigenvalue below A_F, so bisection runs there
    p = shipped_potential(name)
    for k in (0, 1, 8, 64):
        regions = [RegionDecomposition(n, k) for n in (k + 6, 64, 4096, 2**18 + 1) if n >= k + 6]
        assert len(coupled_results(ModelKind.QNL, regions, p, bracket)) == 1, k


@pytest.mark.parametrize("name,bracket", BRACKETS)
def test_qcl_stability_depends_on_neither_n_nor_k(name, bracket):
    # Q = A_F I: no core, so nothing of the region enters a decision
    p = shipped_potential(name)
    regions = [RegionDecomposition(n, k) for k in (0, 1, 8, 64) for n in (k + 6, 64, 4096) if n >= k + 6]
    assert len(coupled_results(ModelKind.QCL, regions, p, bracket)) == 1


_DEFAULT = shipped_potential("default-eam")
ATOMISTIC_MIN_POTENTIALS = [
    *(shipped_potential(name) for name in ("default-eam", "reversal-eam", "pair-morse")),
    EAMPotential(_DEFAULT.pair, zero_function(), zero_function(), "pair-only"),
    EAMPotential(
        _DEFAULT.pair,
        ScalarFunctionC2(lambda r: 1.0, lambda r: 0.0, lambda r: 0.0),
        _DEFAULT.embedding,
        "constant-density",
    ),
]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.sampled_from(ATOMISTIC_MIN_POTENTIALS),
    st.floats(0.9, 1.25),
    st.one_of(st.integers(4, 300), st.integers(4, 2**16)),
)
def test_atomistic_min_matches_loop_oracle(p, F, N):
    # the candidate modes give the minimum over all N modes bitwise
    c = coefficients(p, F)
    assert _atomistic_min(c, N) == loop_atomistic_min(c, N)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
    st.sampled_from(["cubic", "quadratic", "linear", "constant"]),
    st.integers(4, 5000),
)
def test_atomistic_min_of_degenerate_cubics_matches_loop_oracle(abcd, degree, N):
    # D = 0 leaves one critical point, C = D = 0 none: the candidates still
    # hold the minimum of every cubic, not only of the shipped potentials'
    a, b, c, d = abcd
    d = d if degree == "cubic" else 0.0
    c = c if degree in ("cubic", "quadratic") else 0.0
    b = b if degree != "constant" else 0.0
    coeffs = StabilityCoefficients(F=1.0, A=a, B=b, C=c, D=d)
    assert _atomistic_min(coeffs, N) == loop_atomistic_min(coeffs, N)


def test_atomistic_min_eig_is_the_fourier_minimum_at_large_n(default_p):
    n = 2**16
    region = RegionDecomposition(n, 8)
    lam = lambda_min(ModelKind.ATOMISTIC, region, default_p, 1.05)
    expected = fourier_spectrum(default_p, 1.05, n).min_eigenvalue
    assert abs(lam - expected) <= 1e-14 * expected


def test_qcl_min_eig_equals_modulus(default_p):
    for n in (16, 32):
        region = RegionDecomposition(n, 4)
        lam = lambda_min(ModelKind.QCL, region, default_p, 1.04)
        assert lam == pytest.approx(coefficients(default_p, 1.04).A, abs=1e-10)


def test_coupled_lambda_min_at_a_f_is_a_f_bit_for_bit(default_p):
    # the far row of the strain Hessian can differ from A_F in the last bit,
    # and a reported lambda_min must not exceed the reported A_F
    records, _ = convergence_study(default_p, 1.0, [RegionDecomposition(n, 8) for n in [64, 128, 256, 512, 1024]])
    assert [r.lambda_min_qnl for r in records] == [r.a_modulus for r in records]
    for f in (0.95, 1.0, 1.02, 1.05, 1.1):
        assert lambda_min(ModelKind.QCL, RegionDecomposition(64, 8), default_p, f) == coefficients(default_p, f).A


def test_qnl_stability_sign_matches_modulus(default_p):
    # both sides of the critical strain: lambda_min and A_F share their sign
    region = RegionDecomposition(32, 6)
    for f in (1.09, 1.12):
        lam = lambda_min(ModelKind.QNL, region, default_p, f)
        assert np.sign(lam) == np.sign(coefficients(default_p, f).A)


def test_sharp_lower_bound(default_p, rng):
    # every zero-mean field obeys the fundamental-mode bound
    n = 16
    region = RegionDecomposition(n, 4)
    hop = hessian(ModelKind.ATOMISTIC, region, default_p, 1.02)
    lam1 = fourier_spectrum(default_p, 1.02, n).min_eigenvalue
    grid = ChainGrid(n)
    for _ in range(100):
        u = random_displacement(grid, rng, strain_scale=1.0)
        q = hop.quadratic_form(u)
        assert q >= lam1 * norm_l2eps(diff(u, 1)) ** 2 - 1e-10


def _curvature_isolation_potential():
    """Surgical material: only the embedding-curvature terms survive.

    The density slope is a cubic with rho'(F) = -2, rho'(2F) = 1 and zero
    curvature at both points, so the modulus and second-difference
    coefficients cancel exactly and the quadratic form reduces to the
    third/fourth-difference group; phi = 0 and G = d^2/2.
    """
    F = 1.0
    # cubic Hermite: p(F) = -2, p(2F) = 1, p'(F) = p'(2F) = 0
    a = np.zeros((4, 4))
    b = np.array([-2.0, 1.0, 0.0, 0.0])
    for i, r in enumerate((F, 2 * F)):
        a[i] = [1.0, r, r**2, r**3]
        a[i + 2] = [0.0, 1.0, 2 * r, 3 * r**2]
    coeff = np.linalg.solve(a, b)
    p_slope = np.polynomial.Polynomial(coeff)
    rho = p_slope.integ()
    gq = ScalarFunctionC2(lambda d: 0.5 * d * d, lambda d: d, lambda d: 1.0)
    rho_fn = ScalarFunctionC2(
        lambda r: rho(r),
        lambda r: p_slope(r),
        lambda r: p_slope.deriv()(r),
    )
    return EAMPotential(zero_function(), rho_fn, gq, "curvature-isolation"), F


def test_interface_curvature_terms_nonnegative(rng):
    # the assembled third/fourth-difference interface group of the coupled
    # second variation, isolated on its own, never goes negative
    p, F = _curvature_isolation_potential()
    c = coefficients(p, F)
    assert abs(c.A) <= 1e-12 and abs(c.B) <= 1e-12
    assert c.C > 0 > c.D
    region = RegionDecomposition(16, 4)
    hop = hessian(ModelKind.QNL, region, p, F)
    grid = ChainGrid(16)
    for _ in range(100):
        u = random_displacement(grid, rng, strain_scale=1.0)
        assert hop.quadratic_form(u) >= -1e-12


def test_qnl_quadratic_form_interface_decomposition(default_p, rng):
    # for strain variation confined to one side, the coupled quadratic form
    # decomposes into the modulus term plus difference terms that truncate
    # at the transition atoms with reduced coefficients: the second
    # difference carries [1, 16, 11] / [0, 8, 5] density combinations at the
    # two transition rows and the third difference carries C/2 at the outer
    # one; matching these closed forms pins every interface table entry
    from eamchain.lattice import displacement_from_strain

    n, k = 32, 10
    grid = ChainGrid(n)
    region = RegionDecomposition(n, k)
    f_val = 1.03
    eps = grid.epsilon
    c = coefficients(default_p, f_val)
    dbar = 2 * default_p.density(f_val) + 2 * default_p.density(2 * f_val)
    g1, g2 = default_p.embedding.d1(dbar), default_p.embedding.d2(dbar)
    r1, r12 = default_p.density.d1(f_val), default_p.density.d1(2 * f_val)
    r22 = default_p.density.d2(2 * f_val)
    phi22 = default_p.pair.d2(2 * f_val)
    c_inner = phi22 + g2 * (r1**2 + 16 * r12**2 + 11 * r1 * r12) + 2 * g1 * r22
    c_outer = phi22 + g2 * (8 * r12**2 + 5 * r1 * r12) + 2 * g1 * r22
    hop = hessian(ModelKind.QNL, region, default_p, f_val)
    for _ in range(10):
        s = np.zeros(2 * n)
        support = list(range(3, k + 6))
        vals = rng.uniform(-1, 1, len(support))
        vals -= vals.mean()
        for b, v in zip(support, vals):
            s[grid.index(b)] = v
        s[grid.index(support[-1])] -= s.sum()
        u = displacement_from_strain(grid, s)
        d = [diff(u, order).values for order in (1, 2, 3, 4)]

        def at(vals_, l):
            return vals_[grid.index(l)]

        rhs = c.A * eps * np.sum(d[0] ** 2)
        rhs += eps**3 * (
            c.B * sum(at(d[1], l) ** 2 for l in range(0, k + 1))
            - c_inner * at(d[1], k + 1) ** 2
            - c_outer * at(d[1], k + 2) ** 2
        )
        rhs += eps**5 * (
            c.C * sum(at(d[2], l) ** 2 for l in range(0, k + 2))
            + 0.5 * c.C * at(d[2], k + 2) ** 2
        )
        rhs += eps**7 * c.D * sum(at(d[3], l) ** 2 for l in range(0, k + 3))
        lhs = hop.quadratic_form(u)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_critical_strain_qcl_vs_scalar_root(default_p):
    region = RegionDecomposition(32, 6)
    f_star = critical_strain(ModelKind.QCL, region, default_p, (1.0, 1.15))
    a_root = scipy.optimize.brentq(
        lambda f: coefficients(default_p, f).A, 1.0, 1.15, xtol=1e-14
    )
    assert f_star == pytest.approx(a_root, abs=2e-10)


def test_critical_strain_bad_bracket(default_p):
    region = RegionDecomposition(16, 4)
    with pytest.raises(BracketError):
        critical_strain(ModelKind.ATOMISTIC, region, default_p, (1.0, 1.02))


@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_critical_strain_rejects_bad_tolerance(default_p, model, tol):
    # tol <= 0 never returned, and tol = nan returned the bracket midpoint
    with pytest.raises(ValueError, match="tolerance"):
        critical_strain(model, RegionDecomposition(16, 4), default_p, (1.0, 1.15), tol=tol)


@pytest.mark.parametrize("model", list(ModelKind))
def test_critical_strain_stops_at_adjacent_floats(default_p, model):
    # a tolerance below the float spacing ends where the bracket cannot shrink
    region = RegionDecomposition(16, 4)
    f_star = critical_strain(model, region, default_p, (1.0, 1.15), tol=1e-300)
    assert abs(f_star - critical_strain(model, region, default_p, (1.0, 1.15), tol=1e-15)) <= 1e-15


@pytest.mark.parametrize("model", list(ModelKind))
def test_critical_strain_rejects_non_finite_bracket_end(default_p, model):
    # an infinite upper end used to keep the bisection midpoint at inf forever
    with pytest.raises(BracketError, match="inf"):
        critical_strain(model, RegionDecomposition(16, 4), default_p, (1.0, math.inf))


def test_critical_strain_atomistic_gap_shrinks(default_p):
    region32 = RegionDecomposition(32, 6)
    region64 = RegionDecomposition(64, 6)
    f_qcl = critical_strain(ModelKind.QCL, region32, default_p, (1.0, 1.15))
    gap32 = abs(critical_strain(ModelKind.ATOMISTIC, region32, default_p, (1.0, 1.15)) - f_qcl)
    gap64 = abs(critical_strain(ModelKind.ATOMISTIC, region64, default_p, (1.0, 1.15)) - f_qcl)
    assert gap64 < gap32 / 3  # O(eps^2) shrink: factor ~4 per doubling


def test_remark_test_functions_shapes():
    n, k = 32, 8
    u_tilde, u_hat = remark_test_functions(n, k)
    assert norm_l2eps(diff(u_tilde, 1)) == pytest.approx(1.0, rel=1e-14)
    eps = 1.0 / n
    expected = eps * (k - 1) + eps / 4.0
    assert norm_l2eps(diff(u_hat, 1)) ** 2 == pytest.approx(expected, rel=1e-12)
    # strains: full amplitude inside, half amplitude at the support edges
    du = diff(u_hat, 1)
    grid = u_hat.grid
    assert du[k] == pytest.approx((-1.0) ** k / (2 * np.sqrt(2)), rel=1e-12)
    assert du[-(k - 1)] == pytest.approx((-1.0) ** (k - 1) / (2 * np.sqrt(2)), rel=1e-12)
    assert du[k + 2] == 0.0
    with pytest.raises(ValueError):
        remark_test_functions(n, 1)
    with pytest.raises(ValueError):
        remark_test_functions(n, n - 2)


def test_oscillatory_rayleigh_quotient_closed_form(reversal_p):
    # <H u~, u~> = phi''(F) + 2 G'_F rho''(F) for the alternating mode
    n, k = 32, 8
    region = RegionDecomposition(n, k)
    u_tilde, _ = remark_test_functions(n, k)
    F = 1.0
    dbar = 2 * reversal_p.density(F) + 2 * reversal_p.density(2 * F)
    target = reversal_p.pair.d2(F) + 2 * reversal_p.embedding.d1(dbar) * reversal_p.density.d2(F)
    rq = rayleigh_quotient(ModelKind.ATOMISTIC, region, reversal_p, F, u_tilde)
    assert rq == pytest.approx(target, abs=1e-10)


def test_truncated_mode_quotient_decays_like_one_over_k(reversal_p):
    F = 1.0
    dbar = 2 * reversal_p.density(F) + 2 * reversal_p.density(2 * F)
    target = reversal_p.pair.d2(F) + 2 * reversal_p.embedding.d1(dbar) * reversal_p.density.d2(F)
    gaps, ks = [], []
    for k in (8, 16, 32, 64):
        n = 2 * k
        region = RegionDecomposition(n, k)
        _, u_hat = remark_test_functions(n, k)
        rq = rayleigh_quotient(ModelKind.QNL, region, reversal_p, F, u_hat)
        gaps.append(abs(rq - target))
        ks.append(k)
    exponent = loglog_slope([1.0 / k for k in ks], gaps)
    assert exponent == pytest.approx(1.0, abs=0.3)


@pytest.mark.parametrize("n_field", [32, 128])
def test_rayleigh_quotient_rejects_a_field_of_another_size(reversal_p, n_field):
    # unchecked, at N = 128 the core rows of Q on N = 64 would miss the
    # support of u_hat and the quotient would read A_F; at N = 32 they would
    # index past the field
    _, u_hat = remark_test_functions(n_field, 8)
    with pytest.raises(ValueError, match="128 values applied to"):
        rayleigh_quotient(ModelKind.QNL, RegionDecomposition(64, 8), reversal_p, 1.0, u_hat)


@pytest.mark.parametrize("name", ["default-eam", "reversal-eam", "pair-morse"])
@pytest.mark.parametrize("F", [0.95, 1.0, 1.05, 1.1])
def test_zone_boundary_cubic_value_is_oscillatory_curvature(name, F):
    # lambda_F(4) = phi''(F) + 2 G'(rho_bar) rho''(F), the remark 4.4 target
    p = shipped_potential(name)
    dbar = 2 * p.density(F) + 2 * p.density(2 * F)
    target = p.pair.d2(F) + 2 * p.embedding.d1(dbar) * p.density.d2(F)
    assert lambda_cubic(coefficients(p, F), 4.0) == pytest.approx(target, rel=1e-14)


@pytest.mark.parametrize("model", list(ModelKind))
def test_non_finite_hessian_raises(default_p, model):
    # a density whose curvature is not a number at the next-nearest distance
    rho = default_p.density
    nan_at_2f = ScalarFunctionC2(rho.eval, rho.d1, lambda r: np.where(r > 1.5, np.nan, rho.d2(r)))
    p = EAMPotential(default_p.pair, nan_at_2f, default_p.embedding, "nan-curvature")
    region = RegionDecomposition(16, 4)
    for call in (lambda: lambda_min(model, region, p, 1.0), lambda: coefficients(p, 1.0)):
        with pytest.raises(NonFiniteError, match="'nan-curvature'.*F=1.0"):
            call()
