"""Potential families, file parsing, derivative and assumption checks."""

import math

import numpy as np
import pytest

from eamchain.potentials import (
    STABLE_RANGES,
    EAMPotential,
    NonFiniteError,
    ScalarFunctionC2,
    expdecay_density,
    load_potential_file,
    morse_pair,
    parse_potential,
    quadratic_embedding,
    shipped_potential,
    validate_derivatives,
    zero_function,
)
from eamchain.stability import check_assumptions, coefficients
from eamchain.textconfig import ConfigError

PROBE = np.arange(0.8, 2.41, 0.1)


def test_morse_curvature_signs():
    # phi''(1) = 2 alpha^2 and phi''(2) = 4 a^2 e^{-2a} - 2 a^2 e^{-a}
    alpha = 4.0
    phi = morse_pair(alpha)
    assert phi.d2(1.0) == pytest.approx(2 * alpha**2, rel=1e-14)
    expected = 4 * alpha**2 * math.exp(-2 * alpha) - 2 * alpha**2 * math.exp(-alpha)
    assert phi.d2(2.0) == pytest.approx(expected, rel=1e-14)
    assert phi.d2(2.0) < 0


@pytest.mark.parametrize("alpha", [3.0, 4.0, 5.0])
def test_morse_from_one_exponential(alpha):
    # eval and d1 are written in e = exp(-alpha (r-1)) alone; d2 keeps its
    # two exponentials bit for bit, as every uniform-state result reads it
    phi = morse_pair(alpha)
    r = np.linspace(0.5, 3.0, 2501)
    e, e2 = np.exp(-alpha * (r - 1)), np.exp(-2 * alpha * (r - 1))
    scale = 1e-14 * (np.abs(e) + e * e)
    assert np.all(np.abs(phi.eval(r) - (e2 - 2 * e)) <= scale)
    assert np.all(np.abs(phi.d1(r) - (-2 * alpha * e2 + 2 * alpha * e)) <= scale)

    def d2(x):
        return 4 * alpha**2 * np.exp(-2 * alpha * (x - 1)) - 2 * alpha**2 * np.exp(-alpha * (x - 1))

    assert np.array_equal(phi.d2(r), d2(r))
    assert all(phi.d2(x) == d2(x) for x in map(float, r[::50]))


def test_validate_derivatives_polynomial():
    sq = ScalarFunctionC2(lambda r: r * r, lambda r: 2 * r, lambda r: 2.0)
    p = EAMPotential(sq, zero_function(), zero_function())
    ok, worst = validate_derivatives(p, PROBE)
    assert ok and worst <= 1e-10


def test_validate_derivatives_negative_control():
    wrong = ScalarFunctionC2(lambda r: r * r, lambda r: 3 * r, lambda r: 3.0)
    p = EAMPotential(wrong, zero_function(), zero_function())
    ok, worst = validate_derivatives(p, PROBE)
    assert not ok
    assert worst == pytest.approx(0.5, rel=0.05)


@pytest.mark.parametrize("name", ["default-eam", "reversal-eam", "pair-morse"])
def test_shipped_potentials_validate(name):
    ok, worst = validate_derivatives(shipped_potential(name), PROBE)
    assert ok, f"derivative deviation {worst:.3e}"


def test_assumptions_pair_only_morse():
    p = EAMPotential(morse_pair(4.0), zero_function(), zero_function())
    rep = check_assumptions(p, 1.0)
    assert rep.a1_holds
    # density/embedding clauses hold with equality for the degenerate triple
    assert rep.raw["rho_d_F"] == 0.0 and rep.raw["G_dd"] == 0.0
    assert rep.a2_holds  # -B = phi''(2F) < 0
    with pytest.raises(ValueError):
        check_assumptions(p, 0.0)


def test_assumptions_default_and_reversal_at_unit_strain(default_p, reversal_p):
    rep = check_assumptions(default_p, 1.0)
    assert rep.a1_holds and rep.a2_holds and not rep.a3_holds
    rep = check_assumptions(reversal_p, 1.0)
    assert rep.a1_holds and not rep.a2_holds and rep.a3_holds


def test_assumption_booleans_match_raw_signs(default_p):
    rep = check_assumptions(default_p, 1.07)
    assert rep.a2_holds == (rep.raw["minus_B"] <= 0)
    assert rep.a3_holds == (rep.raw["a3_lhs"] > 0)


@pytest.mark.parametrize("name", ["default-eam", "reversal-eam", "pair-morse"])
def test_a2_is_the_sign_of_the_stability_cubic_b(name):
    # the assumption report reads B off the same product as the stability
    # coefficients; a2 (-B <= 0) must test the same number bit for bit
    p = shipped_potential(name)
    for F in (i / 100 for i in range(80, 131)):
        assert check_assumptions(p, F).raw["minus_B"] == -coefficients(p, F).B, F


def test_assumption_report_keeps_a_b_that_overflows():
    # rho'(F)^2 overflows: the report holds inf where coefficients raises
    p = EAMPotential(morse_pair(4.0), expdecay_density(400.0), quadratic_embedding(0.05, 0.5))
    with np.errstate(over="ignore"):
        rep = check_assumptions(p, 0.05)
    assert rep.raw["minus_B"] == np.inf and not rep.a2_holds
    with pytest.raises(NonFiniteError):
        coefficients(p, 0.05)


def test_assumption_report_deterministic(default_p):
    a = check_assumptions(default_p, 1.03)
    b = check_assumptions(default_p, 1.03)
    assert a.raw == b.raw and (a.a1_holds, a.a2_holds, a.a3_holds) == (
        b.a1_holds,
        b.a2_holds,
        b.a3_holds,
    )


def test_documented_stable_ranges():
    # the scanned window: a1 on every shipped potential, a2 on the default,
    # a1 & a3 & not-a2 on the reversal material
    for name, (lo, hi) in STABLE_RANGES.items():
        p = shipped_potential(name)
        for f in np.linspace(lo, hi, 21):
            rep = check_assumptions(p, float(f))
            assert rep.a1_holds, f"{name} a1 fails at F={f}"
            if name == "default-eam":
                assert rep.a2_holds, f"{name} a2 fails at F={f}"
            if name == "reversal-eam":
                assert rep.a3_holds and not rep.a2_holds, f"{name} regime breaks at F={f}"


def test_parse_roundtrip(tmp_path):
    text = (
        "name = demo\n"
        "family.pair = morse\n"
        "family.density = expdecay\n"
        "family.embedding = quadratic\n"
        "alpha = 4\nbeta = 3\nc0 = 0.05\nc1 = 0.5\n"
    )
    path = tmp_path / "demo.pot"
    path.write_text(text)
    p = load_potential_file(path)
    assert p.name == "demo"
    assert p.pair.d2(1.0) == pytest.approx(32.0, rel=1e-14)
    assert p.embedding.d2(0.0) == 0.05


def test_parse_unknown_key_is_hard_error_with_line():
    text = "name = demo\nfamily.pair = morse\ncutoff = 2.5\nalpha = 4\n"
    with pytest.raises(ConfigError, match=r"<string>:3: unknown key 'cutoff'"):
        parse_potential(text)


def test_parse_duplicate_key_is_hard_error_with_line():
    text = "family.pair = morse\nalpha = 4\nalpha = 5\n"
    with pytest.raises(ConfigError, match=r"<string>:3: duplicate key 'alpha'"):
        parse_potential(text)


def test_parse_bad_line_and_missing_param():
    with pytest.raises(ConfigError, match=":2:"):
        parse_potential("name = x\njunk line\n")
    with pytest.raises(ConfigError, match="alpha"):
        parse_potential("family.pair = morse\n")
    with pytest.raises(ConfigError, match="unknown pair family"):
        parse_potential("family.pair = lennardjones\n")


def test_quadratic_embedding_shape():
    g = quadratic_embedding(0.05, 0.5)
    # G' < 0 below the minimum at c1/c0, matching the tensile-strain regime
    assert g.d1(2.0) < 0 and g.d2(123.0) == 0.05


@pytest.mark.parametrize("key", ["alpha", "beta", "c0", "c1"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_parse_rejects_non_finite_parameters(key, value):
    params = {"alpha": "4", "beta": "3", "c0": "0.05", "c1": "0.5"} | {key: value}
    text = (
        "family.pair = morse\nfamily.density = expdecay\nfamily.embedding = quadratic\n"
        + "".join(f"{k} = {v}\n" for k, v in params.items())
    )
    with pytest.raises(ConfigError, match=rf"demo.pot: parameter '{key}' must be finite"):
        parse_potential(text, origin="demo.pot")
