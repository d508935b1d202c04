#!/usr/bin/env python3
"""Independent symbolic derivation of the stability cubic coefficients.

Starting from nothing but the per-atom energy definition, this script
differentiates the translation-invariant chain energy symbolically (sympy)
to get the strain-space Hessian stencil q_0..q_3 at a uniform state, folds
the stencil into its Fourier symbol

    Q(theta) = q_0 + 2 q_1 cos(theta) + 2 q_2 cos(2 theta) + 2 q_3 cos(3 theta),

and rewrites the symbol as a cubic in s = 2 - 2 cos(theta).  eamchain.stability
reads the same symbol off its compiled strain-Hessian basis (the atomistic
far row); the values for the default material at F = 1 are frozen into the
test suite and checked against the library in CI.

Needs sympy (pre-installed in the dev environment, not a package
dependency).  Run from the repo root:

    python3 scripts/symbolic_coefficients.py
"""

from __future__ import annotations

import sympy as sp

ALPHA = sp.Integer(4)
BETA = sp.Integer(3)
C0 = sp.Rational(1, 20)   # default-eam: c0 = 0.05
C1 = sp.Rational(1, 2)    # default-eam: c1 = 0.5
F_EVAL = sp.Integer(1)


def phi(r):
    return sp.exp(-2 * ALPHA * (r - 1)) - 2 * sp.exp(-ALPHA * (r - 1))


def rho(r):
    return sp.exp(-BETA * (r - 1))


def embed(d):
    return C0 / 2 * d**2 - C1 * d


def atom_energy(r, l):
    """Per-atom energy at site l as a function of the strain symbols r."""
    dbar = rho(r[l]) + rho(r[l] + r[l - 1]) + rho(r[l + 1]) + rho(r[l + 1] + r[l + 2])
    pair = (
        phi(r[l]) + phi(r[l] + r[l - 1]) + phi(r[l + 1]) + phi(r[l + 1] + r[l + 2])
    ) / 2
    return embed(dbar) + pair


def main() -> None:
    # enough strain symbols around bond 0 for atoms -3..3
    span = range(-6, 7)
    r = {i: sp.Symbol(f"r{i}") for i in span}
    uniform = {r[i]: F_EVAL for i in span}

    stencil = []
    for d in range(4):
        q_d = sp.Integer(0)
        for j in range(-3, 4):  # atoms whose stencil can touch bonds 0 and d
            e_j = atom_energy(r, j)
            q_d += sp.diff(e_j, r[0], r[d])
        stencil.append(sp.simplify(q_d.subs(uniform)))

    theta, s = sp.symbols("theta s")
    symbol = stencil[0] + 2 * sum(
        stencil[d] * sp.cos(d * theta) for d in range(1, 4)
    )
    # rewrite cos(d theta) as Chebyshev polynomials in cos(theta) = 1 - s/2
    symbol = sp.expand_trig(symbol).subs(sp.cos(theta), 1 - s / 2)
    poly = sp.Poly(sp.expand(symbol), s)
    coeffs = [poly.coeff_monomial(s**k) for k in range(4)]
    names = ["A", "B", "C", "D"]
    print(f"stability cubic at F = {F_EVAL} for the default material:")
    for name, value in zip(names, coeffs):
        print(f"  {name} = {sp.nsimplify(value)}")
        print(f"    = {sp.N(value, 20)}")


if __name__ == "__main__":
    main()
