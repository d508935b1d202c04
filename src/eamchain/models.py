"""Atomistic, quasi-nonlocal, and local chain energies with exact derivatives.

Every model energy here is a sum of per-atom contributions.  Each atom's
table is a list of density groups ``(w, [(c, bonds), ...])`` over the strains
``r_l = (Dy)_l``: a group contributes ``w * G(sum_t c_t * rho(arg_t))``, and
each of its density terms also contributes ``phi(arg_t) / 2``, because every
pair neighbour of an atom is one of its density neighbours, at the same
argument.  A bond list ``[l]`` means the nearest-neighbor argument ``r_l``;
``[l, l-1]`` means the next-nearest argument ``r_l + r_{l-1}``; the doubled
list ``[l, l]`` encodes the locally uniform next-nearest argument ``2 r_l``.
Energies, gradients, and Hessians all come from one chain-rule pass over
these term tables, so the three couplings differ only in their tables:

* atomistic: every atom carries the full nearest/next-nearest stencil;
* local (QCL): every atom carries the locally uniform Cauchy-Born stencil,
  with the embedding split half onto the atom and half onto its neighbor;
* quasi-nonlocal (QNL): atomistic inside ``|l| <= K``, Cauchy-Born outside,
  and the four transition atoms ``+-(K+1), +-(K+2)`` mix one-sided exact
  densities toward the atomistic core with Cauchy-Born densities toward the
  continuum.  The transition tables are written for the positive side; the
  negative side is their reflection (site l -> -l, bond b -> 1-b), the only
  completion consistent with a symmetric energy.

Conventions: the model energy is the interaction energy per period (dead
loads are handled in :mod:`eamchain.solver`).  Gradients g satisfy
``dE(y)[w] = eps * sum_l g_l w_l`` (the l2_eps pairing), and Hessians H at
the uniform state satisfy ``d2E(y_F)[u, w] = eps * sum_l (Hu)_l w_l``.
Assembly is deterministic: band entries accumulate per atom in site order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .lattice import ChainGrid, PeriodicField, diff
from .potentials import EAMPotential

__all__ = [
    "ModelKind",
    "RegionDecomposition",
    "Deformation",
    "SymmetricBandedOperator",
    "electron_density",
    "energy",
    "gradient",
    "hessian",
    "force_scale",
]

HALF = 0.5

#: Half-bandwidth of second variations in site space: the exact electron
#: density at atom l involves strains l-1 .. l+2, so displacements couple
#: over at most four sites.
SITE_HALF_BANDWIDTH = 4
STRAIN_HALF_BANDWIDTH = 3


class ModelKind(enum.Enum):
    ATOMISTIC = "atomistic"
    QNL = "qnl"
    QCL = "qcl"


@dataclass(frozen=True)
class RegionDecomposition:
    """Atomistic core of half-width K, two transition atoms per side,
    Cauchy-Born continuum elsewhere.

    Valid for 0 <= K < N - 2.  The tables stay exact over that whole range,
    also where the mirrored transition stencils share sites across the
    period (K >= N - 5): the coupled pair energy matches its per-atom
    formulas and the uniform state carries no ghost force.
    """

    N: int
    K: int

    def __post_init__(self) -> None:
        if not 0 <= self.K < self.N - 2:
            raise ValueError(f"need 0 <= K < N-2, got K={self.K}, N={self.N}")

    def classify(self, site: int) -> str:
        l = ((site + self.N - 1) % (2 * self.N)) - self.N + 1
        if abs(l) <= self.K:
            return "atomistic"
        if abs(l) in (self.K + 1, self.K + 2):
            return "quasi-nonlocal"
        return "continuum"


@dataclass(frozen=True)
class Deformation:
    """Uniform stretch F plus a zero-mean 2N-periodic displacement."""

    F: float
    displacement: PeriodicField

    def __post_init__(self) -> None:
        if not self.F > 0:
            raise ValueError(f"deformation gradient must be positive, got F={self.F}")
        if self.displacement.kind != "displacement":
            raise ValueError("deformation needs a displacement-kind field")

    @classmethod
    def uniform(cls, grid: ChainGrid, F: float) -> "Deformation":
        return cls(F, PeriodicField.zeros(grid, "displacement"))

    @property
    def grid(self) -> ChainGrid:
        return self.displacement.grid

    def strain(self) -> np.ndarray:
        """Strains (Dy)_l = F + (Du)_l in array order."""
        return self.F + diff(self.displacement, 1).values


@dataclass(frozen=True)
class SymmetricBandedOperator:
    """Symmetric periodic-banded operator on site fields, bandwidth 4.

    ``bands[i, j]`` holds the coefficient coupling site i to site i+j for
    offsets j = 0..4 (periodic); the lower triangle follows by symmetry.
    Acts in the l2_eps pairing: the quadratic form is
    ``eps * u . apply(u)``.
    """

    grid: ChainGrid
    bands: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.bands, dtype=float)
        if b.shape != (self.grid.period_atoms, SITE_HALF_BANDWIDTH + 1):
            raise ValueError(f"bands have wrong shape {b.shape}")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "bands", b)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Matrix-vector product with a full-period value array."""
        v = np.asarray(values, dtype=float)
        out = self.bands[:, 0] * v
        for j in range(1, SITE_HALF_BANDWIDTH + 1):
            out += self.bands[:, j] * np.roll(v, -j)
            out += np.roll(self.bands[:, j] * v, j)
        return out

    def quadratic_form(self, u: PeriodicField) -> float:
        """<Hu, u> in the l2_eps pairing."""
        return float(self.grid.epsilon * np.dot(u.values, self.apply(u.values)))

    def to_dense(self) -> np.ndarray:
        n = self.grid.period_atoms
        idx = np.arange(n)
        out = np.zeros((n, n))
        out[idx, idx] = self.bands[:, 0]
        for j in range(1, SITE_HALF_BANDWIDTH + 1):
            out[idx, (idx + j) % n] += self.bands[:, j]
            out[(idx + j) % n, idx] += self.bands[:, j]
        return out

    def pinned_solver(self):
        """Banded Cholesky solve with site 0 pinned, or None if it fails.

        Ordering the other sites 1, n-1, 2, n-2, ... turns the ring into a
        plain band of half-width 8.  Every operator here annihilates
        constants, so by Sylvester's law of inertia the factorization fails
        exactly when the operator is not positive definite on zero-mean
        fields.  ``solve(b)`` returns x with x[0] = 0; for zero-mean b it
        solves the full system up to a constant.
        """
        n = self.grid.period_atoms
        sites = np.arange(n)
        position = np.where(sites <= n // 2, 2 * sites - 2, 2 * (n - sites) - 1)
        order = np.argsort(position[1:]) + 1
        i, k = np.indices(self.bands.shape)
        k = (i + k) % n
        keep = (i != 0) & (k != 0)
        p, q = position[i[keep]], position[k[keep]]
        # lower band storage; add.at sums the two offset-4 entries that are
        # one pair at N = 4, as to_dense does
        ab = np.zeros((2 * SITE_HALF_BANDWIDTH + 1, n - 1))
        np.add.at(ab, (np.abs(p - q), np.minimum(p, q)), self.bands[keep])
        try:
            factor = scipy.linalg.cholesky_banded(ab, lower=True, check_finite=False)
        except scipy.linalg.LinAlgError:
            return None

        def solve(b: np.ndarray) -> np.ndarray:
            x = np.zeros(n)
            x[order] = scipy.linalg.cho_solve_banded((factor, True), b[order], check_finite=False)
            return x

        return solve


# --------------------------------------------------------------------------
# Per-atom term tables.
#
# A table is a list of density groups (weight, [(coeff, bonds), ...]); each
# density term also carries half a pair term at its argument.  Bond labels
# are site labels of strains and are resolved modulo the period at assembly
# time.
# --------------------------------------------------------------------------


def _atom_table(l: int):
    """Exact nearest/next-nearest stencil centred at atom l."""
    return [(1.0, [(1.0, [l]), (1.0, [l, l - 1]), (1.0, [l + 1]), (1.0, [l + 1, l + 2])])]


def _continuum_table(l: int):
    """Cauchy-Born stencil: local densities on the two adjacent bonds."""
    return [
        (HALF, [(2.0, [l]), (2.0, [l, l])]),
        (HALF, [(2.0, [l + 1]), (2.0, [l + 1, l + 1])]),
    ]


def _transition_table(l: int):
    """Positive-side transition atom l (K+1 or K+2): a one-sided exact
    density toward the core plus half a Cauchy-Born density one site further
    out."""
    return [
        (HALF, [(2.0, [l]), (2.0, [l, l - 1])]),
        (HALF, [(2.0, [l + 1]), (2.0, [l + 1, l + 1])]),
    ]


def _reflect(table):
    """Table of the mirror atom -l: bond b -> 1-b."""
    return [(w, [(c, [1 - b for b in bonds]) for c, bonds in terms]) for w, terms in table]


@lru_cache(maxsize=64)
def _site_tables(kind: ModelKind, N: int, K: int):
    """Resolved per-site term tables for one model on one grid.

    Bond labels are mapped to array indices here so the evaluation loops
    need no further wrapping.  QCL ignores K (own all-continuum loop, never
    a degenerate QNL region).
    """
    grid = ChainGrid(N)
    if kind == ModelKind.QNL:
        region = RegionDecomposition(N, K)

    resolved = []
    for l in range(-N + 1, N + 1):
        if kind == ModelKind.ATOMISTIC:
            table = _atom_table(l)
        elif kind == ModelKind.QCL:
            table = _continuum_table(l)
        else:
            tag = region.classify(l)
            if tag == "atomistic":
                table = _atom_table(l)
            elif tag == "quasi-nonlocal":
                table = _transition_table(l) if l > 0 else _reflect(_transition_table(-l))
            else:
                table = _continuum_table(l)
        resolved.append(
            tuple(
                (w, tuple((c, tuple(grid.index(b) for b in bonds)) for c, bonds in terms))
                for w, terms in table
            )
        )
    return tuple(resolved)


def _tables_for(model: ModelKind, region: RegionDecomposition | None, grid: ChainGrid):
    if model == ModelKind.QNL:
        if region is None:
            raise ValueError("QNL model needs a region decomposition")
        if region.N != grid.N:
            raise ValueError("region and grid sizes disagree")
        return _site_tables(model, grid.N, region.K)
    return _site_tables(model, grid.N, -1)


_DENSITY_TABLES = {"a": _atom_table, "c": _continuum_table, "qnl": _transition_table}


def electron_density(p: EAMPotential, kind: str, y: Deformation, site: int) -> float:
    """Summed electron density at one atom: exact ("a"), Cauchy-Born ("c"),
    or one-sided transition ("qnl"), read from the atom's first density
    group in the matching table."""
    if kind not in _DENSITY_TABLES:
        raise ValueError(f"unknown density kind {kind!r}")
    r = y.strain()
    index = y.grid.index
    _, terms = _DENSITY_TABLES[kind](site)[0]
    return sum(c * p.density(sum(r[index(b)] for b in bonds)) for c, bonds in terms)


def energy(
    model: ModelKind,
    region: RegionDecomposition | None,
    p: EAMPotential,
    y: Deformation,
) -> float:
    """Interaction energy per period (external loads excluded)."""
    tables = _tables_for(model, region, y.grid)
    r = y.strain()
    phi = p.pair.eval
    rho = p.density.eval
    G = p.embedding.eval
    total = 0.0
    for groups in tables:
        for w, terms in groups:
            dbar = 0.0
            for c, bonds in terms:
                arg = 0.0
                for b in bonds:
                    arg += r[b]
                dbar += c * rho(arg)
                total += HALF * phi(arg)
            total += w * G(dbar)
    return y.grid.epsilon * total


def _strain_gradient(tables, r: np.ndarray, p: EAMPotential) -> np.ndarray:
    """Per-bond derivative of the per-period energy sum (no eps factor)."""
    phi1 = p.pair.d1
    rho = p.density.eval
    rho1 = p.density.d1
    G1 = p.embedding.d1
    g = np.zeros_like(r)
    for groups in tables:
        for w, terms in groups:
            dbar = 0.0
            contribs = []
            for c, bonds in terms:
                arg = 0.0
                for b in bonds:
                    arg += r[b]
                dbar += c * rho(arg)
                contribs.append((c * rho1(arg), HALF * phi1(arg), bonds))
            wg1 = w * G1(dbar)
            for slope, pair_slope, bonds in contribs:
                total_slope = wg1 * slope + pair_slope
                for b in bonds:
                    g[b] += total_slope
    return g


def gradient(
    model: ModelKind,
    region: RegionDecomposition | None,
    p: EAMPotential,
    y: Deformation,
) -> PeriodicField:
    """Force residual g with dE(y)[w] = <g, w> in the l2_eps pairing.

    g always has zero mean (the energy depends on y only through strains),
    and at the uniform state the QNL residual vanishes identically: the
    transition tables are built exactly so no ghost force appears.
    """
    tables = _tables_for(model, region, y.grid)
    r = y.strain()
    gs = _strain_gradient(tables, r, p)
    g = (gs - np.roll(gs, -1)) / y.grid.epsilon
    return PeriodicField(y.grid, g, "residual")


def _strain_hessian_bands(tables, r: np.ndarray, p: EAMPotential) -> np.ndarray:
    """Strain-space Hessian of the per-period sum, upper bands 0..3."""
    n = len(r)
    phi2 = p.pair.d2
    rho = p.density.eval
    rho1 = p.density.d1
    rho2 = p.density.d2
    G1 = p.embedding.d1
    G2 = p.embedding.d2
    q = np.zeros((n, STRAIN_HALF_BANDWIDTH + 1))

    def add(m: int, k: int, val: float) -> None:
        d = (k - m) % n
        if d <= STRAIN_HALF_BANDWIDTH:
            q[m, d] += val
        elif n - d <= STRAIN_HALF_BANDWIDTH:
            q[k, n - d] += val
        else:  # pragma: no cover - stencils never reach this far
            raise AssertionError("bond coupling beyond strain bandwidth")

    for groups in tables:
        for w, terms in groups:
            dbar = 0.0
            lin: dict[int, float] = {}
            curv = []
            for c, bonds in terms:
                arg = 0.0
                for b in bonds:
                    arg += r[b]
                dbar += c * rho(arg)
                slope = c * rho1(arg)
                for b in bonds:
                    lin[b] = lin.get(b, 0.0) + slope
                curv.append((c * rho2(arg), HALF * phi2(arg), bonds))
            wg1 = w * G1(dbar)
            wg2 = w * G2(dbar)
            # G'' (ddbar/dr_m)(ddbar/dr_k) over unordered bond pairs
            items = sorted(lin.items())
            for i, (m, sm) in enumerate(items):
                add(m, m, wg2 * sm * sm)
                for k, sk in items[i + 1 :]:
                    add(m, k, wg2 * sm * sk)
            # G' rho'' + phi''/2: second derivative of each term in its argument
            for c2, pair2, bonds in curv:
                val = wg1 * c2 + pair2
                counts: dict[int, int] = {}
                for b in bonds:
                    counts[b] = counts.get(b, 0) + 1
                citems = sorted(counts.items())
                for i, (m, cm) in enumerate(citems):
                    add(m, m, val * cm * cm)
                    for k, ck in citems[i + 1 :]:
                        add(m, k, val * cm * ck)
    return q


def _site_bands_from_strain_bands(grid: ChainGrid, q: np.ndarray) -> np.ndarray:
    """Convert a strain-space band matrix Q into site space: H = D^T Q D."""
    n = grid.period_atoms
    eps2 = grid.epsilon**2

    def qoff(shift: int, d: int) -> np.ndarray:
        # Q[m+shift, m+shift+d] as a vector over m, allowing negative d.
        if d < 0:
            return np.roll(q[:, -d], -(shift + d)) if -d <= STRAIN_HALF_BANDWIDTH else 0.0
        if d > STRAIN_HALF_BANDWIDTH:
            return np.zeros(n)
        return np.roll(q[:, d], -shift)

    bands = np.zeros((n, SITE_HALF_BANDWIDTH + 1))
    for j in range(SITE_HALF_BANDWIDTH + 1):
        bands[:, j] = (
            qoff(0, j) - qoff(0, j + 1) - qoff(1, j - 1) + qoff(1, j)
        ) / eps2
    return bands


def hessian(
    model: ModelKind,
    region: RegionDecomposition,
    p: EAMPotential,
    F: float,
) -> SymmetricBandedOperator:
    """Second variation at the uniform state y_F as a banded operator.

    Only y_F Hessians are built (the analysis point); the atomistic and QCL
    models read just the size N from ``region``.  Assembled analytically by
    the chain rule on the term tables (finite differences of the gradient
    serve only as a test oracle).  The operator annihilates constants and
    its rows are circulant deep inside the atomistic and continuum regions.
    """
    if not F > 0:
        raise ValueError(f"deformation gradient must be positive, got F={F}")
    grid = ChainGrid(region.N)
    tables = _tables_for(model, region if model == ModelKind.QNL else None, grid)
    r = np.full(grid.period_atoms, float(F))
    q = _strain_hessian_bands(tables, r, p)
    bands = _site_bands_from_strain_bands(grid, q)
    return SymmetricBandedOperator(grid, bands)


def force_scale(p: EAMPotential, F: float, grid: ChainGrid) -> float:
    """Magnitude of the largest individual per-atom force contribution at y_F.

    Used to normalize ghost-force checks: each residual entry is a signed
    combination of first-derivative terms of this size divided by eps.
    """
    g1 = abs(p.embedding.d1(2 * p.density(F) + 2 * p.density(2 * F)))
    per_bond = (
        abs(p.pair.d1(F))
        + 2 * abs(p.pair.d1(2 * F))
        + 2 * g1 * (abs(p.density.d1(F)) + 2 * abs(p.density.d1(2 * F)))
    )
    return max(per_bond, 1.0) / grid.epsilon
