"""Atomistic, quasi-nonlocal, and local chain energies with exact derivatives.

Every model energy here is a sum of per-atom contributions.  Each atom's
table is a list of density groups ``(w, [(c, bonds), ...])`` over the strains
``r_l = (Dy)_l``: a group contributes ``w * G(sum_t c_t * rho(arg_t))``, and
each of its density terms also contributes ``phi(arg_t) / 2``, because every
pair neighbour of an atom is one of its density neighbours, at the same
argument.  A bond list ``[l]`` means the nearest-neighbor argument ``r_l``;
``[l, l-1]`` means the next-nearest argument ``r_l + r_{l-1}``; the doubled
list ``[l, l]`` encodes the locally uniform next-nearest argument ``2 r_l``.
The three couplings differ only in their tables:

* atomistic: every atom carries the full nearest/next-nearest stencil;
* local (QCL): every atom carries the locally uniform Cauchy-Born stencil,
  with the embedding split half onto the atom and half onto its neighbor;
* quasi-nonlocal (QNL): atomistic inside ``|l| <= K``, Cauchy-Born outside,
  and the four transition atoms ``+-(K+1), +-(K+2)`` mix one-sided exact
  densities toward the atomistic core with Cauchy-Born densities toward the
  continuum.  The transition tables are written for the positive side; the
  negative side is their reflection (site l -> -l, bond b -> 1-b), the only
  completion consistent with a symmetric energy.

Each region class has one constant template, its table with bonds relative
to the atom.  For one ``(model, N, K)`` the templates are compiled once into
flat arrays: a weight per group and, per term, its group, coefficient and
two bond indices.  Energies and gradients, at any deformed state, are then
one chain-rule pass of gathers and ``np.bincount`` over all terms; no loop
visits single atoms.

Hessians are only built at the uniform state y_F, the point of the
stability analysis.  There every term argument is F or 2F and every group
of a template has one density, so an atom's second derivatives are the
same at every atom of its region class and linear in two short feature
lists over the templates: per term the curvature ``w c G' rho'' + phi''/2``
and per pair of bonds (a, b) of one group ``w G'' L_a L_b``, with L_a the
derivative of the group density by bond a.  They take phi'', rho, rho',
rho'' at F and 2F and G', G'' at the group densities.  A strain Hessian row
is fixed by the region classes of the atoms that reach it, so coefficient
maps compiled once per ``(model, N, K)`` send the features into the bands
of each such row class by one ``np.bincount``, and a gather spreads those
bands to rows.

Conventions: the model energy is the interaction energy per period (dead
loads are handled in :mod:`eamchain.solver`).  Gradients g satisfy
``dE(y)[w] = eps * sum_l g_l w_l`` (the l2_eps pairing), and Hessians H at
the uniform state satisfy ``d2E(y_F)[u, w] = eps * sum_l (Hu)_l w_l``; they
are assembled as ``H = D^T Q D`` from the strain Hessian Q.  Solves and
stability tests work on Q alone, whose entries stay of order one at every
N while those of H grow like N^2; :func:`hessian` builds H on request.
Assembly is deterministic: the arrays and the order of every sum are fixed
by ``(model, N, K)``, so repeated evaluations are bitwise identical.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .lattice import ChainGrid, PeriodicField, diff
from .potentials import EAMPotential, require_finite

__all__ = [
    "ModelKind",
    "RegionDecomposition",
    "Deformation",
    "SymmetricBandedOperator",
    "electron_density",
    "energy",
    "gradient",
    "strain_hessian",
    "hessian",
    "ring_solver",
    "force_scale",
]

HALF = 0.5

#: Half-bandwidths of second variations: the exact electron density at
#: atom l involves strains l-1 .. l+2, so strains couple over at most three
#: bonds and displacements over at most four sites.
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
    """Symmetric periodic-banded operator on site or strain fields.

    ``bands[i, j]`` couples entry i to entry i+j (periodic) for offsets
    j = 0..w, the half-bandwidth w = ``bands.shape[1] - 1`` (4 for site, 3
    for strain Hessians); the lower triangle follows by symmetry.  Acts in
    the l2_eps pairing: the quadratic form is ``eps * u . apply(u)``.
    """

    grid: ChainGrid
    bands: np.ndarray

    def __post_init__(self) -> None:
        b = np.array(self.bands, dtype=float, order="C")
        if b.ndim != 2 or b.shape[0] != self.grid.period_atoms or not 1 <= b.shape[1] <= b.shape[0]:
            raise ValueError(f"bands have wrong shape {b.shape}")
        b.flags.writeable = False
        object.__setattr__(self, "bands", b)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Matrix-vector product with a full-period value array."""
        v = np.asarray(values, dtype=float)
        n, width = self.bands.shape
        w = width - 1
        # periodic padding: entry i of a slice starting at w + s is index (i + s) % n
        v_pad = np.concatenate([v[n - w :], v, v[:w]])
        b_pad = np.concatenate([self.bands[n - w :], self.bands])
        out = self.bands[:, 0] * v
        for j in range(1, width):
            out += self.bands[:, j] * v_pad[w + j : w + j + n]
            out += b_pad[w - j : w - j + n, j] * v_pad[w - j : w - j + n]
        return out

    def quadratic_form(self, u: PeriodicField) -> float:
        """<Hu, u> in the l2_eps pairing."""
        return float(self.grid.epsilon * np.dot(u.values, self.apply(u.values)))

    def norm_inf(self) -> float:
        """Infinity norm: the largest absolute row sum."""
        magnitude = SymmetricBandedOperator(self.grid, np.abs(self.bands))
        return float(np.max(magnitude.apply(np.ones(self.grid.period_atoms))))

    def to_dense(self) -> np.ndarray:
        n = self.grid.period_atoms
        idx = np.arange(n)
        out = np.zeros((n, n))
        out[idx, idx] = self.bands[:, 0]
        for j in range(1, self.bands.shape[1]):
            out[idx, (idx + j) % n] += self.bands[:, j]
            out[(idx + j) % n, idx] += self.bands[:, j]
        return out

    def ring_bands(self) -> np.ndarray:
        """Lower band storage ``ab[d, k] = A[k + d, k]``, d = 0..2w, of the
        operator with its entries in ring order 0, n-1, 1, n-2, ..., which
        turns half-bandwidth w into a plain band of half-width 2w; a fresh
        Fortran-ordered array, as LAPACK stores it.  ``np.bincount`` sums the
        two entries that are one pair when 2w >= n, as ``to_dense`` does."""
        n, width = self.bands.shape
        cells, _ = _ring_layout(n, width)
        return np.bincount(cells, self.bands.ravel(), (2 * width - 1) * n).reshape(n, -1).T

    def cholesky_solver(self):
        """Banded Cholesky solve, or None if the operator is not positive
        definite."""
        return ring_solver(self.ring_bands())


@lru_cache(maxsize=16)
def _ring_layout(n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Ring ordering of an n-entry operator with ``width`` bands.

    Entry i sits at ring position 2i in the first half and 2(n-1-i)+1 in the
    second.  Returns (cells, order): ``cells`` is the flat index
    k * (2 width - 1) + d of ring band storage ``ab[d, k]`` (column-major)
    of every ``bands[i, j]`` entry (row-major), and ``order`` the entry at
    each ring position.  Read-only.
    """
    i = np.arange(n)
    position = np.where(i < (n + 1) // 2, 2 * i, 2 * (n - 1 - i) + 1)
    rows, offsets = np.indices((n, width))
    p, q = position[rows], position[(rows + offsets) % n]
    cells = (np.minimum(p, q) * (2 * width - 1) + np.abs(p - q)).ravel()
    order = np.argsort(position)
    for a in (cells, order):
        a.flags.writeable = False
    return cells, order


def ring_solver(ab: np.ndarray):
    """Cholesky solve of the operator whose ring band storage is ``ab`` (see
    :meth:`SymmetricBandedOperator.ring_bands`), or None if it is not
    positive definite.  ``ab`` is overwritten by the factor."""
    n = ab.shape[1]
    factor, info = scipy.linalg.lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
    if info > 0:
        return None
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpbtrf")
    _, order = _ring_layout(n, (ab.shape[0] + 1) // 2)

    def solve(b: np.ndarray) -> np.ndarray:
        x = np.empty(n)
        x[order], info = scipy.linalg.lapack.dpbtrs(factor, b[order], lower=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrs")
        return x

    return solve


# --------------------------------------------------------------------------
# Term tables.
#
# A template is the table of one region class relative to its atom l: density
# groups (weight, [(coeff, offsets), ...]), where offsets are the bond labels
# minus l.  Each density term also carries half a pair term at its argument.
# --------------------------------------------------------------------------

#: Exact nearest/next-nearest stencil centred at atom l.
_ATOM = ((1.0, ((1.0, (0,)), (1.0, (0, -1)), (1.0, (1,)), (1.0, (1, 2)))),)
#: Cauchy-Born stencil: local densities on the two adjacent bonds.
_CONTINUUM = ((HALF, ((2.0, (0,)), (2.0, (0, 0)))), (HALF, ((2.0, (1,)), (2.0, (1, 1)))))
#: Positive-side transition atom l (K+1 or K+2): a one-sided exact density
#: toward the core plus half a Cauchy-Born density one site further out.
_TRANSITION = ((HALF, ((2.0, (0,)), (2.0, (0, -1)))), (HALF, ((2.0, (1,)), (2.0, (1, 1)))))


def _reflect(template):
    """Template of the mirror atom -l: offset o -> 1-o."""
    return tuple(
        (w, tuple((c, tuple(1 - o for o in offsets)) for c, offsets in terms))
        for w, terms in template
    )


def _region_classes(kind: ModelKind, N: int, K: int) -> list:
    """(template, site mask) per region class of one model on one grid.
    QCL ignores K (own all-continuum table, never a degenerate QNL region)."""
    n = 2 * N
    l = np.arange(-N + 1, N + 1)
    if kind == ModelKind.ATOMISTIC:
        return [(_ATOM, np.ones(n, bool))]
    if kind == ModelKind.QCL:
        return [(_CONTINUUM, np.ones(n, bool))]
    core = np.abs(l) <= K
    outer = (l == K + 1) | (l == K + 2)
    inner = (l == -K - 1) | (l == -K - 2)
    return [
        (_ATOM, core),
        (_TRANSITION, outer),
        (_reflect(_TRANSITION), inner),
        (_CONTINUUM, ~(core | outer | inner)),
    ]


class _Table(NamedTuple):
    """One model's term table on one grid, flattened.

    Groups and terms are laid out region class by class, then slot by slot,
    then site by site, so the terms of one template slot are a contiguous
    slice.  ``b1`` of a nearest-neighbour term is the sentinel index n,
    which reads an appended zero strain.
    """

    weight: np.ndarray
    group: np.ndarray
    coeff: np.ndarray
    b0: np.ndarray
    b1: np.ndarray


@lru_cache(maxsize=64)
def _site_tables(kind: ModelKind, N: int, K: int) -> _Table:
    """Term table of one model on one grid."""
    n = 2 * N
    weight, group, coeff, b0, b1 = [], [], [], [], []
    n_groups = 0
    for template, mask in _region_classes(kind, N, K):
        sites = np.flatnonzero(mask)
        m = len(sites)
        for w, terms in template:
            weight.append(np.full(m, w))
            for c, offsets in terms:
                group.append(np.arange(n_groups, n_groups + m))
                coeff.append(np.full(m, c))
                b0.append((sites + offsets[0]) % n)
                b1.append((sites + offsets[1]) % n if len(offsets) == 2 else np.full(m, n))
            n_groups += m
    arrays = [np.concatenate(a) for a in (weight, group, coeff, b0, b1)]
    for a in arrays:
        a.flags.writeable = False
    return _Table(*arrays)


def _tables_for(model: ModelKind, region: RegionDecomposition | None, grid: ChainGrid) -> _Table:
    if model == ModelKind.QNL:
        if region is None:
            raise ValueError("QNL model needs a region decomposition")
        if region.N != grid.N:
            raise ValueError("region and grid sizes disagree")
        return _site_tables(model, grid.N, region.K)
    return _site_tables(model, grid.N, -1)


def _on(fn, x: np.ndarray) -> np.ndarray:
    """fn applied elementwise to x; a constant result is broadcast to x."""
    y = fn(x)
    return y if np.shape(y) == x.shape else np.broadcast_to(y, x.shape)


def _densities(table: _Table, r: np.ndarray, p: EAMPotential):
    """Term arguments r[b0] + r[b1] and summed group densities."""
    padded = np.append(r, 0.0)
    arg = padded[table.b0]
    arg += padded[table.b1]
    dbar = np.bincount(table.group, table.coeff * _on(p.density.eval, arg), len(table.weight))
    return arg, dbar


_DENSITY_TEMPLATES = {"a": _ATOM, "c": _CONTINUUM, "qnl": _TRANSITION}


def electron_density(p: EAMPotential, kind: str, y: Deformation, site: int) -> float:
    """Summed electron density at one atom: exact ("a"), Cauchy-Born ("c"),
    or one-sided transition ("qnl"), read from the first density group of
    the matching template."""
    if kind not in _DENSITY_TEMPLATES:
        raise ValueError(f"unknown density kind {kind!r}")
    r = y.strain()
    index = y.grid.index
    _, terms = _DENSITY_TEMPLATES[kind][0]
    return float(sum(c * p.density(sum(r[index(site + o)] for o in offsets)) for c, offsets in terms))


def energy(
    model: ModelKind,
    region: RegionDecomposition | None,
    p: EAMPotential,
    y: Deformation,
) -> float:
    """Interaction energy per period (external loads excluded)."""
    table = _tables_for(model, region, y.grid)
    arg, dbar = _densities(table, y.strain(), p)
    total = np.sum(_on(p.pair.eval, arg)) * HALF + np.dot(table.weight, _on(p.embedding.eval, dbar))
    return float(y.grid.epsilon * total)


def _strain_gradient(table: _Table, r: np.ndarray, p: EAMPotential) -> np.ndarray:
    """Per-bond derivative of the per-period energy sum (no eps factor)."""
    n = len(r)
    arg, dbar = _densities(table, r, p)
    slope = (table.weight * _on(p.embedding.d1, dbar))[table.group]
    slope *= table.coeff
    slope *= _on(p.density.d1, arg)
    slope += HALF * _on(p.pair.d1, arg)
    g = np.bincount(table.b0, slope, n + 1)
    g += np.bincount(table.b1, slope, n + 1)
    return g[:n]


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
    table = _tables_for(model, region, y.grid)
    r = y.strain()
    gs = _strain_gradient(table, r, p)
    g = (gs - np.roll(gs, -1)) / y.grid.epsilon
    return PeriodicField(y.grid, g, "residual")


def _site_bands_from_strain_bands(grid: ChainGrid, q: np.ndarray) -> np.ndarray:
    """Convert a strain-space band matrix Q into site space: H = D^T Q D."""
    n = grid.period_atoms
    eps2 = grid.epsilon**2
    w = STRAIN_HALF_BANDWIDTH
    # band d of Q as a contiguous row; column k holds Q[(k - w) % n, (k - w) % n + d]
    padded = np.concatenate([q[-w:], q, q[: w + 1]]).T.copy()

    def qoff(shift: int, d: int) -> np.ndarray:
        # Q[m+shift, m+shift+d] as a vector over m, allowing negative d.
        if abs(d) > w:
            return 0.0
        start = w + shift + min(d, 0)
        return padded[abs(d), start : start + n]

    bands = np.empty((SITE_HALF_BANDWIDTH + 1, n))
    for j in range(SITE_HALF_BANDWIDTH + 1):
        bands[j] = (qoff(0, j) - qoff(0, j + 1) - qoff(1, j - 1) + qoff(1, j)) / eps2
    return bands.T


#: Bond offsets of every template relative to its atom.
_OFFSETS = (-1, 0, 1, 2)


class _HessianLayout(NamedTuple):
    """One model's strain Hessian at y_F as a linear map of two feature
    lists, on one grid.

    Terms of all templates are laid out region class by class: term t has
    group ``term_group[t]``, coefficient ``term_coeff[t]`` and argument
    ``(1 + term_arg[t]) F``, and group g the weight ``group_weight[g]``.
    Bond slot g * 4 + i is bond ``_OFFSETS[i]`` of group g; each bond of a
    term, in table order, is one entry of ``bond_term`` and ``bond_slot``,
    so one ``np.bincount`` sums the slopes ``c rho'`` into ``L``, the
    derivatives of the group densities by their bonds.  The features are,
    per term, the curvature ``w c G' rho'' + phi''/2`` and, per pair of bond
    slots ``pair_slots[:, i]`` of one group, ``w G'' L L'``.

    Row k of the strain Hessian collects coupling (a, a + d) of atom k - a
    into band d, so rows whose atoms k - a, over the offsets a, lie in the
    same region classes have the same bands: row k belongs to row class
    ``row_class[k]``.  Feature ``feature[e]`` (terms first, then slot pairs)
    times ``coeff[e]`` adds to cell ``cell[e]`` = row class * (w + 1) + d of
    the ``n_row_classes`` per-class bands.
    """

    group_weight: np.ndarray
    term_group: np.ndarray
    term_coeff: np.ndarray
    term_arg: np.ndarray
    bond_term: np.ndarray
    bond_slot: np.ndarray
    pair_slots: np.ndarray
    n_row_classes: int
    cell: np.ndarray
    feature: np.ndarray
    coeff: np.ndarray
    row_class: np.ndarray


@lru_cache(maxsize=64)
def _hessian_layout(kind: ModelKind, N: int, K: int) -> _HessianLayout:
    """Feature maps of the strain Hessian of one model on one grid; read-only
    arrays.  QCL ignores K, as in :func:`_region_classes`."""
    classes = _region_classes(kind, N, K)
    m = len(_OFFSETS)
    group_weight, group_class, term_group, term_coeff, term_arg, counts, bond_term, bond_slot = ([] for _ in range(8))
    for i, (template, _) in enumerate(classes):
        for w, terms in template:
            for c, offsets in terms:
                bond_term += [len(term_group)] * len(offsets)
                bond_slot += [len(group_weight) * m + _OFFSETS.index(o) for o in offsets]
                term_group.append(len(group_weight))
                term_coeff.append(c)
                term_arg.append(len(offsets) - 1)
                counts.append([offsets.count(a) for a in _OFFSETS])
            group_weight.append(w)
            group_class.append(i)
    slots = sorted(set(bond_slot))
    pair_slots = np.array([(a, b) for a in slots for b in slots if a <= b and a // m == b // m]).T
    # coefficient of each feature on the coupling (a_i, a_j) of its atom: the
    # bond counts of its term multiplied, or one for its pair of bond slots
    counts = np.array(counts, float)
    left, right = pair_slots % m
    pair_outer = np.zeros((len(left), m, m))
    pair_outer[np.arange(len(left)), left, right] = 1.0
    outer = np.concatenate([counts[:, :, None] * counts[:, None, :], pair_outer])
    feature_class = np.array(group_class)[np.concatenate([term_group, pair_slots[0] // m])]
    width = STRAIN_HALF_BANDWIDTH + 1
    banded = np.zeros((m, width, len(outer)))  # [i, d, f]: coupling (a_i, a_i + d)
    for d in range(width):
        banded[: m - d, d] = np.diagonal(outer, d, axis1=1, axis2=2).T
    class_of = np.empty(2 * N, dtype=np.intp)
    for i, (_, mask) in enumerate(classes):
        class_of[mask] = i
    # row k's code: the region classes of its atoms k - a, one digit per offset
    base = len(classes)
    code = sum(np.roll(class_of, a) * base**i for i, a in enumerate(_OFFSETS))
    codes, row_class = np.unique(code, return_inverse=True)
    reaches = (codes[:, None] // base ** np.arange(m) % base)[:, :, None] == feature_class
    dense = sum(reaches[:, i, None] * banded[i] for i in range(m)).reshape(len(codes) * width, -1)
    cell, feature = np.nonzero(dense)
    layout = _HessianLayout(
        *(np.array(a) for a in (group_weight, term_group, term_coeff, term_arg, bond_term, bond_slot)),
        pair_slots, len(codes), cell, feature, dense[cell, feature], row_class.reshape(-1),
    )
    for a in layout:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return layout


def strain_hessian(
    model: ModelKind,
    region: RegionDecomposition,
    p: EAMPotential,
    F: float,
) -> SymmetricBandedOperator:
    """Second variation at y_F in strain space: Q with H = D^T Q D, so
    ``d2E(y_F)[u, w] = eps * sum_l (Q Du)_l (Dw)_l``.

    Only y_F Hessians are built (the analysis point), from a few features
    per template term and bond pair; the atomistic and QCL models read just
    the size N from ``region``.  No model has a ghost force at a uniform
    state, so ``Q 1 = A_F 1`` (A_F the continuum modulus).  Raises
    NonFiniteError if a feature is not finite.
    """
    if not F > 0:
        raise ValueError(f"deformation gradient must be positive, got F={F}")
    layout = _hessian_layout(model, region.N, region.K if model == ModelKind.QNL else -1)
    coeff = layout.term_coeff
    n_groups = len(layout.group_weight)
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite reports it
        at = np.array([F, 2.0 * F])
        rho, rho1, rho2, phi2 = (
            _on(f, at)[layout.term_arg] for f in (p.density.eval, p.density.d1, p.density.d2, p.pair.d2)
        )
        dbar = np.bincount(layout.term_group, coeff * rho, n_groups)
        wg1 = (layout.group_weight * _on(p.embedding.d1, dbar))[layout.term_group]
        wg2 = layout.group_weight * _on(p.embedding.d2, dbar)
        lin = np.bincount(layout.bond_slot, (coeff * rho1)[layout.bond_term], n_groups * len(_OFFSETS))
        left, right = layout.pair_slots
        pairs = (np.repeat(wg2, len(_OFFSETS)) * lin)[left] * lin[right]
        features = np.concatenate([wg1 * (coeff * rho2) + HALF * phi2, pairs])
    require_finite(p, F, "strain Hessian", features)
    width = STRAIN_HALF_BANDWIDTH + 1
    per_class = np.bincount(layout.cell, layout.coeff * features[layout.feature], layout.n_row_classes * width)
    return SymmetricBandedOperator(ChainGrid(region.N), per_class.reshape(-1, width)[layout.row_class])


def hessian(
    model: ModelKind,
    region: RegionDecomposition,
    p: EAMPotential,
    F: float,
) -> SymmetricBandedOperator:
    """Site-space second variation D^T Q D at y_F of :func:`strain_hessian`;
    it annihilates constants and its rows are circulant deep inside the
    atomistic and continuum regions."""
    q_op = strain_hessian(model, region, p, F)
    return SymmetricBandedOperator(q_op.grid, _site_bands_from_strain_bands(q_op.grid, q_op.bands))


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
