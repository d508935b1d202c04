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
of a template has one density, so each pair of bonds (a template slot
pair) of an atom carries the same second derivative at every atom of its
region class: a handful of scalars from phi'', rho', rho'' at F and 2F and
G', G'' at the group densities.  A strain Hessian row is then fixed by the
region classes of the atoms that reach it, so a layout compiled once per
``(model, N, K)`` scatters these per-slot constants into the bands of each
such row class by one ``np.bincount`` and gathers those bands to rows.

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
        out = self.bands[:, 0] * v
        for j in range(1, self.bands.shape[1]):
            out += self.bands[:, j] * np.roll(v, -j)
            out += np.roll(self.bands[:, j] * v, j)
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
    try:
        factor = scipy.linalg.cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        return None
    _, order = _ring_layout(n, (ab.shape[0] + 1) // 2)

    def solve(b: np.ndarray) -> np.ndarray:
        x = np.empty(n)
        x[order] = scipy.linalg.cho_solve_banded((factor, True), b[order], check_finite=False)
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


def _pairs(x: dict) -> list:
    """Unordered pairs (a, x_a, b, x_b) with a <= b of a dict offset -> x."""
    items = sorted(x.items())
    return [(a, xa, b, xb) for i, (a, xa) in enumerate(items) for b, xb in items[i:]]


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


def _couplings(template) -> tuple:
    """Bond-offset pairs (a, b), a <= b, that the energy of one atom of
    ``template`` couples: any two bonds of one density group.  Offsets
    within a template span at most 3, so pair (a, b) lands in band b - a."""
    pairs = set()
    for _, terms in template:
        offsets = sorted({o for _, term_offsets in terms for o in term_offsets})
        pairs.update((a, b) for i, a in enumerate(offsets) for b in offsets[i:])
    return tuple(sorted(pairs))


class _HessianLayout(NamedTuple):
    """Where one model's per-slot Hessian constants go, on one grid.

    ``blocks`` holds (template, couplings) per region class; the per-slot
    constants are laid out block by block, coupling by coupling.  Row k of
    the strain Hessian collects coupling (a, a + d) of atom k - a into band
    d, so rows whose atoms k - a, over the offsets a, lie in the same region
    classes have the same bands: row k belongs to row class
    ``row_class[k]``.  Constant ``slots[e]`` adds to cell ``cells[e]`` =
    row class * (w + 1) + d of the ``n_row_classes`` per-class bands.
    """

    blocks: tuple
    n_row_classes: int
    cells: np.ndarray
    slots: np.ndarray
    row_class: np.ndarray


@lru_cache(maxsize=64)
def _hessian_layout(kind: ModelKind, N: int, K: int) -> _HessianLayout:
    """Band layout of the strain Hessian of one model on one grid; read-only
    arrays.  QCL ignores K, as in :func:`_region_classes`."""
    classes = _region_classes(kind, N, K)
    blocks = tuple((template, _couplings(template)) for template, _ in classes)
    block_of = np.empty(2 * N, dtype=np.intp)
    for i, (_, mask) in enumerate(classes):
        block_of[mask] = i
    offsets = sorted({a for _, pairs in blocks for a, _ in pairs})
    base = len(blocks)
    # row k's code: the region classes of its atoms k - a, one digit per offset
    code = sum(np.roll(block_of, a) * base**i for i, a in enumerate(offsets))
    codes, row_class = np.unique(code, return_inverse=True)
    first_slot = np.cumsum([0] + [len(pairs) for _, pairs in blocks])
    cells, slots = [], []
    for c, row_code in enumerate(codes):
        for i, a in enumerate(offsets):
            block = row_code // base**i % base
            for j, (pa, pb) in enumerate(blocks[block][1]):
                if pa == a:
                    cells.append(c * (STRAIN_HALF_BANDWIDTH + 1) + pb - pa)
                    slots.append(first_slot[block] + j)
    arrays = np.array(cells), np.array(slots), row_class.reshape(-1)
    for a in arrays:
        a.flags.writeable = False
    return _HessianLayout(blocks, len(codes), *arrays)


def _slot_constants(blocks, p: EAMPotential, F: float) -> np.ndarray:
    """Strain Hessian constants at y_F of one atom per (block, coupling),
    in layout order: G'' (ddbar/dr_a)(ddbar/dr_b) per pair of bonds of a
    group and G' rho'' + phi''/2 per pair of bonds of a term.  A term's
    argument is F or 2F by its number of bonds, so the potentials are
    evaluated at those two strains and at the group densities only."""
    at = np.array([F, 2.0 * F])
    rho, rho1, rho2, phi2 = (_on(f, at).tolist() for f in (p.density.eval, p.density.d1, p.density.d2, p.pair.d2))
    groups = [terms for template, _ in blocks for _, terms in template]
    dbar = np.array([sum(c * rho[len(offsets) - 1] for c, offsets in terms) for terms in groups])
    g1, g2 = (_on(f, dbar).tolist() for f in (p.embedding.d1, p.embedding.d2))
    out = []
    i = 0
    for template, pairs in blocks:
        q = dict.fromkeys(pairs, 0.0)
        for w, terms in template:
            wg1, wg2 = w * g1[i], w * g2[i]
            i += 1
            lin: dict[int, float] = {}
            for c, offsets in terms:
                k = len(offsets) - 1
                curv = wg1 * (c * rho2[k]) + HALF * phi2[k]
                counts: dict[int, int] = {}
                for o in offsets:
                    lin[o] = lin.get(o, 0.0) + c * rho1[k]
                    counts[o] = counts.get(o, 0) + 1
                for a, ca, b, cb in _pairs(counts):
                    q[a, b] += curv * ca * cb
            for a, sa, b, sb in _pairs(lin):
                q[a, b] += wg2 * sa * sb
        out.extend(q[pair] for pair in pairs)
    return np.array(out)


def strain_hessian(
    model: ModelKind,
    region: RegionDecomposition,
    p: EAMPotential,
    F: float,
) -> SymmetricBandedOperator:
    """Second variation at y_F in strain space: Q with H = D^T Q D, so
    ``d2E(y_F)[u, w] = eps * sum_l (Q Du)_l (Dw)_l``.

    Only y_F Hessians are built (the analysis point), from a few per-slot
    scalar constants; the atomistic and QCL models read just the size N
    from ``region``.  No model has a ghost force at a uniform state, so
    ``Q 1 = A_F 1`` (A_F the continuum modulus).  Raises NonFiniteError if
    a constant is not finite.
    """
    if not F > 0:
        raise ValueError(f"deformation gradient must be positive, got F={F}")
    layout = _hessian_layout(model, region.N, region.K if model == ModelKind.QNL else -1)
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite reports it
        consts = _slot_constants(layout.blocks, p, F)
    require_finite(p, F, "strain Hessian", consts)
    width = STRAIN_HALF_BANDWIDTH + 1
    per_class = np.bincount(layout.cells, consts[layout.slots], layout.n_row_classes * width)
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
