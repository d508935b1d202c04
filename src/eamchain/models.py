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
to the atom, and covers runs of consecutive sites.  A term argument is one of
three per-bond kinds, r_b, r_b + r_{b+1} or r_b + r_b, each shared by two
atoms, so energies and gradients at any deformed state evaluate each
potential member once per kind and bond, and sum group densities, run by
run, from shifted slices of these values; no loop visits single atoms.

Hessians are only built at the uniform state y_F, the point of the
stability analysis.  There every term argument is F or 2F and every group
of every template has the density 2 rho(F) + 2 rho(2F), so the potential
enters only through seven scalars: phi''(F), phi''(2F), G' rho''(F),
G' rho''(2F), G'' rho'(F)^2, G'' rho'(F) rho'(2F) and G'' rho'(2F)^2.  A
strain Hessian row is fixed by the region classes of the atoms that reach
it.  Continuum atoms couple no two bonds, so a coupled strain Hessian is
a core block on the 2K+4 bonds around the atomistic region plus A_F times
the identity, and the atomistic one is circulant.  The region classes
around the core are the same on every grid, so a basis of exact small
rationals, compiled once per ``(model, K)``, maps the seven scalars to the
bands of the core rows and of one far row by one matrix-vector product;
every strain Hessian is those bands as a :class:`SymmetricBandedOperator`,
the one banded form, and it and the stability decisions built on it give
the same bits at every N.  The scalars come from derivatives of the
potential memoized per strain.

Conventions: the model energy is the interaction energy per period (dead
loads are handled in :mod:`eamchain.solver`).  Gradients g satisfy
``dE(y)[w] = eps * sum_l g_l w_l`` (the l2_eps pairing), and Hessians H at
the uniform state satisfy ``d2E(y_F)[u, w] = eps * sum_l (Hu)_l w_l``; they
are assembled as ``H = D^T Q D`` from the strain Hessian Q.  Solves and
stability tests work on Q alone, whose entries stay of order one at every
N while those of H grow like N^2, so the library builds Q only.
Assembly is deterministic: the arrays and the order of every sum are fixed
by ``(model, N, K)``, so repeated evaluations are bitwise identical.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import ChainGrid, PeriodicField, diff
from .potentials import EAMPotential, _uniform_derivatives, require_finite

__all__ = [
    "ModelKind",
    "RegionDecomposition",
    "Deformation",
    "SymmetricBandedOperator",
    "energy",
    "gradient",
    "strain_hessian",
    "force_scale",
]

HALF = 0.5

#: Half-bandwidth of strain Hessians: the exact electron density at atom l
#: involves strains l-1 .. l+2, so strains couple over at most three bonds.
STRAIN_HALF_BANDWIDTH = 3


class ModelKind(enum.Enum):
    ATOMISTIC = "atomistic"
    QNL = "qnl"
    QCL = "qcl"


@dataclass(frozen=True)
class RegionDecomposition:
    """Atomistic core of half-width K, two transition atoms per side,
    Cauchy-Born continuum elsewhere.

    Valid for N >= 4, the smallest grid (:class:`ChainGrid`), and
    0 <= K < N - 2.  The tables stay exact over that whole range, also where
    the mirrored transition stencils share sites across the period
    (K >= N - 5): the coupled pair energy matches its per-atom formulas and
    the uniform state carries no ghost force.
    """

    N: int
    K: int

    def __post_init__(self) -> None:
        if self.N < 4:
            raise ValueError(f"need N >= 4, got N={self.N}")
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
        if not 0 < self.F < np.inf:
            raise ValueError(f"deformation gradient must be finite and positive, got F={self.F}")
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


def _band_apply(bands: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product of a symmetric periodic band matrix with v: ``bands[i, j]``
    couples entry i to entry i+j (periodic) for j = 0..w, and the lower
    triangle follows by symmetry.  A single row of bands is a circulant
    matrix, broadcast to every entry."""
    n, w = len(v), bands.shape[-1] - 1
    if bands.ndim == 1:
        band = lambda j, s: bands[j]  # noqa: E731
    else:
        b_pad = np.concatenate([bands[n - w :], bands])
        band = lambda j, s: b_pad[w + s : w + s + n, j]  # noqa: E731
    out = band(0, 0) * v
    if not w:
        return out
    # periodic padding: entry i of a slice starting at w + s is index (i + s) % n
    v_pad = np.concatenate([v[n - w :], v, v[:w]])
    for j in range(1, w + 1):
        out += band(j, 0) * v_pad[w + j : w + j + n]
        out += band(j, -j) * v_pad[w - j : w - j + n]
    return out


def _dense_bands(bands: np.ndarray) -> np.ndarray:
    """Dense symmetric periodic matrix of ``bands`` in the layout of
    :func:`_band_apply`."""
    n = len(bands)
    idx = np.arange(n)
    out = np.zeros((n, n))
    out[idx, idx] = bands[:, 0]
    for j in range(1, bands.shape[1]):
        out[idx, (idx + j) % n] += bands[:, j]
        out[(idx + j) % n, idx] += bands[:, j]
    return out


@dataclass(eq=False)
class SymmetricBandedOperator:
    """Symmetric periodic-banded operator on n strain values, the form of
    every strain Hessian: a block on the rows ``core`` plus one circulant row
    ``far`` that every other row uses.

    ``core_bands`` is a periodic band matrix on the core entries in the
    layout of :func:`_band_apply`, and ``far[j]`` couples every other entry i
    to entry i+j, for offsets j = 0..w (w = 3 for a strain Hessian); the
    lower triangle follows by symmetry.  The far row couples no other row to
    a core row: it is diagonal unless the core is empty or every row, and a
    block on every row is a general periodic band matrix.
    Acts in the l2_eps pairing: the quadratic form is ``eps * u . apply(u)``.
    One is built per stability decision, so construction copies, checks and
    freezes nothing.
    """

    n: int
    core: np.ndarray
    core_bands: np.ndarray
    far: np.ndarray

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Product with v: the far row as a circulant stencil (its diagonal
        alone if that is all it has), then the core rows from the block."""
        if len(v) != self.n:
            raise ValueError(f"operator on {self.n} values applied to {len(v)} values")
        far = self.far
        out = _band_apply(far if far[1:].any() else far[:1], v)
        out[self.core] = _band_apply(self.core_bands, v[self.core])
        return out

    def quadratic_form(self, u: PeriodicField) -> float:
        """<Au, u> in the l2_eps pairing."""
        return float(u.grid.epsilon * np.dot(u.values, self.apply(u.values)))

    def norm_inf(self) -> float:
        """Infinity norm: the largest absolute row sum over the core rows and
        the far row, at a cost independent of the rows off the core."""
        far_sum = abs(self.far[0]) + 2 * np.sum(np.abs(self.far[1:]))
        return float(np.max(_band_apply(np.abs(self.core_bands), np.ones(len(self.core))), initial=far_sum))

    # Only tests call to_dense and _dense_bands; they stay while
    # perfbench/layers.py wraps to_dense in its traced pass, and move to the
    # test oracles with the benchmark rework of ROADMAP item 1.
    def to_dense(self) -> np.ndarray:
        """The circulant far row, with the core block written over it."""
        out = _dense_bands(np.broadcast_to(self.far, (self.n, len(self.far))))
        out[np.ix_(self.core, self.core)] = _dense_bands(self.core_bands)
        return out


# --------------------------------------------------------------------------
# Term tables.  A template is the table of one region class with bond offsets
# (labels minus l) in place of the bond labels of atom l.
# --------------------------------------------------------------------------

#: Exact nearest/next-nearest stencil centred at atom l.
_ATOM = ((1.0, ((1.0, (0,)), (1.0, (0, -1)), (1.0, (1,)), (1.0, (1, 2)))),)
#: Cauchy-Born stencil: local densities on the two adjacent bonds.
_CONTINUUM = ((HALF, ((2.0, (0,)), (2.0, (0, 0)))), (HALF, ((2.0, (1,)), (2.0, (1, 1)))))
#: Positive-side transition atom l (K+1 or K+2): a one-sided exact density
#: toward the core plus half a Cauchy-Born density one site further out.
_TRANSITION = ((HALF, ((2.0, (0,)), (2.0, (0, -1)))), (HALF, ((2.0, (1,)), (2.0, (1, 1)))))
#: Its mirror, the transition atom -l: offset o -> 1-o.
_MIRROR = ((HALF, ((2.0, (1,)), (2.0, (1, 2)))), (HALF, ((2.0, (0,)), (2.0, (0, 0)))))


def _region_classes(kind: ModelKind, N: int, K: int) -> list:
    """(template, first array site, length) per run of one region class of
    one model on one grid; the QNL continuum is two runs, around the others.
    QCL ignores K (own all-continuum table, never a degenerate QNL region)."""
    n = 2 * N
    if kind == ModelKind.ATOMISTIC:
        return [(_ATOM, 0, n)]
    if kind == ModelKind.QCL:
        return [(_CONTINUUM, 0, n)]
    core = N - 1 - K  # array index of atom -K
    return [
        (_CONTINUUM, 0, core - 2),
        (_MIRROR, core - 2, 2),
        (_ATOM, core, 2 * K + 1),
        (_TRANSITION, core + 2 * K + 1, 2),
        (_CONTINUUM, core + 2 * K + 3, n - core - 2 * K - 3),
    ]


#: Argument kinds r_b, s_b = r_b + r_{b+1} and t_b = r_b + r_b of the bond
#: lists [o], [o, o -+ 1] and [o, o], by the offsets of the strains they sum.
_R, _S, _T = range(3)
_BONDS = ((0,), (0, 1), (0, 0))


class _Stencil(NamedTuple):
    """One model on one grid, O(1) in N: ``(w c, c, kind, block, at)`` per
    density term, block its group's slice of the group densities and at its
    arguments' slice of a kind's arguments padded by one entry each side;
    the group ``weights`` and, per kind used, the ``pair`` weights (half the
    number of terms at each argument) run-length coded for ``np.repeat``."""

    terms: tuple
    weights: tuple
    pair: tuple  # (kind, values, lengths)


def _run_lengths(v: np.ndarray) -> tuple:
    """(values, lengths) of the runs of equal entries of v, as tuples."""
    starts = np.flatnonzero(np.diff(v, prepend=np.nan))
    return tuple(v[starts]), tuple(np.diff(starts, append=len(v)))


@lru_cache(maxsize=64)
def _stencil(model: ModelKind, region: RegionDecomposition | None, grid: ChainGrid) -> _Stencil:
    if model == ModelKind.QNL and (region is None or region.N != grid.N):
        raise ValueError("QNL model needs a region decomposition of the grid's size")
    n = grid.period_atoms
    terms, weights, pos = [], [], 0
    for template, start, m in _region_classes(model, grid.N, region.K if model == ModelKind.QNL else -1):
        for w, group_terms in template:
            weights.append(np.full(m, w))
            for c, b in group_terms:
                k = _BONDS.index(tuple(o - min(b) for o in sorted(b)))
                at = start + min(b) + 1
                terms.append((w * c, c, k, slice(pos, pos + m), slice(at, at + m)))
            pos += m
    pair = np.zeros((len(_BONDS), n))
    for _, _, k, _, at in terms:
        np.add.at(pair[k], np.arange(at.start - 1, at.stop - 1) % n, HALF)
    pair = tuple((k, *_run_lengths(pair[k])) for k in sorted({t[2] for t in terms}))
    return _Stencil(tuple(terms), _run_lengths(np.concatenate(weights)), pair)


def _on(fn, x: np.ndarray) -> np.ndarray:
    """fn on the array x; a constant result is broadcast (read-only) to x."""
    y = fn(x)
    return y if np.shape(y) == x.shape else np.broadcast_to(y, x.shape)


def _arguments(r: np.ndarray, kind: int) -> np.ndarray:
    """Arguments of one kind per bond, bitwise those of the bond lists."""
    return r if kind == _R else r + np.roll(r, -1) if kind == _S else r + r


def _group_densities(stencil: _Stencil, r: np.ndarray, p: EAMPotential) -> np.ndarray:
    """Density of every group, its terms summed in template order."""
    rho = {}
    for k, _, _ in stencil.pair:
        v = _on(p.density.eval, _arguments(r, k))
        rho[k] = np.concatenate((v[-1:], v, v[:1]))
    dbar = np.zeros(sum(stencil.weights[1]))  # one per group
    for _, c, k, block, at in stencil.terms:
        group = dbar[block]
        group += c * rho[k][at]
    return dbar


def energy(
    model: ModelKind,
    region: RegionDecomposition | None,
    p: EAMPotential,
    y: Deformation,
) -> float:
    """Interaction energy per period (external loads excluded)."""
    stencil = _stencil(model, region, y.grid)
    r = y.strain()
    total = np.dot(_on(p.embedding.eval, _group_densities(stencil, r, p)), np.repeat(*stencil.weights))
    for k, v, m in stencil.pair:
        total += np.dot(_on(p.pair.eval, _arguments(r, k)), np.repeat(v, m))
    return float(y.grid.epsilon * total)


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
    stencil = _stencil(model, region, y.grid)
    r = y.strain()
    n = len(r)
    slope = _on(p.embedding.d1, _group_densities(stencil, r, p))
    gs = np.zeros(n + 1)  # energy derivative by strain; entry n is strain 0
    for k, v, m in stencil.pair:
        acc = np.zeros(n + 2)  # by argument, padded
        for wc, _, kind, block, at in stencil.terms:
            if kind == k:
                term = acc[at]
                term += wc * slope[block]
        d = acc[1:-1]
        d[0] += acc[-1]
        d[-1] += acc[0]
        x = _arguments(r, k)
        d *= _on(p.density.d1, x)
        d += np.repeat(v, m) * _on(p.pair.d1, x)
        for o in _BONDS[k]:
            gs[o : o + n] += d
    gs[0] += gs[n]
    return PeriodicField(y.grid, (gs[:n] - np.roll(gs[:n], -1)) / y.grid.epsilon, "residual")


#: Bond offsets of every template relative to its atom.
_OFFSETS = (-1, 0, 1, 2)


#: The seven potential scalars the strain Hessian at y_F is linear in, in the
#: order of :func:`_uniform_scalars`.
_N_SCALARS = 7


@lru_cache(maxsize=64)
def _core_basis(kind: ModelKind, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (core offsets, basis): the strain Hessian rows of one model
    as linear maps of the seven scalars of :func:`_uniform_scalars`.

    An atom's second derivatives by its bonds ``_OFFSETS`` are one 4 x 4
    element matrix per scalar, exact small rationals summed over its
    template: per term with bond counts n, ``phi''/2`` and ``w c G' rho''``
    on n n^T; per group, ``w G''`` on L L^T, where the group density's bond
    derivatives L split by rho'(F) and rho'(2F).  Row k collects coupling
    (a, a + d) of atom k - a into band d, so its bands depend only on the
    region classes of the atoms k - a.  The core, rows N-K-2+offset (bonds
    -K-1 .. K+2, never wrapping as K < N-2), is empty for QCL and the
    atomistic chain; every other row is the far row.  Those classes are the same on every grid N >= K+3, so
    the smallest one gives them: ``basis`` holds the four bands of each core
    row and then of the far row, band d of row j being
    ``basis[4 j + d] @ scalars``.  QCL ignores K, as in :func:`_region_classes`.
    """
    N = max(K, 0) + 3
    classes = _region_classes(kind, N, K)
    m = len(_OFFSETS)
    element = np.zeros((len(classes), _N_SCALARS, m, m))
    for i, (template, _, _) in enumerate(classes):
        for w, terms in template:
            slope = np.zeros((2, m))  # by rho'(F), rho'(2F)
            for c, offsets in terms:
                arg = len(offsets) - 1  # argument F or 2F
                count = np.array([offsets.count(a) for a in _OFFSETS], float)
                outer = np.outer(count, count)
                element[i, arg] += HALF * outer
                element[i, 2 + arg] += w * c * outer
                slope[arg] += c * count
            u, v = slope
            element[i, 4] += w * np.outer(u, u)
            element[i, 5] += w * (np.outer(u, v) + np.outer(v, u))
            element[i, 6] += w * np.outer(v, v)
    class_of = np.empty(2 * N, dtype=np.intp)
    for i, (_, start, length) in enumerate(classes):
        class_of[start : start + length] = i
    offsets = np.arange(2 * K + 4 if kind == ModelKind.QNL else 0)
    rows = N - K - 2 + np.arange(len(offsets) + 1)
    atoms = class_of[(rows[:, None] - np.array(_OFFSETS)) % (2 * N)]
    basis = np.zeros((len(rows), STRAIN_HALF_BANDWIDTH + 1, _N_SCALARS))
    for d in range(STRAIN_HALF_BANDWIDTH + 1):
        for i in range(m - d):
            basis[:, d] += element[atoms[:, i], :, i, i + d]
    basis = basis.reshape(-1, _N_SCALARS)
    for a in (offsets, basis):
        a.flags.writeable = False
    return offsets, basis


def _uniform_scalars(p: EAMPotential, F: float) -> np.ndarray:
    """phi''(F), phi''(2F), G' rho''(F), G' rho''(2F), G'' rho'(F)^2,
    G'' rho'(F) rho'(2F) and G'' rho'(2F)^2 at y_F, where every group of
    every template has the density 2 rho(F) + 2 rho(2F).  Raises ValueError
    unless 0 < F < inf and NonFiniteError if a scalar is not finite."""
    if not 0 < F < np.inf:
        raise ValueError(f"deformation gradient must be finite and positive, got F={F}")
    phi2, phi2_2, r1, r1_2, r2, r2_2, g1, g2 = _uniform_derivatives(p, F)
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite reports it
        scalars = np.array([phi2, phi2_2, g1 * r2, g1 * r2_2, g2 * r1 * r1, g2 * r1 * r1_2, g2 * r1_2 * r1_2], dtype=float)
    require_finite(p, F, "strain Hessian", scalars)
    return scalars


def strain_hessian(
    model: ModelKind,
    region: RegionDecomposition,
    p: EAMPotential,
    F: float,
) -> SymmetricBandedOperator:
    """Second variation at y_F in strain space: Q with H = D^T Q D, so
    ``d2E(y_F)[u, w] = eps * sum_l (Q Du)_l (Dw)_l``.

    Only y_F Hessians are built (the analysis point), as a compiled basis
    (:func:`_core_basis`) times seven potential scalars, so neither the cost
    nor the values depend on N; the atomistic and QCL models read just the
    size N from ``region``.  The core is the 2K+4 rows around the QNL
    atomistic region (none for the other models), with ``core_bands.T`` its
    block in LAPACK lower band storage; every other row is the far row: A_F I
    for a coupled model (``far[0]`` is A_F to rounding), the circulant row
    for the atomistic chain.  No model has a ghost force at a uniform state,
    so ``Q 1 = A_F 1`` (A_F the continuum modulus).  Raises NonFiniteError
    if a scalar is not finite.
    """
    scalars = _uniform_scalars(p, F)
    K = region.K if model == ModelKind.QNL else -1
    offsets, basis = _core_basis(model, K)
    bands = (basis @ scalars).reshape(-1, STRAIN_HALF_BANDWIDTH + 1)
    return SymmetricBandedOperator(2 * region.N, region.N - K - 2 + offsets, bands[:-1], bands[-1])


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
