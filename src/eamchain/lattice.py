"""Periodic chain geometry, fields, difference operators and norms.

The computational domain is one period of a 2N-site chain with reference
spacing ``epsilon = 1/N``, sites labelled ``l = -N+1, ..., N``.  Displacements
live in the space of 2N-periodic zero-mean sequences; strains are scaled
backward differences ``(Du)_l = (u_l - u_{l-1}) / epsilon`` and are themselves
2N-periodic with zero sum over a period.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainGrid",
    "PeriodicField",
    "diff",
    "norm_l2eps",
    "norm_region",
    "displacement_from_strain",
]

FIELD_KINDS = ("displacement", "strain", "residual", "generic")

# Relative zero-mean slack for displacement fields.
ZERO_MEAN_RTOL = 1e-14


@dataclass(frozen=True)
class ChainGrid:
    """One period of the scaled reference chain: 2N atoms at spacing 1/N.

    Sites are labelled ``l = -N+1 .. N`` and mapped internally to array
    indices ``0 .. 2N-1``.  The spacing is exactly representable whenever N
    is a power of two, which all shipped experiments use.
    """

    N: int

    def __post_init__(self) -> None:
        if self.N < 4:
            raise ValueError(f"chain needs N >= 4 half-periods, got N={self.N}")

    @property
    def epsilon(self) -> float:
        return 1.0 / self.N

    @property
    def period_atoms(self) -> int:
        return 2 * self.N

    def index(self, site: int) -> int:
        """Array index of site ``l`` with periodic wraparound."""
        return (site + self.N - 1) % (2 * self.N)

    def sites(self) -> np.ndarray:
        """Site labels -N+1 .. N in array order."""
        return np.arange(-self.N + 1, self.N + 1)

    def positions(self) -> np.ndarray:
        """Reference positions ``x_l = epsilon * l`` in array order."""
        return self.epsilon * self.sites()


@dataclass(frozen=True)
class PeriodicField:
    """One period of a 2N-periodic real sequence, indexed by site label.

    ``kind`` tags what the values represent; displacement fields must have
    zero mean over the period (within ZERO_MEAN_RTOL relative to the largest
    entry).  Values are stored read-only; operations return new fields.
    """

    grid: ChainGrid
    values: np.ndarray
    kind: str = "generic"

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.period_atoms,):
            raise ValueError(
                f"field needs {self.grid.period_atoms} values, got shape {vals.shape}"
            )
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if self.kind == "displacement":
            scale = float(np.max(np.abs(vals))) if vals.size else 0.0
            if scale > 0 and abs(float(np.mean(vals))) > ZERO_MEAN_RTOL * scale:
                raise ValueError(
                    "displacement field has nonzero mean "
                    f"({float(np.mean(vals)):.3e} vs scale {scale:.3e})"
                )

    @classmethod
    def zeros(cls, grid: ChainGrid, kind: str = "generic") -> "PeriodicField":
        return cls(grid, np.zeros(grid.period_atoms), kind)

    @classmethod
    def displacement(cls, grid: ChainGrid, values: np.ndarray) -> "PeriodicField":
        """Build a displacement field, projecting out the mean.

        Two projection passes keep the residual mean at roundoff level even
        for long periods.
        """
        vals = np.asarray(values, dtype=float).copy()
        vals -= vals.mean()
        vals -= vals.mean()
        return cls(grid, vals, "displacement")

    def __getitem__(self, site: int) -> float:
        return float(self.values[self.grid.index(site)])

    def __add__(self, other: "PeriodicField") -> "PeriodicField":
        self._check_same_grid(other)
        kind = self.kind if self.kind == other.kind else "generic"
        return PeriodicField(self.grid, self.values + other.values, kind)

    def __sub__(self, other: "PeriodicField") -> "PeriodicField":
        self._check_same_grid(other)
        kind = self.kind if self.kind == other.kind else "generic"
        return PeriodicField(self.grid, self.values - other.values, kind)

    def __mul__(self, scalar: float) -> "PeriodicField":
        return PeriodicField(self.grid, self.values * float(scalar), self.kind)

    __rmul__ = __mul__

    def _check_same_grid(self, other: "PeriodicField") -> None:
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")


def diff(u: PeriodicField, order: int = 1) -> PeriodicField:
    """Scaled backward difference ``(D^order u)_l`` with periodic wraparound.

    First order is ``(u_l - u_{l-1}) / epsilon``; higher orders repeat it.
    """
    if order not in (1, 2, 3, 4):
        raise ValueError(f"difference order must be in 1..4, got {order}")
    eps = u.grid.epsilon
    vals = u.values
    for _ in range(order):
        vals = (vals - np.roll(vals, 1)) / eps
    if u.kind == "displacement" and order == 1:
        kind = "strain"
    else:
        kind = "generic"
    return PeriodicField(u.grid, vals, kind)


def norm_l2eps(v: PeriodicField) -> float:
    """Discrete l2_eps norm ``(epsilon * sum v_l^2)^(1/2)`` over one period."""
    return float(np.sqrt(v.grid.epsilon * np.sum(v.values**2)))


def norm_region(v: PeriodicField, region, mode: str = "l2") -> float:
    """l2_eps norm of ``v`` restricted to ``region``, or the max over it.

    ``region`` is an array-like of site labels (wrapped periodically);
    ``mode`` is "l2" or "max".
    """
    sites = np.asarray(region, dtype=int)
    if sites.size == 0:
        raise ValueError("norm over an empty region is undefined")
    vals = v.values[v.grid.index(sites)]
    if mode == "l2":
        return float(np.sqrt(v.grid.epsilon * np.sum(vals**2)))
    if mode == "max":
        return float(np.max(np.abs(vals)))
    raise ValueError(f"unknown norm mode {mode!r}")


def displacement_from_strain(grid: ChainGrid, strain: np.ndarray) -> PeriodicField:
    """Zero-mean displacement whose backward difference is ``strain``.

    The strain must sum to zero over the period (a periodicity requirement);
    the residual sum is spread uniformly before integrating so roundoff
    cannot accumulate into a jump.
    """
    s = np.asarray(strain, dtype=float)
    if s.shape != (grid.period_atoms,):
        raise ValueError("strain array has wrong length")
    total = s.sum()
    scale = float(np.max(np.abs(s))) if s.size else 0.0
    if scale > 0 and abs(total) > 1e-10 * scale * grid.period_atoms:
        raise ValueError("strain does not sum to zero over the period")
    s = s - total / grid.period_atoms
    u = grid.epsilon * np.cumsum(s)
    return PeriodicField.displacement(grid, u)
