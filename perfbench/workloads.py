"""The three benchmark workloads: their inputs, one timed pass, and the checks.

Each workload is a closed loop in one process: the next pass starts when the
last one ends.  ``run_pass`` is the timed region; ``check`` runs outside it
and returns one boolean per operation (True = output within tolerance).

* ``critical-strain``: the README critical-strain CLI run.  9 bisections,
  each reusing one (model, N, K); many small dense eigensolves and Hessian
  assemblies at the uniform state.  Operations: the 9 F_star values and
  the row count.
* ``rate-study``: the converge and consistency CLI runs.  A few large dense
  factorizations and eigensolves (n up to 2047), the memory peak.
  Operations: each CSV row, each CSV's row count, the tail slope and the
  multiplier ratio.
* ``deformed-assembly``: library calls of ``energy`` and ``gradient`` on
  seeded deformations, with no linear algebra.  Operations: each
  (size, model, deformation) energy-and-gradient evaluation; once per
  process, its finite-difference check and the three models at a fixed
  deformed state against frozen seed values.

Only ``deformed-assembly`` reads the seed; the CLI workloads are deterministic.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

from eamchain import cli
from eamchain.lattice import ChainGrid, PeriodicField, displacement_from_strain
from eamchain.models import Deformation, ModelKind, RegionDecomposition, energy, gradient
from eamchain.potentials import load_potential_file

POTENTIAL = "src/eamchain/data/default_eam.pot"
REFERENCE = Path(__file__).with_name("reference.json")

CRITICAL_STRAIN_ARGS = ["--command", "critical-strain", "--F-range", "1.0:1.15",
                        "--N", "32,64,128", "--K", "8"]
CONVERGE_ARGS = ["--command", "converge", "--F", "1.0", "--N", "64,128,256,512,1024", "--K", "8"]
CONSISTENCY_ARGS = ["--command", "consistency", "--F", "1.0", "--N", "64,128,256", "--K", "8"]

# Tolerances on the frozen seed outputs.  The bisection stops at a bracket of
# 1e-10, so F_star may move by about that much when lambda_min changes by
# roundoff; 1e-8 is still far below the O(eps^2) gaps between the models.
# Rate-study values come from solves with condition numbers up to ~4e6, and
# error_H1 is a difference of two nearby solutions: a change of BLAS thread
# count alone moves it by ~1e-9 relative, so they are compared at 1e-6.
F_STAR_ATOL = 1e-8
RATE_RTOL = 1e-6
# Deformed-assembly checks.  The 4th-order central difference with step 1e-3
# along a direction of unit strain amplitude agrees with the exact pairing to
# ~2e-7 relative at these sizes; roundoff in the energy sum sets the floor.
# The second term, relative to the Cauchy-Schwarz bound eps |g| |w|, covers
# a direction that happens to be nearly orthogonal to the gradient.
FD_STEP = 1e-3
FD_RTOL = 1e-5
FD_SCALE_RTOL = 1e-8
ZERO_MEAN_RTOL = 1e-10
# The fixed-seed deformed state against its frozen seed values: roundoff of a
# reordered sum is ~1e-13 relative at N = 1024, while a dropped or changed
# term moves these figures by far more than 1e-9.
REFERENCE_RTOL = 1e-9
REPEAT_RTOL = 1e-12


def reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def run_commands(commands: list[list[str]], potential: str, out_dir: Path) -> list[int]:
    """Run CLI commands writing into ``out_dir``; returns their exit codes.
    Their progress lines are kept off this process's stdout."""
    codes = []
    for args in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(args + ["--potential", potential, "--out-dir", str(out_dir)]))
    return codes


def read_csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def _rows_match(rows: list[dict], refs: list[dict]) -> list[bool]:
    """One result per reference row (integer columns exact, floats by
    RATE_RTOL), then one for the row count."""
    out = []
    for i, ref in enumerate(refs):
        row = rows[i] if i < len(rows) else None
        ok = row is not None
        for key, ref_val in ref.items():
            if not ok:
                break
            if key not in row:
                ok = False
            elif isinstance(ref_val, int):
                ok = int(row[key]) == ref_val
            else:
                ok = _close(float(row[key]), ref_val, RATE_RTOL)
        out.append(ok)
    out.append(len(rows) == len(refs))
    return out


def multiplier_ratio(rows: list[dict]) -> float:
    """Criterion 8 figure: spread of the per-N multipliers of the fitted
    two-term consistency bound negnorm <= M_C eps^2 D3_C + M_I eps^1.5 D2_I."""
    import scipy.optimize  # only the check needs it; kept out of set-up time

    eps = np.array([float(r["epsilon"]) for r in rows])
    term_c = eps**2 * np.array([float(r["D3_C"]) for r in rows])
    term_i = eps**1.5 * np.array([float(r["D2_I_max"]) for r in rows])
    negs = np.array([float(r["negnorm"]) for r in rows])
    a = np.column_stack([term_c / negs, term_i / negs])
    (m_c, m_i), _ = scipy.optimize.nnls(a, np.ones(len(negs)))
    multipliers = negs / (m_c * term_c + m_i * term_i)
    return float(multipliers.max() / multipliers.min())


class CliWorkload:
    """A workload made of CLI runs writing CSVs into a fresh output directory."""

    commands: list[list[str]] = []

    def __init__(self, root: Path, seed: int):
        self.potential_path = str(root / POTENTIAL)
        self.potential = load_potential_file(self.potential_path)
        self.ref = reference()[self.name]

    def run_pass(self, out_dir: Path):
        return run_commands(self.commands, self.potential_path, out_dir)

    def ops_per_pass(self) -> int:
        raise NotImplementedError

    def check(self, result, out_dir: Path) -> list[bool]:
        if any(rc != 0 for rc in result):
            return [False] * self.ops_per_pass()
        try:
            return self._check_outputs(out_dir)
        except (OSError, KeyError, ValueError, IndexError):
            return [False] * self.ops_per_pass()


class CriticalStrain(CliWorkload):
    name = "critical-strain"
    commands = [CRITICAL_STRAIN_ARGS]

    def ops_per_pass(self) -> int:
        return len(self.ref["rows"]) + 1

    def _check_outputs(self, out_dir: Path) -> list[bool]:
        rows = read_csv(out_dir / "critical_strain.csv")
        out = []
        for i, ref in enumerate(self.ref["rows"]):
            row = rows[i] if i < len(rows) else None
            out.append(
                row is not None
                and row["model"] == ref["model"]
                and int(row["N"]) == ref["N"]
                and abs(float(row["F_star"]) - ref["F_star"]) <= F_STAR_ATOL
            )
        out.append(len(rows) == len(self.ref["rows"]))
        return out


class RateStudy(CliWorkload):
    name = "rate-study"
    commands = [CONVERGE_ARGS, CONSISTENCY_ARGS]

    def ops_per_pass(self) -> int:
        return len(self.ref["converge"]) + len(self.ref["consistency"]) + 4

    def _check_outputs(self, out_dir: Path) -> list[bool]:
        converge = read_csv(out_dir / "converge.csv")
        consistency = read_csv(out_dir / "consistency.csv")
        out = _rows_match(converge, self.ref["converge"])
        out += _rows_match(consistency, self.ref["consistency"])
        tail = float(converge[-1]["fit_slope_tail"])
        out.append(_close(tail, self.ref["error_slope_tail"], RATE_RTOL))
        out.append(_close(multiplier_ratio(converge), self.ref["multiplier_ratio"], RATE_RTOL))
        return out


class DeformedAssembly:
    """Energy and gradient of all three models at seeded deformed states.

    Sizes: N = 1024 with K = 8 and two deformations (per-call overhead), and
    N = 16384 with K = 4096 and one deformation (per-site throughput; the
    wide core keeps the atomistic tables large).  Each deformation is a
    zero-mean strain perturbation of amplitude 0.02 about F = 1.05.  One
    large deformation keeps a warm pass near 2 s, so a run holds enough
    passes.

    Besides the per-pass zero-mean check, each process checks once, outside
    the timed region: the gradient against a finite difference of the energy
    for every seeded case, and the three models at the fixed deformation
    ``REFERENCE_CASE`` against the seed values frozen in reference.json.
    """

    name = "deformed-assembly"
    F = 1.05
    CASES = ((1024, 8, 2), (16384, 4096, 1))  # (N, K, deformations)
    AMPLITUDE = 0.02
    REFERENCE_CASE = (1024, 8, 0)  # (N, K, seed)

    def __init__(self, root: Path, seed: int):
        self.potential = load_potential_file(str(root / POTENTIAL))
        rng = np.random.default_rng(seed)
        self.cases = []
        for n, k, count in self.CASES:
            region = RegionDecomposition(n, k)
            for _ in range(count):
                y, w = self.deformation(rng, ChainGrid(n))
                self.cases += [(model, region, y, w) for model in ModelKind]
        self.ref = reference()[self.name]

    @classmethod
    def deformation(cls, rng, grid: ChainGrid) -> tuple[Deformation, PeriodicField]:
        """A zero-mean strain perturbation about F and a unit-amplitude
        zero-mean direction w, both as displacements."""

        def zero_mean():
            s = rng.uniform(-1.0, 1.0, grid.period_atoms)
            return s - s.mean()

        u = displacement_from_strain(grid, zero_mean() * cls.AMPLITUDE)
        w = displacement_from_strain(grid, zero_mean())
        return Deformation(cls.F, u), w

    @classmethod
    def reference_values(cls, potential) -> dict:
        """Energy, gradient pairing eps <g, w>, eps |g|^2 and eps |w|^2 of
        each model at the fixed deformation REFERENCE_CASE."""
        n, k, seed = cls.REFERENCE_CASE
        grid = ChainGrid(n)
        region = RegionDecomposition(n, k)
        y, w = cls.deformation(np.random.default_rng(seed), grid)
        out = {}
        for model in ModelKind:
            g = gradient(model, region, potential, y).values
            out[model.value] = {
                "energy": float(energy(model, region, potential, y)),
                "pairing": grid.epsilon * float(np.dot(g, w.values)),
                "grad_norm2": grid.epsilon * float(np.dot(g, g)),
                "dir_norm2": grid.epsilon * float(np.dot(w.values, w.values)),
            }
        return out

    def run_pass(self, out_dir: Path):
        p = self.potential
        return [
            (energy(model, region, p, y), gradient(model, region, p, y))
            for model, region, y, _ in self.cases
        ]

    def check(self, result, out_dir: Path) -> list[bool]:
        """Zero-mean gradient for every evaluation (cheap, every pass)."""
        out = []
        for e, g in result:
            vals = g.values
            scale = float(np.max(np.abs(vals)))
            out.append(bool(np.isfinite(e)) and abs(float(np.mean(vals))) <= ZERO_MEAN_RTOL * scale)
        return out

    def fingerprints(self, result) -> list[list[float]]:
        """Energy, gradient pairing with the direction, and squared gradient
        norm of each evaluation: passes of one seed must repeat these."""
        return [
            [float(e), float(np.dot(g.values, w.values)), float(np.dot(g.values, g.values))]
            for (e, g), (_, _, _, w) in zip(result, self.cases)
        ]

    def once_checks(self, result) -> list[bool]:
        """The process's one-off checks: finite difference, then reference."""
        return self.finite_difference_check(result) + self.reference_check()

    def reference_check(self) -> list[bool]:
        """One operation per model: each figure within REFERENCE_RTOL of its
        frozen value; the pairing, which may be near 0, relative to its
        Cauchy-Schwarz bound eps |g| |w|."""
        out = []
        for model, got in self.reference_values(self.potential).items():
            ref = self.ref.get(model)
            out.append(
                ref is not None
                and all(_close(got[k], ref[k], REFERENCE_RTOL) for k in ("energy", "grad_norm2", "dir_norm2"))
                and abs(got["pairing"] - ref["pairing"])
                <= REFERENCE_RTOL * (ref["grad_norm2"] * ref["dir_norm2"]) ** 0.5
            )
        return out

    def finite_difference_check(self, result) -> list[bool]:
        """Gradient pairing eps <g, w> against a central difference of the
        energy along the seeded direction w, as ``validate`` does (4th order
        here, so the check stays tight at N = 16384)."""
        out = []
        for (_, g), (model, region, y, w) in zip(result, self.cases):
            eps = y.grid.epsilon
            pairing = eps * float(np.dot(g.values, w.values))
            scale = eps * float(np.linalg.norm(g.values) * np.linalg.norm(w.values))

            def e_at(t):
                return energy(model, region, self.potential, Deformation(y.F, y.displacement + t * w))

            h = FD_STEP
            fd = (8 * (e_at(h) - e_at(-h)) - (e_at(2 * h) - e_at(-2 * h))) / (12 * h)
            out.append(abs(pairing - fd) <= FD_RTOL * abs(pairing) + FD_SCALE_RTOL * scale)
        return out


WORKLOADS = {cls.name: cls for cls in (CriticalStrain, RateStudy, DeformedAssembly)}


def repeats(fingerprints: list[list[float]], first: list[list[float]]) -> list[bool]:
    return [
        all(abs(a - b) <= REPEAT_RTOL * max(abs(b), 1e-300) for a, b in zip(fp, ref))
        for fp, ref in zip(fingerprints, first)
    ]
