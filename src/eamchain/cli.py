"""Batch experiment driver: validation, spectra, critical strains, rates.

Each setting in :data:`SETTINGS` is a config key, in the ``key = value``
grammar of potential files, and a ``--flag``; flags override the file.  A
command reads ``command``, ``potential``, ``out_dir`` and the settings
:data:`READS` lists for it, and any other setting given is a config error.
K is an integer or ``power:THETA`` (K = floor(N**THETA)); the (N, K) of
every point comes from :meth:`ExperimentConfig.regions`.  ``converge``,
``consistency`` and ``remark44`` take one strain F.  ``critical-strain``
bisects each problem that :func:`~eamchain.stability.stability_key` tells
apart once.  Outputs are CSV tables (UTF-8, '.' decimal, >= 12 significant
digits) plus, for rate studies, a gnuplot script.  :func:`main` loads the
potential once, runs the command's runner and only then writes the files it
returned, each atomically, so a command that fails writes no file; identical
config and seed reproduce the same bytes in every file.

Exit status: 0 all invoked checks passed, 1 a validation check failed,
2 config error (a malformed value or a setting the command does not read;
the message names its flag or file:line), 3 numerical failure (including a
potential that is not finite at a strain analysed or whose derivatives
there are all 0, and running out of memory).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile
import time
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from .lattice import ChainGrid, PeriodicField, diff, displacement_from_strain
from .models import (
    Deformation,
    ModelKind,
    RegionDecomposition,
    energy,
    force_scale,
    gradient,
)
from .potentials import (
    EAMPotential,
    NonFiniteError,
    load_potential_file,
    validate_derivatives,
)
from .solver import (
    NotPositiveDefiniteError,
    SolveError,
    consistency_point,
    convergence_study,
    cosine_load,
    fit_loglog_slope,
)
from .stability import (
    BracketError,
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
from .textconfig import ConfigError, parse_kv_lines

@dataclass
class ExperimentConfig:
    command: str = ""
    potential: str = ""
    F: tuple = (1.0,)
    F_range: tuple | None = None
    N: tuple = (64,)
    K: int | str = 8  # or 'power:THETA', K = floor(N**THETA)
    out_dir: str = "out"
    seed: int = 20240
    given: dict = field(default_factory=dict, repr=False, compare=False)  # setting -> its origin

    def regions(self) -> list[RegionDecomposition]:
        """The region (N, K) of every listed N, in order: K = N/2 for
        remark44, whose test functions span half the chain, else the K
        setting.  The one check of the window 0 <= K < N-5."""
        regions = []
        for n in self.N:
            k = n // 2 if self.command == "remark44" else self.K
            if isinstance(k, str):
                k = math.floor(n ** float(k.partition(":")[2]))
            if not 0 <= k < n - 5:
                raise ConfigError(f"need 0 <= K < N-5 for experiments, got K={k}, N={n}")
            regions.append(RegionDecomposition(n, k))
        return regions

    def validate(self) -> None:
        if self.command not in RUNNERS:
            raise ConfigError(f"unknown command {self.command!r} (choose from {tuple(RUNNERS)})")
        for key, origin in self.given.items():
            if key not in READS[self.command] + ("command", "potential", "out_dir"):
                raise ConfigError(f"{origin}: {self.command} does not read {key}")
        if not self.potential:
            raise ConfigError("no potential file given")
        if not os.path.isfile(self.potential):  # False also for a name too long to stat
            raise ConfigError(f"potential file not found: {self.potential}")
        if list(self.N) != sorted(set(self.N)):
            raise ConfigError(f"N list must be strictly increasing, got {self.N}")
        if self.command == "critical-strain" and self.F_range is None:
            raise ConfigError("critical-strain needs F_range = lo:hi")
        # their tables hold one strain and have no F column
        if self.command in ("converge", "consistency", "remark44") and len(self.F) > 1:
            raise ConfigError(f"{self.command} takes one strain F, got {len(self.F)}")


def _parse_strain(text: str, origin: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{origin}: bad number {text!r}") from exc
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{origin}: strain must be finite and positive, got {text!r}")
    return value


def _parse_int(text: str, origin: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise ConfigError(f"{origin}: bad integer {text!r}") from exc
    if value < minimum:
        raise ConfigError(f"{origin}: need an integer >= {minimum}, got {value}")
    return value


def _parse_range(text: str, origin: str) -> tuple:
    bracket = tuple(_parse_strain(part, origin) for part in text.split(":"))
    if len(bracket) != 2 or not bracket[0] < bracket[1]:
        raise ConfigError(f"{origin}: F_range must be lo:hi with lo < hi, got {text!r}")
    return bracket


def _parse_k(text: str, origin: str) -> int | str:
    head, colon, theta = text.partition(":")
    if not colon:
        return _parse_int(text, origin, 0)
    try:
        if head == "power" and 0.0 <= float(theta) <= 1.0:
            return text
    except ValueError:
        pass
    raise ConfigError(f"{origin}: K must be an integer >= 0 or power:THETA, 0 <= THETA <= 1, got {text!r}")


def _parse_out_dir(text: str, origin: str) -> str:
    try:
        if any(part.exists() and not part.is_dir() for part in (Path(text), *Path(text).parents)):
            raise ConfigError(f"{origin}: out_dir {text!r} is or lies under a file")
    except OSError as exc:  # e.g. a name too long for the file system
        raise ConfigError(f"{origin}: cannot probe out_dir: {exc.strerror}") from exc
    return text


def _apply_entry(cfg: ExperimentConfig, key: str, value: str, origin: str) -> None:
    if key not in SETTINGS:
        raise ConfigError(f"{origin}: unknown key {key!r}")
    setattr(cfg, key, SETTINGS[key][0](value, origin))
    cfg.given[key] = origin


# config-file keys that are other names of a setting
_ALIASES = {"F_list": "F", "N_list": "N"}


def load_config(path: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: not UTF-8 (byte {exc.start})") from exc
    given = {}  # setting -> the key that set it
    for lineno, key, value in parse_kv_lines(text, origin=str(path)):
        setting = _ALIASES.get(key, key)
        if setting in given:
            raise ConfigError(f"{path}:{lineno}: {key!r} sets the same setting as {given[setting]!r}")
        given[setting] = key
        _apply_entry(cfg, setting, value, f"{path}:{lineno}")
    return cfg


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.15e}"
    return str(value)


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file renamed over it,
    so the file appears only complete."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------


#: Right-hand sides of the four strain identities of :func:`_identity_deviation`,
#: row i the coefficients of eps^(2j) sum (D^(j+1) u)^2, j = 0..3
IDENTITY_RHS = np.array([[4, -1, 0, 0], [9, -6, 1, 0], [16, -12, 2, 0], [16, -20, 8, -1]])


def _identity_deviation(u: PeriodicField) -> float:
    """Largest deviation across the four summed strain identities
    ``sum lhs = IDENTITY_RHS @ sums``, relative to the size of the terms whose
    roundoff both sides carry, ``sum |lhs| + |IDENTITY_RHS| @ sums``.  A
    periodic sum does not depend on a shift, so each right-hand side needs
    only the four sums ``eps^(2j) sum (D^(j+1) u)^2``."""
    eps = u.grid.epsilon
    diffs = [diff(u, j + 1).values for j in range(4)]
    sums = np.array([eps ** (2 * j) * np.sum(x**2) for j, x in enumerate(diffs)])
    a = diffs[0]
    up = lambda k: np.roll(a, -k)  # noqa: E731
    lhs = [
        (a + up(1)) ** 2,
        (a + up(1) + up(2)) ** 2,
        2 * (a + up(1)) * (up(-1) + a + up(1) + up(2)),
        (a + up(1) + up(2) + up(3)) ** 2,
    ]
    deviation = np.abs([np.sum(x) for x in lhs] - IDENTITY_RHS @ sums)
    scale = [np.sum(np.abs(x)) for x in lhs] + np.abs(IDENTITY_RHS) @ sums
    return float(np.max(deviation / np.maximum(scale, 1e-300)))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value shows as a FAIL line
def _run_validate(cfg: ExperimentConfig, p: EAMPotential) -> tuple[int, dict]:
    region = cfg.regions()[0]
    rng = np.random.default_rng(cfg.seed)
    checks: list[tuple[str, bool, str]] = []

    ok, worst = validate_derivatives(p, np.arange(0.8, 2.41, 0.1))
    checks.append(("derivatives", ok, f"max rel deviation {worst:.3e}"))

    worst_id = 0.0
    for n in (8, 16):
        grid = ChainGrid(n)
        for _ in range(100):
            u = PeriodicField.displacement(grid, rng.uniform(-1, 1, grid.period_atoms))
            worst_id = max(worst_id, _identity_deviation(u))
    checks.append(("strain-identities", worst_id <= 1e-12, f"max rel deviation {worst_id:.3e}"))

    grid = ChainGrid(region.N)
    worst_gf = 0.0
    for f_val in cfg.F:
        scale = force_scale(p, f_val, grid)
        for model in ModelKind:
            g = gradient(model, region, p, Deformation.uniform(grid, f_val))
            worst_gf = np.maximum(worst_gf, np.max(np.abs(g.values)) / scale)  # keeps NaN
    checks.append(("ghost-force", worst_gf <= 1e-12, f"max|g|/scale {worst_gf:.3e}"))

    worst_fd = 0.0
    # 4th-order central difference: its truncation error is O(h^4), so the
    # step can be wide enough that the roundoff of the energy sums, divided
    # by h, stays below the bound at large N
    h = 1e-3

    def strain_scaled(scale):
        s = rng.uniform(-1.0, 1.0, grid.period_atoms)
        s -= s.mean()
        return displacement_from_strain(grid, scale * s)

    for f_val in cfg.F[:1]:
        for model in ModelKind:
            for _ in range(5):
                u = strain_scaled(0.05)
                w = strain_scaled(0.1)
                y = Deformation(f_val, u)
                g = gradient(model, region, p, y)
                paired = grid.epsilon * float(np.dot(g.values, w.values))
                e = [energy(model, region, p, Deformation(f_val, u + t * w)) for t in (h, -h, 2 * h, -2 * h)]
                fd = (8 * (e[0] - e[1]) - (e[2] - e[3])) / (12 * h)
                worst_fd = np.maximum(worst_fd, abs(paired - fd) / max(abs(fd), 1e-12))
    checks.append(("gradient-vs-energy", worst_fd <= 1e-6, f"max rel deviation {worst_fd:.3e}"))

    for f_val in cfg.F:
        rep = check_assumptions(p, f_val)
        print(
            f"INFO assumptions at F={f_val:g}: a1={rep.a1_holds} "
            f"a2={rep.a2_holds} a3={rep.a3_holds}"
        )

    failures = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    return (0 if failures == 0 else 1), {}


# --------------------------------------------------------------------------
# experiment commands: each returns (exit status, {file name: text})
# --------------------------------------------------------------------------


def _run_spectrum(cfg: ExperimentConfig, p: EAMPotential) -> tuple[int, dict]:
    files = {}
    for f_val in cfg.F:
        for n in cfg.N:
            name = f"spectrum_F{f_val:g}_N{n}.csv"
            if name in files:  # the strains agree to 6 significant digits
                raise ConfigError(f"F={f_val!r} writes {name}, as an earlier strain does")
            rep = fourier_spectrum(p, f_val, n)
            rows = [
                [int(k), float(s), float(lam)]
                for k, s, lam in zip(rep.modes, rep.s_values, rep.eigenvalues)
            ]
            files[name] = _csv_text(["k", "s_k", "lambda_k"], rows)
    return 0, files


def _run_critical_strain(cfg: ExperimentConfig, p: EAMPotential) -> tuple[int, dict]:
    rows = []
    regions = cfg.regions()
    for model in (ModelKind.ATOMISTIC, ModelKind.QNL, ModelKind.QCL):
        f_star = {}  # one bisection per stability_key: per N, per K, or once
        for region in regions:
            key = stability_key(model, region)
            if key not in f_star:
                f_star[key] = critical_strain(model, region, p, cfg.F_range)
            rows.append([model.value, region.N, float(f_star[key])])
    return 0, {"critical_strain.csv": _csv_text(["model", "N", "F_star"], rows)}


GNUPLOT_TEMPLATE = """# log-log strain error and consistency negative norm vs eps
set datafile separator ','
set logscale xy
set xlabel 'eps = 1/N'
set ylabel 'error'
set key left top
plot 'converge.csv' using 3:4 skip 1 with linespoints title 'strain error', \\
     'converge.csv' using 3:5 skip 1 with linespoints title 'consistency negnorm'
"""


def _run_converge(cfg: ExperimentConfig, p: EAMPotential) -> tuple[int, dict]:
    # the tail slopes drop the coarsest N, so they need at least three N (else nan)
    start = time.perf_counter()
    records, rates = convergence_study(p, cfg.F[0], cfg.regions())
    wall_s = time.perf_counter() - start
    # the record's fields are the leading columns, in order
    rows = [[*astuple(r), rates["error_slope_all"], rates["error_slope_tail"]] for r in records]
    header = ["N", "K", "epsilon", "error_H1", "negnorm", "D3_C", "D2_I_max", "A_F", "lambda_min_qnl"]
    table = _csv_text(header + ["fit_slope_all", "fit_slope_tail"], rows)
    # the wall time is a diagnostic, kept off the reproducible CSV
    print(
        f"error slope (tail) {rates['error_slope_tail']:.3f}, "
        f"negnorm slope (tail) {rates['negnorm_slope_tail']:.3f}, "
        f"study wall time {wall_s:.3f} s"
    )
    return 0, {"converge.csv": table, "converge_plot.gp": GNUPLOT_TEMPLATE}


def _run_consistency(cfg: ExperimentConfig, p: EAMPotential) -> tuple[int, dict]:
    f_val = cfg.F[0]
    rows = []
    for region in cfg.regions():
        grid = ChainGrid(region.N)
        _, negnorm, d3, d2max, _ = consistency_point(region, p, f_val, cosine_load(grid))
        eps = grid.epsilon
        # Single per-N constant that makes the two-term bound an equality;
        # stability of this number across N is the operational form of the
        # consistency estimate.
        m_required = negnorm / (eps**2 * d3 + eps**1.5 * d2max)
        rows.append([region.N, region.K, eps, negnorm, d3, d2max, m_required])
    header = ["N", "K", "epsilon", "negnorm", "D3_C", "D2_I_max", "M_required"]
    return 0, {"consistency.csv": _csv_text(header, rows)}


def _run_remark44(cfg: ExperimentConfig, p: EAMPotential) -> tuple[int, dict]:
    f_val = cfg.F[0]
    # zone-boundary value of the stability cubic: phi''(F) + 2 G'(rho_bar) rho''(F)
    target = lambda_cubic(coefficients(p, f_val), 4.0)
    rows = []
    gaps = []
    ks = []
    for region in cfg.regions():
        u_tilde, u_hat = remark_test_functions(region.N, region.K)
        rq_atom = rayleigh_quotient(ModelKind.ATOMISTIC, region, p, f_val, u_tilde)
        rq_qnl = rayleigh_quotient(ModelKind.QNL, region, p, f_val, u_hat)
        qcl_min = lambda_min(ModelKind.QCL, region, p, f_val)
        rows.append([region.K, region.N, rq_atom, rq_qnl, qcl_min, target, rq_qnl - target])
        ks.append(region.K)
        gaps.append(abs(rq_qnl - target))
    header = ["K", "N", "rq_atomistic_utilde", "rq_qnl_uhat", "qcl_lambda_min", "target", "gap"]
    # gap ~ C / K, so the decay exponent is the log-log slope against 1/K
    exponent = fit_loglog_slope([1.0 / k for k in ks], gaps)
    return 0, {
        "remark44.csv": _csv_text(header, rows),
        "remark44_fit.csv": _csv_text(["decay_exponent", "target"], [[exponent, target]]),
    }


RUNNERS = {
    "validate": _run_validate,
    "spectrum": _run_spectrum,
    "critical-strain": _run_critical_strain,
    "converge": _run_converge,
    "consistency": _run_consistency,
    "remark44": _run_remark44,
}
#: Every setting: config key KEY and flag --KEY ('-' for '_') -> (parse(text, origin), help)
SETTINGS = {
    "command": (lambda text, origin: text, f"one of {', '.join(RUNNERS)}"),
    "potential": (lambda text, origin: text, "potential definition file"),
    "F": (lambda text, origin: tuple(_parse_strain(s, origin) for s in text.split(",")),
          "strain or comma list of strains"),
    "F_range": (_parse_range, "bisection bracket lo:hi"),
    # ChainGrid needs N >= 4
    "N": (lambda text, origin: tuple(_parse_int(s, origin, 4) for s in text.split(",")),
          "chain size or comma list"),
    "K": (_parse_k, "atomistic half-width: an integer, or power:THETA for K = floor(N**THETA)"),
    "out_dir": (_parse_out_dir, "output directory"),
    "seed": (lambda text, origin: _parse_int(text, origin, 0), "seed for randomized validation suites"),
}

#: The settings each command reads; every command also reads command, potential and out_dir
READS = {
    "validate": ("F", "N", "K", "seed"),
    "spectrum": ("F", "N"),
    "critical-strain": ("F_range", "N", "K"),
    "converge": ("F", "N", "K"),
    "consistency": ("F", "N", "K"),
    "remark44": ("F", "N"),  # K = N/2
}


@functools.cache  # built on first use, not at import, then reused by every main call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eamchain",
        description="Chain coupling experiments: validation, spectra, critical strains, rates.",
    )
    parser.add_argument("--config", help="key = value config file")
    for key, (_, help_text) in SETTINGS.items():
        parser.add_argument("--" + key.replace("_", "-"), help=help_text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        for key, value in vars(args).items():
            if key != "config" and value is not None:
                _apply_entry(cfg, key, value, f"<flag --{key.replace('_', '-')}>")
        cfg.validate()
        status, files = RUNNERS[cfg.command](cfg, load_potential_file(cfg.potential))
    except ConfigError as exc:  # also a malformed potential file
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NotPositiveDefiniteError, SolveError, BracketError) as exc:
        print(f"numerical failure in {cfg.command!r}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numerical failure in {cfg.command!r}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except NonFiniteError as exc:
        print(f"numerical failure in {cfg.command!r}: {exc} (file {cfg.potential})", file=sys.stderr)
        return 3
    for name, text in files.items():
        _write_atomic(Path(cfg.out_dir) / name, text)
    return status


if __name__ == "__main__":
    sys.exit(main())
