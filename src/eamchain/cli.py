"""Batch experiment driver: validation, spectra, critical strains, rates.

Configs use the same ``key = value`` grammar as potential files; every
config key has a matching command-line flag and flags override the file.
Outputs are CSV tables (UTF-8, '.' decimal, >= 12 significant digits) plus,
for rate studies, a plain-text gnuplot script; files are written atomically
once an experiment completes.  Identical config and seed reproduce the same
bytes, except for the wall-clock runtime_ms diagnostic column of rate
studies.

Exit status: 0 all invoked checks passed, 1 a validation check failed,
2 config error (a malformed value; the message names its flag or file:line),
3 numerical failure (including a potential that is not finite at a strain
analysed).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import dataclass
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
from .potentials import NonFiniteError, check_assumptions, load_potential_file, validate_derivatives
from .solver import (
    NotPositiveDefiniteError,
    SolveError,
    consistency_point,
    convergence_study,
    cosine_load,
    fit_loglog_slope,
    power_k_rule,
)
from .stability import (
    BracketError,
    coefficients,
    critical_strain,
    fourier_spectrum,
    lambda_cubic,
    min_eig_numeric,
    rayleigh_quotient,
    remark_test_functions,
)
from .textconfig import ConfigError, parse_kv_lines

COMMANDS = ("validate", "spectrum", "critical-strain", "converge", "consistency", "remark44")


@dataclass
class ExperimentConfig:
    command: str = ""
    potential: str = ""
    F_values: tuple = (1.0,)
    F_range: tuple | None = None
    N_values: tuple = (64,)
    K: int = 8
    K_rule: str = "fixed"
    out_dir: str = "out"
    seed: int = 20240

    def k_for(self, n: int) -> int:
        theta = _power_theta(self.K_rule)
        return self.K if theta is None else power_k_rule(theta)(n)

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r} (choose from {COMMANDS})")
        if not self.potential:
            raise ConfigError("no potential file given")
        if not Path(self.potential).is_file():
            raise ConfigError(f"potential file not found: {self.potential}")
        if list(self.N_values) != sorted(set(self.N_values)):
            raise ConfigError(f"N list must be strictly increasing, got {self.N_values}")
        # spectrum is the one command with no coupled region, so no (N, K) pairing
        if self.command != "spectrum":
            for n in self.N_values:
                k = self.k_for(n) if self.command != "remark44" else n // 2
                if not 0 <= k < n - 5:
                    raise ConfigError(f"need 0 <= K < N-5 for experiments, got K={k}, N={n}")
        if self.command == "critical-strain" and self.F_range is None:
            raise ConfigError("critical-strain needs F_range = lo:hi")


def _power_theta(rule: str) -> float | None:
    """THETA of a 'power:THETA' K rule (K = floor(N**THETA)); None for 'fixed'."""
    if rule == "fixed":
        return None
    head, _, text = rule.partition(":")
    try:
        theta = float(text) if head == "power" else math.nan
    except ValueError:
        theta = math.nan
    if not 0.0 <= theta <= 1.0:
        raise ConfigError(
            f"unknown K_rule {rule!r} (use 'fixed' or 'power:THETA', 0 <= THETA <= 1)"
        )
    return theta


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


def _apply_entry(cfg: ExperimentConfig, key: str, value: str, origin: str) -> None:
    if key == "command":
        cfg.command = value
    elif key == "potential":
        cfg.potential = value
    elif key in ("F", "F_list"):
        cfg.F_values = tuple(_parse_strain(part, origin) for part in value.split(","))
    elif key == "F_range":
        parts = value.split(":")
        if len(parts) != 2:
            raise ConfigError(f"{origin}: F_range must be lo:hi, got {value!r}")
        lo, hi = (_parse_strain(part, origin) for part in parts)
        if not lo < hi:
            raise ConfigError(f"{origin}: F_range needs lo < hi, got {value!r}")
        cfg.F_range = (lo, hi)
    elif key in ("N", "N_list"):
        # ChainGrid needs N >= 4
        cfg.N_values = tuple(_parse_int(part, origin, 4) for part in value.split(","))
    elif key == "K":
        cfg.K = _parse_int(value, origin, 0)
    elif key == "K_rule":
        try:
            _power_theta(value)
        except ConfigError as exc:
            raise ConfigError(f"{origin}: {exc}") from exc
        cfg.K_rule = value
    elif key == "out_dir":
        path = Path(value)
        if any(part.exists() and not part.is_dir() for part in (path, *path.parents)):
            raise ConfigError(f"{origin}: out_dir {value!r} is or lies under a file")
        cfg.out_dir = value
    elif key == "seed":
        cfg.seed = _parse_int(value, origin, 0)
    else:
        raise ConfigError(f"{origin}: unknown key {key!r}")


def load_config(path: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: not UTF-8 (byte {exc.start})") from exc
    for lineno, key, value in parse_kv_lines(text, origin=str(path)):
        _apply_entry(cfg, key, value, f"{path}:{lineno}")
    return cfg


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.15e}"
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Atomic CSV write: rows land on disk only once complete."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
    payload = "\n".join(lines) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------


def _identity_deviation(u: PeriodicField) -> float:
    """Largest relative deviation across the four summed strain identities."""
    eps = u.grid.epsilon
    a = diff(u, 1).values
    b = diff(u, 2).values
    c3 = diff(u, 3).values
    c4 = diff(u, 4).values
    up = lambda x, k=1: np.roll(x, -k)  # noqa: E731
    dn = lambda x, k=1: np.roll(x, k)  # noqa: E731

    pairs = []
    lhs = np.sum((a + up(a)) ** 2)
    rhs = np.sum(2 * a**2 + 2 * up(a) ** 2 - eps**2 * up(b) ** 2)
    pairs.append((lhs, rhs))

    lhs = np.sum((a + up(a) + up(a, 2)) ** 2)
    rhs = np.sum(
        3 * a**2
        + 3 * up(a) ** 2
        + 3 * up(a, 2) ** 2
        - 3 * eps**2 * (up(b) ** 2 + up(b, 2) ** 2)
        + eps**4 * up(c3, 2) ** 2
    )
    pairs.append((lhs, rhs))

    lhs = np.sum(2 * (a + up(a)) * (dn(a) + a + up(a) + up(a, 2)))
    rhs = np.sum(
        2 * (dn(a) ** 2 + 3 * a**2 + 3 * up(a) ** 2 + up(a, 2) ** 2)
        - 3 * eps**2 * (b**2 + 2 * up(b) ** 2 + up(b, 2) ** 2)
        + eps**4 * (up(c3) ** 2 + up(c3, 2) ** 2)
    )
    pairs.append((lhs, rhs))

    lhs = np.sum((a + up(a) + up(a, 2) + up(a, 3)) ** 2)
    rhs = np.sum(
        4 * (a**2 + up(a) ** 2 + up(a, 2) ** 2 + up(a, 3) ** 2)
        - eps**2 * (6 * up(b) ** 2 + 8 * up(b, 2) ** 2 + 6 * up(b, 3) ** 2)
        + eps**4 * (4 * up(c3, 2) ** 2 + 4 * up(c3, 3) ** 2)
        - eps**6 * up(c4, 3) ** 2
    )
    pairs.append((lhs, rhs))

    return max(abs(l - r) / max(abs(l), 1e-300) for l, r in pairs)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value shows as a FAIL line
def _run_validate(cfg: ExperimentConfig) -> int:
    p = load_potential_file(cfg.potential)
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

    n = cfg.N_values[0]
    region = RegionDecomposition(n, cfg.k_for(n))
    worst_gf = 0.0
    for f_val in cfg.F_values:
        grid = ChainGrid(n)
        scale = force_scale(p, f_val, grid)
        for model in ModelKind:
            g = gradient(model, region, p, Deformation.uniform(grid, f_val))
            worst_gf = np.maximum(worst_gf, np.max(np.abs(g.values)) / scale)  # keeps NaN
    checks.append(("ghost-force", worst_gf <= 1e-12, f"max|g|/scale {worst_gf:.3e}"))

    grid = ChainGrid(16)
    region16 = RegionDecomposition(16, 4)
    worst_fd = 0.0
    h = 1e-5

    def strain_scaled(scale):
        s = rng.uniform(-1.0, 1.0, grid.period_atoms)
        s -= s.mean()
        return displacement_from_strain(grid, scale * s)

    for f_val in cfg.F_values[:1]:
        for model in ModelKind:
            for _ in range(5):
                u = strain_scaled(0.05)
                w = strain_scaled(0.1)
                y = Deformation(f_val, u)
                g = gradient(model, region16, p, y)
                paired = grid.epsilon * float(np.dot(g.values, w.values))
                e_plus = energy(model, region16, p, Deformation(f_val, u + h * w))
                e_minus = energy(model, region16, p, Deformation(f_val, u + (-h) * w))
                fd = (e_plus - e_minus) / (2 * h)
                worst_fd = np.maximum(worst_fd, abs(paired - fd) / max(abs(fd), 1e-12))
    checks.append(("gradient-vs-energy", worst_fd <= 1e-6, f"max rel deviation {worst_fd:.3e}"))

    for f_val in cfg.F_values:
        rep = check_assumptions(p, f_val)
        print(
            f"INFO assumptions at F={f_val:g}: a1={rep.a1_holds} "
            f"a2={rep.a2_holds} a3={rep.a3_holds}"
        )

    failures = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


# --------------------------------------------------------------------------
# experiment commands
# --------------------------------------------------------------------------


def _run_spectrum(cfg: ExperimentConfig) -> int:
    p = load_potential_file(cfg.potential)
    out = Path(cfg.out_dir)
    for f_val in cfg.F_values:
        for n in cfg.N_values:
            rep = fourier_spectrum(p, f_val, n)
            rows = [
                [int(k), float(s), float(lam)]
                for k, s, lam in zip(rep.modes, rep.s_values, rep.eigenvalues)
            ]
            write_csv(
                out / f"spectrum_F{f_val:g}_N{n}.csv",
                ["k", "s_k", "lambda_k"],
                rows,
            )
    return 0


def _run_critical_strain(cfg: ExperimentConfig) -> int:
    p = load_potential_file(cfg.potential)
    rows = []
    for model in (ModelKind.ATOMISTIC, ModelKind.QNL, ModelKind.QCL):
        for n in cfg.N_values:
            region = RegionDecomposition(n, cfg.k_for(n))
            f_star = critical_strain(model, region, p, n, cfg.F_range)
            rows.append([model.value, n, float(f_star)])
    write_csv(Path(cfg.out_dir) / "critical_strain.csv", ["model", "N", "F_star"], rows)
    return 0


GNUPLOT_TEMPLATE = """# log-log strain error and consistency negative norm vs eps
set datafile separator ','
set logscale xy
set xlabel 'eps = 1/N'
set ylabel 'error'
set key left top
plot 'converge.csv' using 3:4 skip 1 with linespoints title 'strain error', \\
     'converge.csv' using 3:5 skip 1 with linespoints title 'consistency negnorm'
"""


def _run_converge(cfg: ExperimentConfig) -> int:
    p = load_potential_file(cfg.potential)
    records, rates = convergence_study(p, cfg.F_values[0], cosine_load, cfg.k_for, cfg.N_values)
    rows = [
        [
            r.N,
            r.K,
            r.epsilon,
            r.error_H1,
            r.consistency_negnorm,
            r.D3_continuum,
            r.D2_interface_max,
            r.runtime_ms,
            r.a_modulus,
            r.lambda_min_qnl,
            rates["error_slope_all"],
            rates["error_slope_tail"],
        ]
        for r in records
    ]
    out = Path(cfg.out_dir)
    write_csv(
        out / "converge.csv",
        [
            "N",
            "K",
            "epsilon",
            "error_H1",
            "negnorm",
            "D3_C",
            "D2_I_max",
            "runtime_ms",
            "A_F",
            "lambda_min_qnl",
            "fit_slope_all",
            "fit_slope_tail",
        ],
        rows,
    )
    (out / "converge_plot.gp").write_text(GNUPLOT_TEMPLATE, encoding="utf-8")
    print(
        f"error slope (tail) {rates['error_slope_tail']:.3f}, "
        f"negnorm slope (tail) {rates['negnorm_slope_tail']:.3f}"
    )
    return 0


def _run_consistency(cfg: ExperimentConfig) -> int:
    p = load_potential_file(cfg.potential)
    f_val = cfg.F_values[0]
    rows = []
    for n in cfg.N_values:
        grid = ChainGrid(n)
        region = RegionDecomposition(n, cfg.k_for(n))
        _, negnorm, d3, d2max = consistency_point(region, p, f_val, cosine_load(grid))
        eps = grid.epsilon
        # Single per-N constant that makes the two-term bound an equality;
        # stability of this number across N is the operational form of the
        # consistency estimate.
        m_required = negnorm / (eps**2 * d3 + eps**1.5 * d2max)
        rows.append([n, region.K, eps, negnorm, d3, d2max, m_required])
    write_csv(
        Path(cfg.out_dir) / "consistency.csv",
        ["N", "K", "epsilon", "negnorm", "D3_C", "D2_I_max", "M_required"],
        rows,
    )
    return 0


def _run_remark44(cfg: ExperimentConfig) -> int:
    p = load_potential_file(cfg.potential)
    f_val = cfg.F_values[0]
    # zone-boundary value of the stability cubic: phi''(F) + 2 G'(rho_bar) rho''(F)
    target = lambda_cubic(coefficients(p, f_val), 4.0)
    rows = []
    gaps = []
    ks = []
    for n in cfg.N_values:
        k = n // 2
        region = RegionDecomposition(n, k)
        u_tilde, u_hat = remark_test_functions(n, k)
        rq_atom = rayleigh_quotient(ModelKind.ATOMISTIC, region, p, f_val, u_tilde)
        rq_qnl = rayleigh_quotient(ModelKind.QNL, region, p, f_val, u_hat)
        qcl_min = min_eig_numeric(ModelKind.QCL, region, p, f_val, n)[0]
        rows.append([k, n, rq_atom, rq_qnl, qcl_min, target, rq_qnl - target])
        ks.append(k)
        gaps.append(abs(rq_qnl - target))
    out = Path(cfg.out_dir)
    write_csv(
        out / "remark44.csv",
        ["K", "N", "rq_atomistic_utilde", "rq_qnl_uhat", "qcl_lambda_min", "target", "gap"],
        rows,
    )
    # gap ~ C / K, so the decay exponent is the log-log slope against 1/K
    exponent = fit_loglog_slope([1.0 / k for k in ks], gaps) if len(ks) > 1 else float("nan")
    write_csv(out / "remark44_fit.csv", ["decay_exponent", "target"], [[exponent, target]])
    return 0


RUNNERS = {
    "validate": _run_validate,
    "spectrum": _run_spectrum,
    "critical-strain": _run_critical_strain,
    "converge": _run_converge,
    "consistency": _run_consistency,
    "remark44": _run_remark44,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eamchain",
        description="Chain coupling experiments: validation, spectra, critical strains, rates.",
    )
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--command", choices=COMMANDS)
    parser.add_argument("--potential", help="potential definition file")
    parser.add_argument("--F", dest="F", help="strain or comma list of strains")
    parser.add_argument("--F-range", dest="F_range", help="bisection bracket lo:hi")
    parser.add_argument("--N", dest="N", help="chain size or comma list")
    parser.add_argument("--K", dest="K", help="atomistic half-width")
    parser.add_argument("--K-rule", dest="K_rule", help="'fixed' or 'power:THETA'")
    parser.add_argument("--out-dir", dest="out_dir", help="output directory")
    parser.add_argument("--seed", help="seed for randomized validation suites")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        for key, value in vars(args).items():
            if key != "config" and value is not None:
                _apply_entry(cfg, key, value, f"<flag --{key.replace('_', '-')}>")
        cfg.validate()
        return RUNNERS[cfg.command](cfg)
    except ConfigError as exc:  # also a malformed potential file, read by the runner
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NotPositiveDefiniteError, SolveError, BracketError) as exc:
        print(f"numerical failure in {cfg.command!r}: {exc}", file=sys.stderr)
        return 3
    except NonFiniteError as exc:
        print(f"numerical failure in {cfg.command!r}: {exc} (file {cfg.potential})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
