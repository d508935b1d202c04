"""Config parsing, command runs, CSV outputs, and determinism."""

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from eamchain import cli, stability
from eamchain.cli import ExperimentConfig, load_config, main
from eamchain.models import ModelKind, RegionDecomposition
from eamchain.potentials import load_potential_file
from eamchain.textconfig import ConfigError

POT = str(resources.files("eamchain").joinpath("data", "default_eam.pot"))
POT_REVERSAL = str(resources.files("eamchain").joinpath("data", "reversal_eam.pot"))
POT_PAIR = str(resources.files("eamchain").joinpath("data", "pair_morse.pot"))


def run_cli(*args):
    return main(list(args))


def test_load_config_and_overrides(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        f"command = validate\npotential = {POT}\nF = 1.0,1.05\nN_list = 8,16\n"
        f"out_dir = {tmp_path/'out'}\nseed = 7\n"
    )
    cfg = load_config(cfg_file)
    assert cfg.command == "validate"
    assert cfg.F == (1.0, 1.05)
    assert cfg.N == (8, 16)
    assert cfg.seed == 7
    cfg.validate()


def test_config_errors_carry_line_numbers(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("command = spectrum\npotential = x.pot\nbogus = 1\n")
    assert run_cli("--config", str(cfg_file)) == 2
    cfg_file.write_text("command = spectrum\nN = not-a-number\n")
    assert run_cli("--config", str(cfg_file)) == 2


def test_config_key_given_twice_exits_2(tmp_path, capsys):
    # the second N used to win silently
    cfg_file = tmp_path / "twice.cfg"
    cfg_file.write_text(f"command = spectrum\npotential = {POT}\nN = 16\nN = 32\n")
    out_dir = tmp_path / "out"
    assert run_cli("--config", str(cfg_file), "--out-dir", str(out_dir)) == 2
    assert capsys.readouterr().err == f"config error: {cfg_file}:4: duplicate key 'N'\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("first, second", [("N = 16", "N_list = 32"), ("F_list = 1.0", "F = 1.05")], ids=["N", "F"])
def test_config_setting_given_by_two_aliases_exits_2(tmp_path, capsys, first, second):
    # the second alias used to win silently
    cfg_file = tmp_path / "aliases.cfg"
    cfg_file.write_text(f"command = spectrum\npotential = {POT}\n{first}\n{second}\n")
    out_dir = tmp_path / "out"
    assert run_cli("--config", str(cfg_file), "--out-dir", str(out_dir)) == 2
    key, other = second.split(" = ")[0], first.split(" = ")[0]
    assert capsys.readouterr().err == f"config error: {cfg_file}:4: {key!r} sets the same setting as {other!r}\n"
    assert not out_dir.exists()


def test_cli_never_imports_scipy_linalg(tmp_path):
    # the banded Cholesky loads scipy's LAPACK extension alone; importing
    # the scipy.linalg package would triple the start-up of every command
    check = (
        "import sys, eamchain.cli\n"
        "assert 'scipy.linalg' not in sys.modules, 'on import'\n"
        "status = eamchain.cli.main(sys.argv[1:])\n"
        "assert status == 0 and 'scipy.linalg' not in sys.modules, 'after critical-strain'\n"
    )
    argv = ["--command", "critical-strain", "--potential", POT, "--F-range", "1.0:1.15"]
    argv += ["--N", "32,64,128", "--K", "8", "--out-dir", str(tmp_path)]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", check, *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "critical_strain.csv").is_file()


# (command, config key, malformed value); the flag is --KEY with '-' for '_'
MALFORMED = [
    ("critical-strain", "F_range", "1.0:abc"),
    ("critical-strain", "F_range", "1.2:1.0"),
    ("converge", "K", "power:x"),
    ("spectrum", "F", "nan"),
    ("spectrum", "F", "-1"),
    ("spectrum", "F", "inf"),
    ("spectrum", "N", "2"),
    ("converge", "K", "abc"),
    ("validate", "seed", "x"),
]


@pytest.mark.parametrize("command,key,value", MALFORMED)
def test_malformed_input_exits_2_naming_origin(tmp_path, capsys, command, key, value):
    flag = "--" + key.replace("_", "-")
    out_dir = str(tmp_path / "out")
    assert run_cli("--command", command, "--potential", POT, flag, value, "--out-dir", out_dir) == 2
    assert f"<flag {flag}>" in capsys.readouterr().err
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"command = {command}\npotential = {POT}\n{key} = {value}\n")
    assert run_cli("--config", str(cfg_file), "--out-dir", out_dir) == 2
    assert f"{cfg_file}:3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name,content",
    [("missing.cfg", None), (".", None), ("latin1.cfg", b"\xff\xfe = 1\n")],
    ids=["missing.cfg", ".", "not-utf8"],
)
def test_unreadable_config_file_exits_2(tmp_path, capsys, name, content):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    assert run_cli("--config", str(path)) == 2
    assert f"cannot read config file {path}" in capsys.readouterr().err


def test_config_validation_rules(tmp_path, capsys):
    cfg = ExperimentConfig(command="spectrum", potential=POT, N=(16, 8))
    with pytest.raises(Exception, match="increasing"):
        cfg.validate()
    # the K window is checked where the regions are made, and only there
    cfg = ExperimentConfig(command="converge", potential=POT, N=(16,), K=12)
    with pytest.raises(ConfigError, match="K"):
        cfg.regions()
    cfg = ExperimentConfig(command="nonsense", potential=POT)
    with pytest.raises(Exception, match="command"):
        cfg.validate()
    assert run_cli("--command", "spectrum", "--potential", "missing.pot") == 2
    assert capsys.readouterr().err == "config error: potential file not found: missing.pot\n"
    # an unknown command takes the config-error path from a flag as from a file
    out_dir = tmp_path / "out"
    assert run_cli("--command", "nonsense", "--potential", POT, "--out-dir", str(out_dir)) == 2
    assert capsys.readouterr().err.startswith("config error: unknown command 'nonsense'")
    assert not out_dir.exists()


def test_k_rules(tmp_path):
    assert ExperimentConfig(command="converge", K=8, N=(512,)).regions() == [RegionDecomposition(512, 8)]
    power = ExperimentConfig(command="converge", K="power:0.5", N=(64, 100))
    assert power.regions() == [RegionDecomposition(64, 8), RegionDecomposition(100, 10)]
    # remark44's test functions span half the chain, whatever K says
    assert ExperimentConfig(command="remark44", K="power:0.5", N=(64,)).regions() == [RegionDecomposition(64, 32)]
    # the flag --K power:0.5 gives the regions of the old rule: K = 8 at N = 64, 10 at N = 100
    args = ["--command", "consistency", "--potential", POT, "--F", "1.0", "--N", "64,100", "--K", "power:0.5"]
    assert run_cli(*args, "--out-dir", str(tmp_path)) == 0
    rows = (tmp_path / "consistency.csv").read_text().splitlines()[1:]
    assert [tuple(row.split(",")[:2]) for row in rows] == [("64", "8"), ("100", "10")]


@pytest.mark.parametrize("command", ["converge", "consistency", "remark44"])
def test_single_strain_command_given_two_strains_exits_2(tmp_path, capsys, command):
    # these tables have no F column; every F after the first used to be dropped
    out_dir = tmp_path / "out"
    args = ["--command", command, "--potential", POT, "--F", "1.0,1.1", "--N", "64,128"]
    assert run_cli(*args, "--out-dir", str(out_dir)) == 2
    assert capsys.readouterr().err == f"config error: {command} takes one strain F, got 2\n"
    assert not out_dir.exists()


def test_validate_command_passes(tmp_path, capsys):
    status = run_cli(
        "--command", "validate", "--potential", POT,
        "--F", "0.95,1.0,1.1", "--N", "64", "--K", "10",
        "--out-dir", str(tmp_path),
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "PASS ghost-force" in out
    assert "PASS strain-identities" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("seed", ["2", "4"])
def test_validate_gradient_check_passes_at_n_2048(capsys, seed):
    # a 2nd-order difference with h = 1e-5 reported 1.1e-6 and 1.5e-6 here:
    # roundoff of the energy sums, amplified by 1/h, not an assembly error
    status = run_cli("--command", "validate", "--potential", POT, "--F", "1.0", "--N", "2048", "--K", "32", "--seed", seed)
    assert "PASS gradient-vs-energy" in capsys.readouterr().out
    assert status == 0


@pytest.mark.parametrize("seed", ["0", "2", "7", "8"])
def test_validate_strain_identities_pass_on_seeds_0_2_7_8(capsys, seed):
    # relative to |lhs| alone these draws read 1.5e-12 to 3.2e-12: the
    # roundoff of the right-hand side scales with its larger terms
    status = run_cli("--command", "validate", "--potential", POT, "--F", "1.0", "--N", "64", "--K", "10", "--seed", seed)
    assert "PASS strain-identities" in capsys.readouterr().out
    assert status == 0


def test_validate_catches_a_second_difference_off_by_1e_9(monkeypatch, capsys):
    exact = cli.diff

    def off(u, order=1):
        d = exact(u, order)
        if order != 2:
            return d
        values = d.values.copy()
        values[3] *= 1 + 1e-9
        return cli.PeriodicField(d.grid, values, d.kind)

    monkeypatch.setattr(cli, "diff", off)
    status = run_cli("--command", "validate", "--potential", POT, "--F", "0.95,1.0,1.1", "--N", "64", "--K", "10")
    assert status == 1
    assert "FAIL strain-identities" in capsys.readouterr().out


def test_validate_catches_a_gradient_off_by_1e_5(monkeypatch, capsys):
    exact = cli.gradient
    monkeypatch.setattr(cli, "gradient", lambda *args: exact(*args) * (1 + 1e-5))
    status = run_cli("--command", "validate", "--potential", POT, "--F", "0.95,1.0,1.1", "--N", "64", "--K", "10")
    assert status == 1
    assert "FAIL gradient-vs-energy" in capsys.readouterr().out


def test_spectrum_csv_shape_and_symmetry(tmp_path):
    status = run_cli(
        "--command", "spectrum", "--potential", POT,
        "--F", "1.0", "--N", "8", "--out-dir", str(tmp_path),
    )
    assert status == 0
    csv = (tmp_path / "spectrum_F1_N8.csv").read_text().strip().splitlines()
    assert csv[0] == "k,s_k,lambda_k"
    assert len(csv) == 17  # header + 2N rows
    rows = {int(line.split(",")[0]): float(line.split(",")[2]) for line in csv[1:]}
    for k in range(1, 8):
        assert rows[k] == rows[-k]


def test_spectrum_determinism(tmp_path):
    for sub in ("a", "b"):
        run_cli(
            "--command", "spectrum", "--potential", POT,
            "--F", "1.03", "--N", "16", "--out-dir", str(tmp_path / sub),
        )
    a = (tmp_path / "a" / "spectrum_F1.03_N16.csv").read_bytes()
    b = (tmp_path / "b" / "spectrum_F1.03_N16.csv").read_bytes()
    assert a == b


def test_converge_csv_and_plot_script(tmp_path):
    status = run_cli(
        "--command", "converge", "--potential", POT,
        "--F", "1.0", "--N", "16,32,64", "--K", "4", "--out-dir", str(tmp_path),
    )
    assert status == 0
    lines = (tmp_path / "converge.csv").read_text().strip().splitlines()
    assert lines[0].split(",") == [
        "N", "K", "epsilon", "error_H1", "negnorm", "D3_C", "D2_I_max", "A_F", "lambda_min_qnl",
        "fit_slope_all", "fit_slope_tail",
    ]
    assert len(lines) == 4
    assert (tmp_path / "converge_plot.gp").exists()
    # a second run writes the same bytes
    run_cli(
        "--command", "converge", "--potential", POT,
        "--F", "1.0", "--N", "16,32,64", "--K", "4", "--out-dir", str(tmp_path / "b"),
    )
    for name in ("converge.csv", "converge_plot.gp"):
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_critical_strain_command(tmp_path):
    status = run_cli(
        "--command", "critical-strain", "--potential", POT,
        "--F-range", "1.0:1.15", "--N", "32", "--K", "6", "--out-dir", str(tmp_path),
    )
    assert status == 0
    lines = (tmp_path / "critical_strain.csv").read_text().strip().splitlines()
    assert lines[0] == "model,N,F_star"
    assert len(lines) == 4  # three models at one size
    stars = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(1.0 < f < 1.15 for f in stars)


@pytest.mark.parametrize(
    "sizes, ks, bisections",
    [
        (["--N", "32,64,128", "--K", "8"], [8, 8, 8], {"atomistic": 3, "qnl": 1, "qcl": 1}),
        (["--N", "32,35,36,64", "--K", "power:0.5"], [5, 5, 6, 8], {"atomistic": 4, "qnl": 3, "qcl": 1}),
    ],
    ids=["fixed-K", "power-rule"],
)
def test_critical_strain_bisects_each_coupled_model_once_per_k(tmp_path, monkeypatch, sizes, ks, bisections):
    # QNL's F_star depends on K alone and QCL's on neither N nor K, so the
    # runner bisects QNL once per distinct K and QCL once, and writes each
    # F_star on every row that shares it: the value a bisection at that
    # row gives
    calls = []

    def counted(model, region, p, bracket):
        calls.append(model.value)
        return stability.critical_strain(model, region, p, bracket)

    monkeypatch.setattr(cli, "critical_strain", counted)
    args = ["--command", "critical-strain", "--potential", POT_REVERSAL, "--F-range", "0.95:1.2"]
    assert run_cli(*args, *sizes, "--out-dir", str(tmp_path)) == 0
    assert {model: calls.count(model) for model in set(calls)} == bisections
    p = load_potential_file(POT_REVERSAL)
    rows = [line.split(",") for line in (tmp_path / "critical_strain.csv").read_text().splitlines()[1:]]
    assert len(rows) == 3 * len(ks)
    for (model, n, f_star), k in zip(rows, ks * 3):
        region = RegionDecomposition(int(n), k)
        assert f_star == f"{stability.critical_strain(ModelKind(model), region, p, (0.95, 1.2)):.15e}"


def test_critical_strain_bad_bracket_is_numerical_failure(tmp_path):
    status = run_cli(
        "--command", "critical-strain", "--potential", POT,
        "--F-range", "1.0:1.01", "--N", "32", "--K", "6", "--out-dir", str(tmp_path),
    )
    assert status == 3


def test_consistency_command(tmp_path):
    status = run_cli(
        "--command", "consistency", "--potential", POT,
        "--F", "1.0", "--N", "32,64", "--K", "8", "--out-dir", str(tmp_path),
    )
    assert status == 0
    lines = (tmp_path / "consistency.csv").read_text().strip().splitlines()
    assert lines[0].startswith("N,K,epsilon,negnorm")
    assert len(lines) == 3


def test_remark44_command(tmp_path):
    status = run_cli(
        "--command", "remark44", "--potential", POT_REVERSAL,
        "--F", "1.0", "--N", "16,32,64", "--out-dir", str(tmp_path),
    )
    assert status == 0
    table = (tmp_path / "remark44.csv").read_text().strip().splitlines()
    assert table[0].startswith("K,N,rq_atomistic_utilde,rq_qnl_uhat")
    assert len(table) == 4
    fit = (tmp_path / "remark44_fit.csv").read_text().strip().splitlines()
    exponent = float(fit[1].split(",")[0])
    assert 0.5 < exponent < 1.5


def test_unstable_converge_returns_numerical_failure(tmp_path):
    status = run_cli(
        "--command", "converge", "--potential", POT,
        "--F", "1.14", "--N", "16,32", "--K", "4", "--out-dir", str(tmp_path),
    )
    assert status == 3


def test_csv_floats_high_precision(tmp_path):
    run_cli(
        "--command", "spectrum", "--potential", POT,
        "--F", "1.0", "--N", "8", "--out-dir", str(tmp_path),
    )
    line = (tmp_path / "spectrum_F1_N8.csv").read_text().splitlines()[1]
    mantissa = line.split(",")[2].split("e")[0]
    assert len(mantissa.replace("-", "").replace(".", "")) >= 12


def test_out_dir_naming_a_file_exits_2(tmp_path, capsys):
    existing = tmp_path / "taken.txt"
    existing.write_text("not a directory\n")
    for out_dir in (existing, existing / "sub"):
        args = ("--command", "spectrum", "--potential", POT, "--N", "8")
        assert run_cli(*args, "--out-dir", str(out_dir)) == 2
        assert "<flag --out-dir>" in capsys.readouterr().err
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(f"command = spectrum\npotential = {POT}\nout_dir = {out_dir}\n")
        assert run_cli("--config", str(cfg_file)) == 2
        assert f"{cfg_file}:3" in capsys.readouterr().err
    assert existing.read_text() == "not a directory\n"


def test_over_long_out_dir_exits_2(tmp_path, capsys):
    # probing a 300-character name raised OSError (ENAMETOOLONG) with a traceback
    out_dir = tmp_path / ("d" * 300)
    args = ("--command", "spectrum", "--potential", POT, "--N", "8")
    assert run_cli(*args, "--out-dir", str(out_dir)) == 2
    assert capsys.readouterr().err == "config error: <flag --out-dir>: cannot probe out_dir: File name too long\n"
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"command = spectrum\npotential = {POT}\nN = 8\nout_dir = {out_dir}\n")
    assert run_cli("--config", str(cfg_file)) == 2
    assert capsys.readouterr().err == f"config error: {cfg_file}:4: cannot probe out_dir: File name too long\n"
    assert list(tmp_path.iterdir()) == [cfg_file]


def test_over_long_potential_name_exits_2(tmp_path, capsys):
    # Path.is_file raised OSError (ENAMETOOLONG) with a traceback
    pot = str(tmp_path / ("p" * 300))
    out_dir = tmp_path / "out"
    assert run_cli("--command", "spectrum", "--potential", pot, "--N", "8", "--out-dir", str(out_dir)) == 2
    assert capsys.readouterr().err == f"config error: potential file not found: {pot}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "args,setting",
    [
        (["--command", "critical-strain", "--F", "1.0,1.1", "--F-range", "1.0:1.15", "--N", "32", "--K", "8"], "F"),
        (["--command", "remark44", "--K", "3", "--N", "16,32"], "K"),
        (["--command", "spectrum", "--N", "16", "--K", "99"], "K"),
        (["--command", "spectrum", "--N", "16", "--F-range", "1.0:1.15"], "F_range"),
        (["--command", "converge", "--N", "16,32", "--K", "4", "--seed", "3"], "seed"),
    ],
    ids=["critical-strain-F", "remark44-K", "spectrum-K", "spectrum-F_range", "converge-seed"],
)
def test_setting_the_command_does_not_read_exits_2(tmp_path, capsys, args, setting):
    # each of these ran, ignored the setting and exited 0
    out_dir = tmp_path / "out"
    assert run_cli(*args, "--potential", POT, "--out-dir", str(out_dir)) == 2
    flag = "--" + setting.replace("_", "-")
    assert capsys.readouterr().err == f"config error: <flag {flag}>: {args[1]} does not read {setting}\n"
    assert not out_dir.exists()


def test_setting_in_a_config_file_the_command_does_not_read_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"command = spectrum\npotential = {POT}\nN = 16\nK = 8\n")
    out_dir = tmp_path / "out"
    assert run_cli("--config", str(cfg_file), "--out-dir", str(out_dir)) == 2
    assert capsys.readouterr().err == f"config error: {cfg_file}:4: spectrum does not read K\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("strains", ["1.0,1.0000001", "1.0,1.0"])
def test_spectrum_strains_that_name_one_file_exit_2(tmp_path, capsys, strains):
    # both strains print as F1, and the second file replaced the first
    out_dir = tmp_path / "out"
    args = ["--command", "spectrum", "--potential", POT, "--F", strains, "--N", "16"]
    assert run_cli(*args, "--out-dir", str(out_dir)) == 2
    second = repr(float(strains.split(",")[1]))
    assert capsys.readouterr().err == (
        f"config error: F={second} writes spectrum_F1_N16.csv, as an earlier strain does\n"
    )
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command,value,message",
    [
        ("spectrum", "nan", "parameter 'alpha' must be finite"),
        ("critical-strain", "inf", "parameter 'alpha' must be finite"),
        ("spectrum", "\xff", "not UTF-8"),
    ],
    ids=["spectrum-nan", "critical-strain-inf", "spectrum-not-utf8"],
)
def test_non_finite_potential_parameter_exits_2(tmp_path, capsys, command, value, message):
    pot = tmp_path / "bad.pot"
    text = open(POT).read().replace("alpha = 4.0", f"alpha = {value}")
    pot.write_bytes(text.encode("latin-1"))
    out_dir = tmp_path / "out"
    args = ["--command", command, "--potential", str(pot), "--N", "8"]
    if command == "critical-strain":
        args += ["--K", "2", "--F-range", "1.0:1.15"]
    assert run_cli(*args, "--out-dir", str(out_dir)) == 2
    assert f"{pot}: {message}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command,extra",
    [
        ("converge", ["--F", "0.5", "--K", "4"]),
        ("consistency", ["--F", "0.5", "--K", "4"]),
        ("spectrum", ["--F", "0.5"]),
        ("critical-strain", ["--F-range", "0.5:1.0", "--K", "4"]),
    ],
)
def test_potential_overflowing_at_the_uniform_state_exits_3(tmp_path, capsys, command, extra):
    # exp(-2 alpha (F - 1)) overflows at F = 0.5 for alpha = 800
    pot = tmp_path / "steep.pot"
    pot.write_text(open(POT).read().replace("alpha = 4.0", "alpha = 800.0"))
    out_dir = tmp_path / "out"
    args = ["--command", command, "--potential", str(pot), "--N", "16,32", *extra]
    assert run_cli(*args, "--out-dir", str(out_dir)) == 3
    err = capsys.readouterr().err
    assert "potential 'default-eam'" in err and "F=0.5" in err and str(pot) in err
    assert not out_dir.exists()


def _steep_potential(tmp_path):
    # exp(-2 alpha (F - 1)) overflows at F = 0.5 for alpha = 800
    pot = tmp_path / "steep.pot"
    pot.write_text(Path(POT).read_text().replace("alpha = 4.0", "alpha = 800.0"))
    return str(pot)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command,extra",
    [("spectrum", ["--F", "0.5"]), ("critical-strain", ["--F-range", "0.5:1.0", "--K", "4"])],
)
def test_overflow_exits_3_without_a_warning(tmp_path, capsys, command, extra):
    pot = _steep_potential(tmp_path)
    args = ["--command", command, "--potential", pot, "--N", "16", *extra]
    assert run_cli(*args, "--out-dir", str(tmp_path / "out")) == 3
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_validate_fails_on_non_finite_forces(tmp_path, capsys):
    pot = _steep_potential(tmp_path)
    args = ["--command", "validate", "--potential", pot, "--F", "0.5", "--N", "16", "--K", "4"]
    assert run_cli(*args, "--out-dir", str(tmp_path / "out")) == 1
    out = capsys.readouterr().out
    assert "FAIL ghost-force: max|g|/scale nan" in out
    assert "FAIL gradient-vs-energy: max rel deviation nan" in out


def test_a_failed_command_writes_no_file(tmp_path, capsys):
    # the spectrum at F = 1.0 completes before F = 0.5 overflows; neither is written
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    args = ["--command", "spectrum", "--potential", _steep_potential(tmp_path), "--F", "1.0,0.5", "--N", "8"]
    assert run_cli(*args, "--out-dir", str(out_dir)) == 3
    assert "F=0.5" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize(
    "message,shown",
    [("Unable to allocate 1.46 TiB for an array", "Unable to allocate 1.46 TiB for an array"), ("", "out of memory")],
    ids=["numpy-message", "no-message"],
)
def test_out_of_memory_exits_3_without_a_traceback(tmp_path, capsys, monkeypatch, message, shown):
    # a runner that raises stands in for a huge allocation, so nothing large is allocated
    def exhausted(cfg, p):
        raise MemoryError(message)

    monkeypatch.setitem(cli.RUNNERS, "spectrum", exhausted)
    out_dir = tmp_path / "out"
    assert run_cli("--command", "spectrum", "--potential", POT, "--N", "16", "--out-dir", str(out_dir)) == 3
    # one line on stderr, no traceback
    assert capsys.readouterr().err == f"numerical failure in 'spectrum': {shown}\n"
    assert not out_dir.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command,pot", [("remark44", POT), ("spectrum", POT), ("validate", POT_PAIR)], ids=["remark44", "spectrum", "validate"]
)
def test_underflowing_strain_exits_3_and_writes_no_file(tmp_path, capsys, command, pot):
    # at F = 1e300 every derivative underflows to 0: every table would be 0
    # and every validation check would pass on zeros
    out_dir = tmp_path / "out"
    args = ["--command", command, "--potential", pot, "--F", "1e300", "--N", "16,32"]
    assert run_cli(*args, "--out-dir", str(out_dir)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "that are all 0 at F=1e+300" in captured.err
    assert not out_dir.exists()
