"""Config parsing, command runs, CSV outputs, and determinism."""

from importlib import resources
from pathlib import Path

import pytest

from eamchain import cli
from eamchain.cli import ExperimentConfig, load_config, main

POT = str(resources.files("eamchain").joinpath("data", "default_eam.pot"))
POT_REVERSAL = str(resources.files("eamchain").joinpath("data", "reversal_eam.pot"))


def run_cli(*args):
    return main(list(args))


def test_load_config_and_overrides(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        f"command = spectrum\npotential = {POT}\nF = 1.0,1.05\nN_list = 8,16\n"
        f"out_dir = {tmp_path/'out'}\nseed = 7\n"
    )
    cfg = load_config(cfg_file)
    assert cfg.command == "spectrum"
    assert cfg.F_values == (1.0, 1.05)
    assert cfg.N_values == (8, 16)
    assert cfg.seed == 7
    cfg.validate()


def test_config_errors_carry_line_numbers(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("command = spectrum\npotential = x.pot\nbogus = 1\n")
    assert run_cli("--config", str(cfg_file)) == 2
    cfg_file.write_text("command = spectrum\nN = not-a-number\n")
    assert run_cli("--config", str(cfg_file)) == 2


# (command, config key, malformed value); the flag is --KEY with '-' for '_'
MALFORMED = [
    ("critical-strain", "F_range", "1.0:abc"),
    ("critical-strain", "F_range", "1.2:1.0"),
    ("converge", "K_rule", "power:x"),
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


def test_config_validation_rules(tmp_path):
    cfg = ExperimentConfig(command="spectrum", potential=POT, N_values=(16, 8))
    with pytest.raises(Exception, match="increasing"):
        cfg.validate()
    cfg = ExperimentConfig(command="converge", potential=POT, N_values=(16,), K=12)
    with pytest.raises(Exception, match="K"):
        cfg.validate()
    cfg = ExperimentConfig(command="nonsense", potential=POT)
    with pytest.raises(Exception, match="command"):
        cfg.validate()
    assert run_cli("--command", "spectrum", "--potential", "missing.pot") == 2


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
    header = lines[0].split(",")
    assert header[:8] == [
        "N", "K", "epsilon", "error_H1", "negnorm", "D3_C", "D2_I_max", "runtime_ms",
    ]
    assert "fit_slope_all" in header and "fit_slope_tail" in header
    assert len(lines) == 4
    assert (tmp_path / "converge_plot.gp").exists()
    # byte-identical rerun apart from the wall-clock diagnostic column
    run_cli(
        "--command", "converge", "--potential", POT,
        "--F", "1.0", "--N", "16,32,64", "--K", "4", "--out-dir", str(tmp_path / "b"),
    )
    lines_b = (tmp_path / "b" / "converge.csv").read_text().strip().splitlines()
    drop = header.index("runtime_ms")
    for row_a, row_b in zip(lines, lines_b):
        cells_a = [c for i, c in enumerate(row_a.split(",")) if i != drop]
        cells_b = [c for i, c in enumerate(row_b.split(",")) if i != drop]
        assert cells_a == cells_b


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
    args = ["--command", command, "--potential", str(pot), "--N", "8", "--K", "2"]
    assert run_cli(*args, "--F-range", "1.0:1.15", "--out-dir", str(out_dir)) == 2
    assert f"{pot}: {message}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command,extra",
    [
        ("converge", ["--F", "0.5"]),
        ("consistency", ["--F", "0.5"]),
        ("spectrum", ["--F", "0.5"]),
        ("critical-strain", ["--F-range", "0.5:1.0"]),
    ],
)
def test_potential_overflowing_at_the_uniform_state_exits_3(tmp_path, capsys, command, extra):
    # exp(-2 alpha (F - 1)) overflows at F = 0.5 for alpha = 800
    pot = tmp_path / "steep.pot"
    pot.write_text(open(POT).read().replace("alpha = 4.0", "alpha = 800.0"))
    out_dir = tmp_path / "out"
    args = ["--command", command, "--potential", str(pot), "--N", "16,32", "--K", "4", *extra]
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
    [("spectrum", ["--F", "0.5"]), ("critical-strain", ["--F-range", "0.5:1.0"])],
)
def test_overflow_exits_3_without_a_warning(tmp_path, capsys, command, extra):
    pot = _steep_potential(tmp_path)
    args = ["--command", command, "--potential", pot, "--N", "16", "--K", "4", *extra]
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
def test_remark44_with_vanishing_gaps_fits_nan_without_a_warning(tmp_path):
    # at F = 1e300 every Rayleigh quotient and the target are 0, so every gap is 0
    args = ["--command", "remark44", "--potential", POT, "--F", "1e300", "--N", "16,32"]
    assert run_cli(*args, "--out-dir", str(tmp_path)) == 0
    assert (tmp_path / "remark44_fit.csv").read_text() == "decay_exponent,target\nnan,0.000000000000000e+00\n"
