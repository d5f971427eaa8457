"""Command-line behavior: parsing, exit codes, output formats, reproducibility."""

import argparse
import sys

import numpy as np
import pytest

from qxcorr import cli, correlations, oracle
from qxcorr.cli import MAX_JOBS, MAX_POINTS, DomainError, main, parse_config

WEAK_FIELD_FLAGS = ["--Jz", "-1", "--r1", "0.5", "--r2", "1", "--B1", "-0.4", "--B2", "0.7"]
STRONG_FLAGS = ["--Jz", "1", "--r1", "3.4", "--r2", "3.2", "--B1", "-1.3", "--B2", "1.7"]

# valid runs whose values all differ from the defaults, so that a value lost on
# the way from the config file changes the RunConfig or fails the run
_WEAK_POINT = {"mode": "eval", "Jz": "-1", "r1": "0.5", "r2": "1", "B1": "-0.4", "B2": "0.7"}
SAME_VALUE_RUNS = {
    "eval": {**_WEAK_POINT, "T": "1"},
    "zero-T": {**_WEAK_POINT, "T0": "true"},
    "full": {
        "mode": "eval", "Jx": "0.75", "Jy": "0.25", "Jz": "-1", "Dz": "0.1", "Gz": "-0.2",
        "B1": "-0.4", "B2": "0.7", "T": "1",
    },
    "sweep": {
        "mode": "sweep", "Jz": "1", "r1": "3.4", "r2": "3.2", "B1": "-1.3", "B2": "1.7", "T": "0.8",
        "var": "B1", "from": "-1", "to": "1", "points": "7", "out": "scan.csv", "format": "tsv",
        "plot-script": "true", "jobs": "2", "seed": "7",
    },
}


def as_flag(key, value):
    # --key=value hands argparse every value as the argument of its flag, whatever its sign
    return f"--{key}" if value == "true" else f"--{key}={value}"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_eval_reduced_parameters(self, capsys):
        code, out, _ = run_cli(capsys, "--mode", "eval", *WEAK_FIELD_FLAGS, "--T", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == "T,F0,F1,F,F_branch,U0,U1,U,U_branch"

    def test_missing_mode_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "--Jz", "1", "--T", "1")
        assert code == 2
        assert "mode" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            import qxcorr.cli as cli

            cli._build_parser().parse_args(["--frobnicate", "1"])
        assert excinfo.value.code == 2

    def test_conflicting_parameter_sets(self, capsys):
        code, _, err = run_cli(capsys, "--mode", "eval", "--r1", "0.5", "--Jx", "1", "--T", "1")
        assert code == 3
        assert "conflicting" in err

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mode = eval\nwibble = 3\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "--config", str(cfg))
        assert code == 3
        assert "unknown key" in err

    def test_malformed_number_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mode = eval\nT = one\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "--config", str(cfg))
        assert code == 3
        assert "malformed" in err

    def test_config_format_outside_the_flag_choices(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mode = eval\nJz = 1\nr1 = 1\nr2 = 1\nT = 1\nformat = xml\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "--config", str(cfg))
        assert code == 3
        assert out == ""
        assert "format must be one of csv, tsv" in err

    def test_config_var_outside_the_flag_choices(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mode = sweep\nJz = 1\nr1 = 1\nr2 = 1\nvar = Q\nfrom = 0\nto = 1\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "--config", str(cfg))
        assert code == 3
        assert "var must be one of T, B1, B2, r1, r2, Jz" in err

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "point.cfg"
        cfg.write_text(
            "mode = eval\nJz = -1\nr1 = 0.5\nr2 = 1\nB1 = -0.4\nB2 = 0.7\nT = 1  # overridden\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "--config", str(cfg), "--T", "2")
        assert code == 0
        assert out.strip().splitlines()[1].startswith("2,")

    def test_temperature_below_floor_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "--mode", "eval", *WEAK_FIELD_FLAGS, "--T", "1e-9")
        assert code == 4
        assert "floor" in err

    def test_bad_sweep_range_is_domain_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "--mode", "sweep", *WEAK_FIELD_FLAGS, "--T", "1",
            "--var", "B1", "--from", "2", "--to", "1",
        )
        assert code == 4

    def test_missing_temperature_for_eval(self, capsys):
        code, _, err = run_cli(capsys, "--mode", "eval", *WEAK_FIELD_FLAGS)
        assert code == 3
        assert "--T" in err

    def test_missing_temperature_for_field_sweep(self, capsys):
        code, _, err = run_cli(
            capsys, "--mode", "sweep", *WEAK_FIELD_FLAGS,
            "--var", "B1", "--from", "-1", "--to", "1",
        )
        assert code == 3
        assert "fixed --T" in err

    @pytest.mark.parametrize("flag, value", [("--points", MAX_POINTS + 1), ("--jobs", MAX_JOBS + 1)])
    def test_points_and_jobs_above_their_caps_are_domain_errors(self, flag, value):
        sweep = ["--mode", "sweep", *WEAK_FIELD_FLAGS, "--T", "1", "--var", "B1", "--from", "-1", "--to", "1"]
        with pytest.raises(DomainError, match=flag):
            parse_config([*sweep, flag, str(value)])

    def test_points_and_jobs_at_their_caps_are_accepted(self):
        config = parse_config([
            "--mode", "transitions", *WEAK_FIELD_FLAGS, "--var", "T", "--from", "0.5", "--to", "3",
            "--points", str(MAX_POINTS), "--jobs", str(MAX_JOBS),
        ])
        assert config.spec.points == MAX_POINTS and config.jobs == MAX_JOBS

    @pytest.mark.parametrize(
        "run, key", [(run, key) for run, values in SAME_VALUE_RUNS.items() for key in values]
    )
    def test_flag_and_config_line_give_equal_configs(self, tmp_path, run, key):
        values = SAME_VALUE_RUNS[run]
        others = [as_flag(k, v) for k, v in values.items() if k != key]
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{key} = {values[key]}\n", encoding="utf-8")
        assert parse_config([*others, as_flag(key, values[key])]) == parse_config([*others, "--config", str(cfg)])

    def test_same_value_runs_cover_every_config_key(self):
        covered = {key for values in SAME_VALUE_RUNS.values() for key in values}
        assert covered == set(cli._OPTIONS) - {"config"}

    @pytest.mark.parametrize(
        "coupling", [["--Jx", "nan"], ["--Gz", "inf"], "Jx = nan"], ids=["flag Jx", "flag Gz", "config Jx"]
    )
    def test_non_finite_coupling_is_domain_error_with_empty_stdout(self, capsys, tmp_path, coupling):
        if isinstance(coupling, str):
            cfg = tmp_path / "coupling.cfg"
            cfg.write_text(f"{coupling}\n", encoding="utf-8")
            coupling = ["--config", str(cfg)]
        code, out, err = run_cli(capsys, "--mode", "eval", "--Jz", "1", "--T", "1", *coupling)
        assert (code, out) == (4, "")
        assert "must be a finite real number" in err

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        assert run_cli(capsys, "--mode", "eval", *WEAK_FIELD_FLAGS, "--T", "1")[0] == 0  # builds it, if no test has
        built = []

        class CountingParser(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(argparse, "ArgumentParser", CountingParser)
        for _ in range(2):
            code, _, _ = run_cli(capsys, "--mode", "eval", *WEAK_FIELD_FLAGS, "--T", "1")
            assert code == 0
        assert built == []

    def test_zero_t_flag_outside_eval(self, capsys):
        code, _, err = run_cli(
            capsys, "--mode", "sweep", *WEAK_FIELD_FLAGS, "--T0",
            "--var", "T", "--from", "0.1", "--to", "1",
        )
        assert code == 3
        assert "T0" in err


class TestEval:
    def test_low_temperature_reference_value(self, capsys):
        code, out, _ = run_cli(capsys, "--mode", "eval", *WEAK_FIELD_FLAGS, "--T", "1e-3")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(0.735294, abs=1e-4)  # F column
        assert float(row[7]) == pytest.approx(0.735294, abs=1e-4)  # U column
        assert row[4] == "0" and row[8] == "0"

    def test_full_hamiltonian_matches_reduced(self, capsys):
        _, reduced, _ = run_cli(capsys, "--mode", "eval", *WEAK_FIELD_FLAGS, "--T", "1")
        _, full, _ = run_cli(
            capsys, "--mode", "eval",
            "--Jx", "0.75", "--Jy", "0.25", "--Jz", "-1",
            "--B1", "-0.4", "--B2", "0.7", "--T", "1",
        )
        assert full == reduced

    def test_zero_temperature_limits(self, capsys):
        code, out, _ = run_cli(capsys, "--mode", "eval", *WEAK_FIELD_FLAGS, "--T0")
        assert code == 0
        lines = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert float(lines["F0"]) == pytest.approx(0.735294, abs=1e-6)
        assert float(lines["U0"]) == pytest.approx(0.735294, abs=1e-6)
        assert float(lines["U1"]) == 1.0

    def test_zero_temperature_indeterminate(self, capsys):
        code, out, _ = run_cli(
            capsys, "--mode", "eval", "--Jz", "-1", "--r1", "0", "--r2", "2", "--T0"
        )
        assert code == 0
        assert "indeterminate" in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("exponent", [154, 200])
    def test_non_finite_branch_is_domain_error_with_empty_stdout(self, capsys, exponent):
        # the strong-exchange point scaled by 10**exponent overflows branch 1
        scaled = [
            f"--{name}={mantissa}e{exponent}"
            for name, mantissa in (("Jz", "1"), ("r1", "3.4"), ("r2", "3.2"), ("B1", "-1.3"), ("B2", "1.7"))
        ]
        code, out, err = run_cli(capsys, "--mode", "eval", *scaled, f"--T=8e{exponent - 1}")
        assert code == 4
        assert out == ""
        assert "non-finite" in err


class TestSweepOutput:
    def test_csv_columns_and_formatting(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            capsys, "--mode", "sweep", *STRONG_FLAGS,
            "--var", "T", "--from", "0.5", "--to", "3", "--points", "20",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "T,F0,F1,F,F_branch,U0,U1,U,U_branch"
        assert len(lines) == 21
        first = lines[1].split(",")
        assert first[0] == "0.5"
        assert first[4] in ("0", "1", "boundary")

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        args = [
            "--mode", "sweep", *STRONG_FLAGS,
            "--var", "T", "--from", "0.5", "--to", "3", "--points", "50",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run_cli(capsys, *args, "--out", str(first))
        run_cli(capsys, *args, "--out", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_stdout_when_no_output_file(self, capsys):
        code, out, _ = run_cli(
            capsys, "--mode", "sweep", *STRONG_FLAGS,
            "--var", "T", "--from", "0.5", "--to", "3", "--points", "5",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("T,")

    def test_tsv_format(self, capsys, tmp_path):
        out_file = tmp_path / "scan.tsv"
        run_cli(
            capsys, "--mode", "sweep", *STRONG_FLAGS,
            "--var", "T", "--from", "0.5", "--to", "3", "--points", "5",
            "--format", "tsv", "--out", str(out_file),
        )
        assert out_file.read_text(encoding="utf-8").splitlines()[0].split("\t")[0] == "T"

    def test_plot_script_references_only_the_csv(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            capsys, "--mode", "sweep", *STRONG_FLAGS,
            "--var", "T", "--from", "0.5", "--to", "3", "--points", "5",
            "--out", str(out_file), "--plot-script",
        )
        assert code == 0
        script = (tmp_path / "scan.csv.gp").read_text(encoding="utf-8")
        assert "scan.csv" in script
        assert "system" not in script  # never invokes external programs

    def test_plot_script_requires_out(self, capsys):
        code, _, _ = run_cli(
            capsys, "--mode", "sweep", *STRONG_FLAGS,
            "--var", "T", "--from", "0.5", "--to", "3", "--plot-script",
        )
        assert code == 3

    def test_parallel_output_matches_serial(self, capsys, tmp_path):
        args = [
            "--mode", "sweep", *STRONG_FLAGS,
            "--var", "T", "--from", "0.5", "--to", "3", "--points", "30",
        ]
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        run_cli(capsys, *args, "--out", str(serial))
        run_cli(capsys, *args, "--out", str(parallel), "--jobs", "2")
        assert serial.read_bytes() == parallel.read_bytes()

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "--mode", "sweep", *STRONG_FLAGS,
            "--var", "T", "--from", "0.5", "--to", "3", "--points", "5",
            "--out", str(tmp_path / "missing" / "scan.csv"),
        )
        assert code == 5


class TestTransitionsOutput:
    def test_strong_exchange_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "--mode", "transitions", *STRONG_FLAGS,
            "--var", "T", "--from", "0.5", "--to", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        measure0, loc0, _res0 = lines[0].split()
        measure1, loc1, _res1 = lines[1].split()
        assert measure0 == "LQFI" and float(loc0) == pytest.approx(1.5821, abs=5e-4)
        assert measure1 == "LQU" and float(loc1) == pytest.approx(1.1458, abs=5e-4)

    def test_no_transitions_message(self, capsys):
        code, out, _ = run_cli(
            capsys, "--mode", "transitions", *WEAK_FIELD_FLAGS,
            "--var", "T", "--from", "0.5", "--to", "3",
        )
        assert code == 0
        assert "no transitions" in out


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "--mode", "selftest")
        assert code == 0
        assert "ok" in out
        deviation = float(out.splitlines()[0].split("=")[-1])
        assert deviation <= 1e-9

    def test_selftest_reproducible(self, capsys):
        _, first, _ = run_cli(capsys, "--mode", "selftest")
        _, second, _ = run_cli(capsys, "--mode", "selftest")
        assert first == second

    @pytest.mark.parametrize("seed, deviation", [("20240817", "8.882e-16"), ("7", "1.443e-15")])
    def test_selftest_output_pinned(self, capsys, seed, deviation):
        code, out, err = run_cli(capsys, "--mode", "selftest", "--seed", seed)
        assert (code, err) == (0, "")
        assert out == f"selftest: 100 states, max |closed - oracle| = {deviation}\nselftest: ok\n"

    def test_selftest_makes_one_oracle_call_per_moment_matrix(self, capsys, monkeypatch):
        # each function is replaced wherever a qxcorr module binds it, as a
        # tracer would; the recorded value is the shape of the first argument
        calls = {}
        modules = [m for name, m in sys.modules.items() if name == "qxcorr" or name.startswith("qxcorr.")]
        for home, name in [
            (oracle, "jacobi_eigh"), (oracle, "validate_density_matrix"), (oracle, "oracle_m_matrix"),
            (oracle, "oracle_w_matrix"), (oracle, "lambda_max_closed"), (correlations, "lqfi_x"),
            (correlations, "lqu_x"),
        ]:
            original = getattr(home, name)
            calls[name] = []

            def counting(*args, _original=original, _shapes=calls[name], **kwargs):
                _shapes.append(np.shape(args[0]))
                return _original(*args, **kwargs)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        code, _, _ = run_cli(capsys, "--mode", "selftest")
        assert code == 0
        assert calls["jacobi_eigh"] == [(100, 4, 4)] * 2
        assert calls["validate_density_matrix"] == [(100, 4, 4)] * 2
        assert calls["oracle_m_matrix"] == calls["oracle_w_matrix"] == [(100, 4, 4)]
        assert calls["lambda_max_closed"] == [(100, 3, 3)] * 2
        assert len(calls["lqfi_x"]) == len(calls["lqu_x"]) == 100


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "qxcorr.cli", "--mode", "eval", *WEAK_FIELD_FLAGS, "--T", "1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("T,F0,F1,F,F_branch")

    def test_transitions_with_worker_pool(self, tmp_path):
        import subprocess
        import sys

        result = subprocess.run(
            [
                sys.executable, "-m", "qxcorr.cli", "--mode", "transitions", *STRONG_FLAGS,
                "--var", "T", "--from", "0.5", "--to", "3", "--points", "200", "--jobs", "2",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0].startswith("LQFI 1.582")

    def test_import_leaves_scipy_unloaded(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-c", "import sys, qxcorr.cli; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "False"

    def test_runs_leave_pool_machinery_unloaded(self):
        import subprocess
        import sys

        script = f"""
import contextlib, io, sys
from qxcorr.cli import main
cut = [*{STRONG_FLAGS!r}, "--var", "T", "--from", "0.5", "--to", "3", "--jobs", "2"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["--mode", "sweep", *cut, "--points", "30"]), main(["--mode", "transitions", *cut])]
print(codes, sorted(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules))
"""
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[0, 0] []"

    def test_runs_leave_scipy_unloaded(self):
        import subprocess
        import sys

        script = f"""
import contextlib, io, sys
import numpy as np
from qxcorr import oracle
from qxcorr.cli import main
runs = [
    ["--mode", "eval", *{WEAK_FIELD_FLAGS!r}, "--T", "1"],
    ["--mode", "sweep", *{STRONG_FLAGS!r}, "--var", "T", "--from", "0.5", "--to", "3", "--points", "20"],
    ["--mode", "selftest"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
rho = oracle.random_x_state(np.random.default_rng(1), dephased=False).as_matrix()
for which in ("LQFI", "LQU"):
    oracle.minimize_over_observables(rho, which)
print(codes, "scipy" in sys.modules)
"""
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[0, 0, 0] False"
