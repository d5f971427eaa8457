"""Command-line behavior: parsing, exit codes, output formats, reproducibility."""

import argparse
import hashlib
import operator
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qxcorr import SweepRow, cli, correlations, oracle
from qxcorr.cli import MAX_JOBS, MAX_POINTS, DomainError, main, parse_config

WEAK_FIELD_FLAGS = ["--Jz", "-1", "--r1", "0.5", "--r2", "1", "--B1", "-0.4", "--B2", "0.7"]
STRONG_FLAGS = ["--Jz", "1", "--r1", "3.4", "--r2", "3.2", "--B1", "-1.3", "--B2", "1.7"]
# the README's temperature sweep
README_SWEEP = [
    "--mode", "sweep", *STRONG_FLAGS, "--var", "T", "--from", "0.001", "--to", "3", "--points", "300",
]

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

_NEAR_SCALES = st.one_of(*(st.floats(min_value=0.9 * s, max_value=1.1 * s) for s in (1e-12, 1e12, 1e16)))
# the row fields: every double (subnormals, nan and infinities included), with
# extra weight on zeros, tiny values, integers, and values near 1e-12, 1e12, 1e16
ROW_FLOATS = st.one_of(
    st.floats(),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.sampled_from([0.0, -0.0]),
    st.integers(-(2**60), 2**60).map(float),
    st.builds(operator.mul, _NEAR_SCALES, st.sampled_from([1.0, -1.0])),
)
ROW_LABELS = st.sampled_from(["0", "1", "boundary"])


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

    @pytest.mark.parametrize("mode", ["sweep", "transitions"])
    def test_range_wider_than_floats_is_domain_error_naming_it(self, capsys, mode):
        # stop - start overflows; the grid would hand the kernel a nan the user never typed
        code, out, err = run_cli(
            capsys, "--mode", mode, *WEAK_FIELD_FLAGS, "--T", "1", "--var", "B1", "--from=-1e308", "--to=1e308",
        )
        assert (code, out) == (4, "")
        assert "sweep range [-1e+308, 1e+308] is wider than the float range" in err
        assert "nan" not in err

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

    def test_eval_bytes_pinned(self, capsys):
        # digest of the per-field formatting that preceded the shared row format
        code, out, _ = run_cli(capsys, "--mode", "eval", *STRONG_FLAGS, "--T", "0.8", "--format", "tsv")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "5a401a4dcbd9efcf399143b430ef8a43b06395bee15b92a065a5c8af3a33b8c1"
        )

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

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("csv", "c00c52ab2d39b6c5a11114dc57dad9048ee317795fe8b3e5a632a3c2782c4d89"),
            ("tsv", "7022637c3d02b10f4010a9bc8c25e2f39982397d13a5aa95284129ba6b09e500"),
        ],
    )
    def test_readme_sweep_bytes_pinned(self, capsys, tmp_path, fmt, digest):
        # digests of the output of the scalar per-point sweep that preceded the array kernel
        code, out, _ = run_cli(capsys, *README_SWEEP, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
        out_file = tmp_path / f"scan.{fmt}"
        assert run_cli(capsys, *README_SWEEP, "--format", fmt, "--out", str(out_file))[:2] == (0, "")
        assert out_file.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ["--var", "T", "--from", "0.001", "--to", "3", "--points", "10000"],
                "6f68af6afab06649654c5e45d66c8111701cb1d01bd79cae0882e1a7accead07",
            ),
            (
                ["--T", "0.8", "--var", "B1", "--from", "-3", "--to", "3", "--points", "2049", "--format", "tsv"],
                "60c5c1f9a54162bb4f345c16fb739858a48b3a2d2da653166c165c043b7a885e",
            ),
            (
                ["--T", "0.8", "--var", "r1", "--from", "0", "--to", "4", "--points", "1025"],
                "869601eb8c78b99759a1b1d3369565298b3b6d8fda22a00971f5ff26b4553a81",
            ),
        ],
    )
    def test_sweep_bytes_pinned_across_format_blocks(self, capsys, tmp_path, args, digest):
        # digests of the per-line formatting that preceded block formatting; each
        # sweep crosses at least one boundary of the 1,024-row format blocks
        code, out, _ = run_cli(capsys, "--mode", "sweep", *STRONG_FLAGS, *args)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
        out_file = tmp_path / "scan.out"
        assert run_cli(capsys, "--mode", "sweep", *STRONG_FLAGS, *args, "--out", str(out_file))[:2] == (0, "")
        assert out_file.read_bytes() == out.encode("utf-8")

    @settings(max_examples=500, deadline=None)
    @given(
        numbers=st.lists(ROW_FLOATS, min_size=7, max_size=7),
        labels=st.lists(ROW_LABELS, min_size=2, max_size=2),
    )
    def test_row_format_matches_per_field_formatting(self, numbers, labels):
        row = SweepRow(*numbers[:4], labels[0], *numbers[4:], labels[1])
        for sep in (",", "\t"):
            fields = (value if isinstance(value, str) else format(value, ".12g") for value in row)
            assert cli._ROW_FORMATS[sep] % row == sep.join(fields) + "\n"

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

    def test_readme_transitions_bytes_pinned(self, capsys):
        # "LQFI 1.58215457565 6.939e-14\nLQU 1.14579133159 1.088e-13\n": the .3e
        # residual reads the scalar gap's bits at each crossing
        code, out, err = run_cli(
            capsys, "--mode", "transitions", *STRONG_FLAGS,
            "--var", "T", "--from", "0.5", "--to", "3",
        )
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "cc2d9ceeafca5770bd9bb6ee196f72faac8f8962a053486758d3d34eb48fa946"
        )

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

    @pytest.mark.parametrize("exponent", [154, 200])
    def test_overflowing_sweep_exits_4_under_warnings_as_errors(self, tmp_path, exponent):
        import subprocess
        import sys

        scaled = [
            f"--{name}={mantissa}e{exponent}"
            for name, mantissa in (("Jz", "1"), ("r1", "3.4"), ("r2", "3.2"), ("B1", "-1.3"), ("B2", "1.7"))
        ]
        out_file = tmp_path / "scan.csv"
        result = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning", "-m", "qxcorr.cli", "--mode=sweep", *scaled,
                "--var=T", f"--from=1e{exponent - 3}", f"--to=3e{exponent}", "--points=300", f"--out={out_file}",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 4, result.stderr
        assert result.stdout == ""
        assert "non-finite branch" in result.stderr
        assert not out_file.exists()

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

    def test_import_and_scalar_runs_leave_numpy_unloaded(self):
        script = f"""
import contextlib, hashlib, io, sys
from qxcorr.cli import main
loaded = ["numpy" in sys.modules]
runs = [
    ["--mode", "eval", *{WEAK_FIELD_FLAGS!r}, "--T", "1"],
    ["--mode", "eval", *{WEAK_FIELD_FLAGS!r}, "--T0"],
    ["--mode", "transitions", *{STRONG_FLAGS!r}, "--var", "T", "--from", "0.5", "--to", "3"],
    {README_SWEEP!r},
    ["--mode", "selftest"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    loaded.append("numpy" in sys.modules)
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
print(loaded)
"""
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        *runs, loaded = result.stdout.strip().splitlines()
        # eval, --T0 and transitions run on math alone; the sweep loads numpy, and
        # the bytes of the sweep and the selftest are the ones of a process that had it
        assert loaded == "[False, False, False, False, True, True]"
        assert [line.split()[0] for line in runs] == ["0"] * 5
        assert runs[3].split()[1] == "c00c52ab2d39b6c5a11114dc57dad9048ee317795fe8b3e5a632a3c2782c4d89"
        assert runs[4].split()[1] == hashlib.sha256(
            b"selftest: 100 states, max |closed - oracle| = 8.882e-16\nselftest: ok\n"
        ).hexdigest()

    def test_selftest_is_the_first_array_operation(self):
        script = """
import contextlib, io, sys
from qxcorr.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["--mode", "selftest", "--seed", "7"])
print(code, "numpy" in sys.modules, repr(out.getvalue()))
"""
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == (
            "0 True 'selftest: 100 states, max |closed - oracle| = 1.443e-15\\nselftest: ok\\n'"
        )

    def test_package_names_resolve_and_star_import_works(self):
        script = """
import sys
import qxcorr
loaded = "numpy" in sys.modules
missing = [name for name in qxcorr.__all__ if not hasattr(qxcorr, name)]
namespace = {}
exec("from qxcorr import *", namespace)
print(loaded, missing, sorted(set(qxcorr.__all__) - set(namespace)), qxcorr.jacobi_eigh is namespace["jacobi_eigh"])
"""
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False [] [] True"

    def test_benchmark_imports_load_every_traced_module(self):
        # a traced benchmark run looks up every module of its TRACED table in
        # sys.modules after importing only the qxcorr modules its workloads import
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        script = f"""
import ast, importlib, sys
tree = ast.parse(open({str(bench / "workloads.py")!r}, encoding="utf-8").read())
names = [a.name for n in tree.body if isinstance(n, ast.Import) for a in n.names]
names += [n.module for n in tree.body if isinstance(n, ast.ImportFrom) and n.module]
for name in names:
    if name.startswith("qxcorr"):
        importlib.import_module(name)
sys.path.insert(0, {str(bench)!r})
from tracing import TRACED
print(len(TRACED), [name for name in TRACED if f"qxcorr.{{name}}" not in sys.modules])
"""
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "7 []"

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
