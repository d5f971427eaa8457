"""Tests of the benchmark itself: seeded inputs and output checks.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from qxcorr.analysis import SweepSpec, find_transitions  # noqa: E402
from qxcorr.cli import main  # noqa: E402
from qxcorr.xmodel import XStateParams  # noqa: E402

STRONG = XStateParams(Jz=1.0, r1=3.4, r2=3.2, B1=-1.3, B2=1.7, T=1.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 5, 2) == workloads.generate(workload, 5, 2)
    assert workloads.generate(workload, 5, 2) != workloads.generate(workload, 6, 2)


def test_sweep_pool_mixes_variables_formats_jobs_and_degenerate_inputs():
    ops = workloads.generate("sweep", 3, 2)
    assert sum(op.jobs > 1 for op in ops) * 4 == len(ops)
    assert {op.spec.variable for op in ops} == {"T", "B1", "B2"}
    assert {op.out.rsplit(".", 1)[1] for op in ops} == {"csv", "tsv"}
    bases = [op.spec.base for op in ops]
    assert any(b.B1 == 0.0 and b.B2 == 0.0 for b in bases)
    assert any(b.r1 == 0.0 and b.B1 == -b.B2 for b in bases)
    assert any(b.B1 == 0.0 and b.B2 == 0.0 and abs(b.r1 + b.r2 - 2 * abs(b.Jz)) < 1e-12 for b in bases)
    assert all(op.spec.points == workloads.SWEEP_POINTS for op in ops)


def _small_sweep(tmp_path, variable="T", fmt="csv"):
    spec = SweepSpec(base=STRONG, variable=variable, start=0.001 if variable == "T" else -3.0, stop=3.0, points=60)
    out = f"small.{fmt}"
    argv = ["--mode=sweep", "--Jz=1", "--r1=3.4", "--r2=3.2", "--B1=-1.3", "--B2=1.7", f"--var={variable}",
            f"--from={spec.start!r}", f"--to={spec.stop!r}", "--points=60", f"--format={fmt}",
            f"--out={tmp_path / out}"]
    if variable != "T":
        argv.append("--T=1.0")
    assert main(argv) == 0
    op = workloads.Op("sweep", 0, tuple(argv), 60, out=out, spec=spec)
    return op, workloads.read_output(op, tmp_path)


def test_sweep_check_accepts_program_output(tmp_path):
    op, data = _small_sweep(tmp_path)
    rows = checks.parse_sweep(op, data)
    for index in range(len(rows)):
        checks.check_against_oracle(op, rows, index)


def _replace_field(data: bytes, row: int, column: int, new: str, sep=",") -> bytes:
    lines = data.decode().split("\n")
    fields = lines[row + 1].split(sep)
    fields[column] = new
    lines[row + 1] = sep.join(fields)
    return "\n".join(lines).encode()


def test_sweep_check_rejects_flipped_branch_label(tmp_path):
    op, data = _small_sweep(tmp_path)
    rows = checks.parse_sweep(op, data)
    row = next(i for i, r in enumerate(rows) if r[4] in ("0", "1"))
    flipped = _replace_field(data, row, 4, "1" if rows[row][4] == "0" else "0")
    with pytest.raises(checks.CheckFailure, match="label"):
        checks.parse_sweep(op, flipped)


def test_sweep_check_rejects_nan(tmp_path):
    op, data = _small_sweep(tmp_path)
    with pytest.raises(checks.CheckFailure, match="not finite"):
        checks.parse_sweep(op, _replace_field(data, 7, 6, "nan"))


@pytest.mark.parametrize("cut", [1, 40, 400])
def test_sweep_check_rejects_truncated_csv(tmp_path, cut):
    op, data = _small_sweep(tmp_path)
    with pytest.raises(checks.CheckFailure, match="truncated|fields"):
        checks.parse_sweep(op, data[:-cut])


def test_sweep_check_rejects_rows_that_disagree_with_the_oracle(tmp_path):
    op, data = _small_sweep(tmp_path)
    rows = checks.parse_sweep(op, data)
    rows[30][3] = repr(float(rows[30][3]) + 1e-8)
    with pytest.raises(checks.CheckFailure, match="oracle"):
        checks.check_against_oracle(op, rows, 30)


def _transitions(points=100):
    spec = SweepSpec(base=STRONG, variable="T", start=0.5, stop=3.0, points=points)
    op = workloads.Op("phase-map", 0, (), 1, spec=spec)
    found = find_transitions(spec)
    stdout = "".join(
        f"{m} {tp.location:.12g} {tp.residual:.3e}\n" for m in ("LQFI", "LQU") for tp in found if tp.measure == m
    )
    return op, found, stdout


def test_transition_check_accepts_program_output():
    op, found, stdout = _transitions()
    assert len(found) == 2
    checks.check_transitions(op, stdout, found)


def test_transition_check_rejects_too_wide_bracket():
    op, found, stdout = _transitions()
    a, b = found[0].bracket
    wide = [dataclasses.replace(found[0], bracket=(a - 1e-9, b))] + found[1:]
    with pytest.raises(checks.CheckFailure, match="wider"):
        checks.check_transitions(op, stdout, wide)


def test_transition_check_rejects_bracket_without_sign_change():
    op, found, stdout = _transitions()
    a = found[0].location + 1e-3
    moved = [dataclasses.replace(found[0], location=a, bracket=(a, a + 1e-13))] + found[1:]
    stdout = stdout.replace(f"{found[0].location:.12g}", f"{a:.12g}")
    with pytest.raises(checks.CheckFailure, match="sign"):
        checks.check_transitions(op, stdout, moved)


def test_transition_check_rejects_nan_location():
    op, found, stdout = _transitions()
    with pytest.raises(checks.CheckFailure):
        checks.check_transitions(op, stdout.replace(f"{found[0].location:.12g}", "nan"), found)


def test_selftest_and_route_checks_reject_bad_values():
    checks.check_selftest(0, "selftest: 100 states, max |closed - oracle| = 3.1e-16\nselftest: ok\n")
    with pytest.raises(checks.CheckFailure):
        checks.check_selftest(0, "selftest: 100 states, max |closed - oracle| = nan\nselftest: ok\n")
    with pytest.raises(checks.CheckFailure):
        checks.check_selftest(6, "selftest: 100 states, max |closed - oracle| = 3.1e-16\nselftest: ok\n")
    with pytest.raises(checks.CheckFailure):
        checks.check_routes([("m_raw", float("nan"), 0.5, None)])
    with pytest.raises(checks.CheckFailure):
        checks.check_routes([("thermal_F0", 0.5, 0.5 + 2e-9, STRONG)])


def test_verify_routes_pass_on_one_generated_operation(tmp_path):
    op = workloads.generate("verify", 9, 1)[0]
    with workloads.capture_transitions() as capture:
        result = workloads.run_in_process(op, tmp_path, capture)
    checks.check_selftest(result.code, result.stdout)
    checks.check_routes(result.routes)
    assert {r[0].split("_")[0] for r in result.routes} >= {"m", "w", "minimize", "thermal", "series", "zero"}


def test_tail_has_ten_samples_beyond_it():
    value, percentile, n = metrics.tail([float(i) for i in range(100)])
    assert (value, n) == (89.0, 100) and percentile == pytest.approx(90.0)


def test_benchmark_json_matches_the_registry():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [m[:3] for m in metrics.PER_LAYER]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
