"""Measurement and reporting for one benchmark run; see ``run.py``.

Imported only after ``run.py`` has put the checkout's ``src`` directory first
on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import metrics
import qxcorr.cli as cli
import workloads
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

COLD_TIMEOUT_S = 120
MIN_STARTS = 3
MIN_WARM_OPS = 11  # so that the tail percentile has ten samples beyond it
MIN_TRACED_OPS = 3
_REPORTED_FAILURES = 5


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qxcorr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, jobs: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "jobs": jobs,
    }


class Bench:
    """One run of one workload: its inputs, counters and measurements."""
    def __init__(self, workload: str, seed: int, seconds: float, jobs: int, workdir: Path, launcher):
        self.workload, self.seed, self.seconds, self.jobs = workload, seed, seconds, jobs
        self.workdir = workdir
        self.ops = workloads.generate(workload, seed, jobs)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._references: dict[int, bytes | str] = {}
        self._sample = np.random.default_rng([seed, 7])
        self.launcher = launcher
        self.capture = None

    # -- checks -------------------------------------------------------------

    def _record(self, reason: str | None) -> None:
        """Count one operation; ``reason`` says why it failed, None if it passed."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < _REPORTED_FAILURES:
                self.failures.append(f"{self.workload}: {reason}")

    def _same_as_reference(self, op, produced, serial) -> None:
        if op.key not in self._references:
            self._references[op.key] = serial() if op.jobs > 1 else produced
        if produced != self._references[op.key]:
            raise checks.CheckFailure(f"op {op.key}: output bytes differ from the earlier run of the same command")

    def _serial_output(self, op) -> bytes:
        """The bytes a ``--jobs 1`` run of a pooled sweep cut writes."""
        serial_dir = self.workdir / "serial"
        serial_dir.mkdir(exist_ok=True)
        argv = [a for a in op.argv if not a.startswith("--jobs=")]
        argv = [a if not a.startswith("--out=") else f"--out={serial_dir / op.out}" for a in argv]
        if cli.main(argv) != 0:
            raise RuntimeError(f"serial reference run of op {op.key} failed")
        return workloads.read_output(op, serial_dir)

    def check(self, op, code: int, stdout: str, output: bytes, crossings=None, routes=None) -> None:
        """Check one operation's output and count it.

        ``crossings`` and ``routes`` exist only for in-process operations; a
        cold process is checked on what it printed or wrote.
        """
        try:
            if op.workload == "sweep":
                if code != 0:
                    raise checks.CheckFailure(f"sweep exited {code}")
                rows = checks.parse_sweep(op, output)
                self._same_as_reference(op, output, lambda: self._serial_output(op))
                checks.check_against_oracle(op, rows, int(self._sample.integers(len(rows))))
            elif op.workload == "phase-map":
                if code != 0:
                    raise checks.CheckFailure(f"transitions exited {code}")
                if crossings is not None:
                    checks.check_transitions(op, stdout, crossings)
                self._same_as_reference(op, stdout, None)
            else:
                checks.check_selftest(code, stdout)
                if routes is not None:
                    checks.check_routes(routes)
                self._same_as_reference(op, stdout, None)
        except checks.CheckFailure as exc:
            self._record(str(exc))
        else:
            self._record(None)

    # -- processes ------------------------------------------------------------

    def spawn(self, args: list[str], stdout_path: Path) -> tuple[float, int, str, float]:
        """Run ``python args`` to completion through the launcher.

        Returns wall seconds from spawn to exit, the exit code, stderr and the
        peak resident set in MB of the process and the children it waited for.
        """
        err_path = self.workdir / "stderr.txt"
        request = {"args": [sys.executable, *args], "cwd": str(self.workdir), "stdout": str(stdout_path),
                   "stderr": str(err_path), "timeout": COLD_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        if "error" in reply:
            raise TimeoutError(reply["error"])
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        return reply["wall"], reply["code"], stderr, reply["maxrss_kb"] / 1024.0

    def setup_start(self) -> float:
        """Wall time of a fresh interpreter returning from ``import qxcorr.cli``."""
        wall, code, err, _ = self.spawn(["-c", "import qxcorr.cli"], self.workdir / "setup.out")
        self._record(None if code == 0 else f"import exited {code}: {err[-300:]}")
        return wall

    def cold(self, op) -> tuple[float, float]:
        """Wall time and peak RSS (MB) of a fresh ``python -m qxcorr.cli`` running ``op``."""
        wall, code, err, rss = self.spawn(["-m", "qxcorr.cli", *op.argv], self.workdir / "cold.out")
        if code != 0:
            self._record(f"cold op {op.key} exited {code}: {err[-300:]}")
        else:
            stdout = (self.workdir / "cold.out").read_text(encoding="utf-8", errors="replace")
            output = workloads.read_output(op, self.workdir) if op.workload == "sweep" else b""
            self.check(op, code, stdout, output)
        return wall, rss

    # -- in process -------------------------------------------------------------

    def warm(self, op, tracer=None, op_id=0):
        """Run ``op`` in this process (traced when ``tracer`` is given) and check it."""
        scope = tracer.operation(op_id) if tracer is not None else contextlib.nullcontext()
        with scope:
            result = workloads.run_in_process(op, self.workdir, self.capture)
        self.check(op, result.code, result.stdout, result.output,
                   crossings=result.crossings, routes=result.routes)
        return result


def _report(name: str, value: float, note: str = "") -> None:
    unit = metrics.UNITS.get(name, "")
    print(f"  {name:<40} {value:>14.6g} {unit:<9} {note}".rstrip())


def run_untraced(bench: Bench) -> dict:
    """End-to-end metrics of one workload, measured with tracing off.

    Set-up starts, cold processes and warm operations are interleaved so that
    each takes its share of ``--seconds`` spread over the whole run, and slow
    spells of a shared machine touch all three alike.  After a process has run,
    one untimed warm operation refills the caches before the next timed one.
    """
    shares = {"setup": 0.1, "cold": 0.25, "warm": 0.65}
    minimum = {"setup": MIN_STARTS, "cold": MIN_STARTS, "warm": MIN_WARM_OPS}
    samples = {kind: [] for kind in shares}
    spent = dict.fromkeys(shares, 0.0)
    peak_mb, items, after_process = 0.0, 0, False
    with workloads.capture_transitions() as capture:
        bench.capture = capture
        bench.setup_start()  # writes the bytecode cache
        bench.warm(bench.ops[0])
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            short = [k for k in shares if len(samples[k]) < minimum[k]]
            if elapsed >= bench.seconds and not short:
                break
            candidates = short if elapsed >= bench.seconds else list(shares)
            kind = max(candidates, key=lambda k: shares[k] * elapsed - spent[k])
            began = time.perf_counter()
            if kind == "setup":
                samples["setup"].append(bench.setup_start())
                after_process = True
            elif kind == "cold":
                wall, rss = bench.cold(bench.ops[len(samples["cold"]) % len(bench.ops)])
                samples["cold"].append(wall)
                peak_mb = max(peak_mb, rss)
                after_process = True
            else:
                if after_process:
                    bench.warm(bench.ops[0])
                    after_process = False
                op = bench.ops[(len(samples["warm"]) + 1) % len(bench.ops)]
                samples["warm"].append(bench.warm(op).seconds)
                items += op.items
            spent[kind] += time.perf_counter() - began
    setup, cold, latencies = samples["setup"], samples["cold"], samples["warm"]
    tail, pct, n = metrics.tail(latencies)
    values = {
        "setup_s": statistics.median(setup),
        "cold_wall_s": statistics.median(cold),
        "warm_call_s": statistics.median(latencies),
        "warm_call_tail_s": tail,
        "items_per_s": items / sum(latencies),
        "peak_rss_mb": peak_mb,
    }
    item_name = {"sweep": "grid points written", "phase-map": "cuts searched", "verify": "states verified"}
    notes = {
        "setup_s": f"median of {len(setup)} cold imports",
        "cold_wall_s": f"median of {len(cold)} cold CLI processes",
        "warm_call_s": f"median of {n} warm operations",
        "warm_call_tail_s": f"p{pct:.1f} of {n} warm operations, {n - round(pct * n / 100)} beyond",
        "items_per_s": item_name[bench.workload],
        "peak_rss_mb": "largest cold process",
    }
    print(f"{bench.workload}: end-to-end (tracing off)")
    for name, *_ in metrics.END_TO_END:
        _report(name, values[name], notes[name])
    frac = bench.failed / bench.attempted
    print(f"  {'fail_frac':<40} {frac:>14.6g} {'':<9} {bench.failed} of {bench.attempted} operations")
    return values


def import_chain(bench: Bench, until: float) -> dict:
    """Median cumulative import times of qxcorr and scipy.optimize (-X importtime)."""
    qx, scipy_opt = [], []
    while len(qx) < MIN_STARTS or time.perf_counter() < until:
        _, code, err, _ = bench.spawn(["-X", "importtime", "-c", "import qxcorr.cli"], bench.workdir / "setup.out")
        bench._record(None if code == 0 else f"importtime start exited {code}")
        total, optimize = 0, None
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            if name.strip() in ("qxcorr", "qxcorr.cli") and name.startswith(" qxcorr"):
                total += int(cumulative)
            if name.strip() == "scipy.optimize" and optimize is None:
                optimize = int(cumulative)
        qx.append(total / 1e6)
        scipy_opt.append((optimize or 0) / 1e6)
    return {"import.qxcorr_s": statistics.median(qx), "import.scipy_optimize_s": statistics.median(scipy_opt)}


def run_traced(bench: Bench, trace_path: Path) -> dict:
    """Per-layer metrics of all seven modules and the import chain."""
    start = time.perf_counter()
    values = import_chain(bench, start + 0.15 * bench.seconds)
    tracer = Tracer()
    records: dict[int, metrics.OpRecord] = {}
    others = [Bench(w, bench.seed, bench.seconds, bench.jobs, bench.workdir, bench.launcher)
              for w in workloads.WORKLOADS if w != bench.workload]

    def traced(b: Bench, op) -> float:
        op_id = len(records) + 1
        result = b.warm(op, tracer, op_id)
        bytes_out = len(result.output) - (1 if op.plot else 0)
        records[op_id] = metrics.OpRecord(op, len(result.crossings), bytes_out)
        return result.seconds

    plain, with_trace = [], []
    with workloads.capture_transitions() as capture:
        for b in [bench] + others:
            b.capture = capture
        bench.warm(bench.ops[0])
        i = 0
        while len(with_trace) < MIN_TRACED_OPS or time.perf_counter() < start + 0.55 * bench.seconds:
            op = bench.ops[i % len(bench.ops)]
            plain.append(bench.warm(op).seconds)
            with_trace.append(traced(bench, op))
            i += 1
        # stop at 90 %: summing and writing the spans takes the rest
        for share, b in zip((0.725, 0.9), others):
            i = 0
            while i < MIN_TRACED_OPS or time.perf_counter() < start + share * bench.seconds:
                traced(b, b.ops[i % len(b.ops)])
                i += 1
    values.update(metrics.layer_metrics(tracer.spans, records))
    overhead = statistics.median(with_trace) - statistics.median(plain)
    values["trace.overhead_s"] = overhead
    for b in others:
        bench.attempted += b.attempted
        bench.failed += b.failed
        bench.failures += b.failures
    tracer.write(trace_path)

    print(f"{bench.workload}: per layer (traced run; {len(tracer.spans)} spans in {trace_path.relative_to(ROOT)})")
    print("  process-pool workers are not traced: a --jobs sweep is one opaque analysis.sweep span")
    print(f"  the named workload ran untraced and traced in turn ({len(plain)} pairs); the other two were traced only")
    for name, *_ in metrics.PER_LAYER:
        note = ""
        if name == "trace.overhead_s":
            note = f"{100.0 * overhead / statistics.median(plain):.1f}% of untraced warm_call_s"
        _report(name, values[name], note)
    return values


def run_one(workload: str, seed: int, seconds: float, trace: int, jobs: int, launcher) -> tuple[dict, Bench]:
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = Bench(workload, seed, seconds, jobs, workdir, launcher)
    try:
        if trace:
            values = run_traced(bench, WORK / f"trace-{workload}.tsv.gz")
        else:
            values = run_untraced(bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in bench.failures:
        print(f"  FAILED {reason}")
    return values, bench


def main(workload: str, seed: int, seconds: float, trace: int, launcher) -> int:
    """Run ``workload`` (or all three), print the metrics and the JSON result.

    ``launcher`` is the running ``launcher.py`` process that starts every
    cold process.
    """
    jobs = min(2, len(os.sched_getaffinity(0)))
    env = environment(seed, jobs)
    print("env " + json.dumps(env, sort_keys=True))
    names = workloads.WORKLOADS if workload == "all" else (workload,)
    result_metrics, attempted, failed = {}, 0, 0
    for name in names:
        values, bench = run_one(name, seed, seconds, trace, jobs, launcher)
        attempted += bench.attempted
        failed += bench.failed
        wanted = metrics.PER_LAYER if trace else metrics.END_TO_END
        prefix = f"{name}." if workload == "all" else ""
        for metric, unit, *_ in wanted:
            result_metrics[prefix + metric] = {"value": values[metric], "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}
    WORK.mkdir(parents=True, exist_ok=True)
    record = dict(result, env=env, workload=workload, seconds=seconds, trace=trace)
    (WORK / f"result-{workload}-{seed}-{trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0

