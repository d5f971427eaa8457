#!/usr/bin/env python3
"""Benchmark of the qxcorr CLI and library, end to end and per layer.

    python3 perfbench/run.py --workload {sweep,phase-map,verify,all} \
        --seed N --seconds S --trace {0,1}

Run it from anywhere inside a source checkout; it imports qxcorr from the
checkout's ``src`` directory and nothing else.  With ``--trace 0`` a run
interleaves three kinds of measurement, all closed loop with one caller:

- set-up: fresh interpreters that only ``import qxcorr.cli`` (10 % of the time);
- cold: fresh ``python -m qxcorr.cli`` processes running workload commands (25 %);
- warm: the same commands through ``qxcorr.cli.main`` in this process (65 %).

With ``--trace 1`` it times the import chain with ``-X importtime``, runs the
named workload alternately untraced and traced, then traces a shorter share
of the other two workloads, so every layer is measured in one run.  Every
operation's output is checked; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "phase-map", "verify", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "qxcorr" / "cli.py").is_file():
        print(f"perfbench: no qxcorr source tree at {SRC}", file=sys.stderr)
        return 2
    # started while this process is still small: see launcher.py
    launcher = subprocess.Popen([sys.executable, str(BENCH_DIR / "launcher.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        launcher.stdin.write(json.dumps(dict(os.environ, PYTHONPATH=str(SRC))) + "\n")
        launcher.stdin.flush()
        sys.path.insert(0, str(SRC))
        import qxcorr

        if Path(qxcorr.__file__).resolve().parent != (SRC / "qxcorr").resolve():
            print(f"perfbench: imported qxcorr from {qxcorr.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        import harness

        return harness.main(args.workload, args.seed, args.seconds, args.trace, launcher)
    finally:
        launcher.stdin.close()
        try:
            launcher.wait(timeout=150)
        except subprocess.TimeoutExpired:
            launcher.kill()
            launcher.wait()

if __name__ == "__main__":
    sys.exit(main())
