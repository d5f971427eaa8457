"""Starts the cold processes of a benchmark run and measures each one.

Linux carries a process's peak resident set across fork and exec, so a child
of the benchmark process would report at least the benchmark's own size.  The
benchmark therefore starts this small helper before it imports numpy or
qxcorr, and asks it to run every cold process.

Protocol, one JSON object per line: the first stdin line is the environment
for all children; then each request ``{"args", "cwd", "stdout", "stderr",
"timeout"}`` is answered with ``{"wall", "code", "maxrss_kb"}`` (wall seconds
from spawn to exit; peak RSS of the child and the children it waited for) or
``{"error"}``.  The helper exits when stdin closes.
"""

import json
import os
import select
import subprocess
import sys
import time


def run(request: dict, env: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["args"], stdout=out, stderr=err, cwd=request["cwd"], env=env)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], request["timeout"])
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    if not exited:
        return {"error": f"{' '.join(request['args'])} ran longer than {request['timeout']} s"}
    return {"wall": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    env = json.loads(sys.stdin.readline())
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line), env)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
