"""Seeded workload generators and the in-process operations the benchmark times.

Every workload is a pool of operations drawn from the workload seed.  The
program only ever sees the generated CLI argv (and, for ``verify``, the states
rebuilt from the selftest seed), so equal seeds give equal inputs.  Shares of
operation kinds (swept variable, format, ``--jobs``, degenerate inputs) are
fixed by position in the pool; the seed draws only the numbers.  That keeps the
cost mix, and so the timings, comparable from one seed to the next.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import qxcorr.analysis as analysis
import qxcorr.cli as cli
import qxcorr.correlations as correlations
import qxcorr.limits as limits
import qxcorr.oracle as oracle
from qxcorr.xmodel import XStateParams

WORKLOADS = ("sweep", "phase-map", "verify")

SWEEP_POINTS = 10_000
COARSE_POINTS = 100
SELFTEST_STATES = cli.SELFTEST_STATES
VERIFY_THERMAL_POINTS = 8
VERIFY_MINIMIZED_STATES = 2

# Parameter scale of the README examples: |Jz|, r1, r2 up to 4, |B| up to 3.
_JZ, _R, _B = 4.0, 4.0, 3.0
T_MIN = 1e-3

# (swept variable, base kind, format, plot script, uses --jobs); one cut in four
# reaches the process pool, three in eight are degenerate.
_SWEEP_PLAN = (
    ("T", "generic", "csv", True, False),
    ("T", "generic", "tsv", False, True),
    ("T", "zero_field", "csv", False, False),
    ("B1", "generic", "csv", False, False),
    ("T", "r1_zero", "tsv", True, False),
    ("T", "generic", "csv", False, True),
    ("T", "boundary", "tsv", False, False),
    ("B2", "generic", "csv", True, False),
)

# (swept variable, base kind, grid points or None for the CLI default of 1000)
_PHASE_PLAN = (
    ("T", "generic", COARSE_POINTS),
    ("B1", "generic", COARSE_POINTS),
    ("T", "generic", COARSE_POINTS),
    ("B1", "generic", COARSE_POINTS),
    ("T", "degenerate", COARSE_POINTS),
    ("T", "generic", None),
)
_PHASE_CYCLES = 10
_VERIFY_OPS = 12
_DEGENERATE_KINDS = ("zero_field", "r1_zero", "boundary")
_VERIFY_KINDS = ("generic",) * 5 + _DEGENERATE_KINDS


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a qxcorr command line plus what it should do.

    ``key`` names the command: operations with the same key must print the same
    bytes.  ``out`` is the sweep output file name, relative to the work
    directory.  ``jobs`` is the ``--jobs`` value passed (1 when absent).
    """

    workload: str
    key: int
    argv: tuple[str, ...]
    items: int
    jobs: int = 1
    out: str | None = None
    plot: bool = False
    spec: analysis.SweepSpec | None = None
    selftest_seed: int | None = None
    thermal_points: tuple[XStateParams, ...] = ()
    minimized: tuple[int, ...] = ()


def _flag(name: str, value) -> str:
    # --name=value keeps argparse from reading a negative exponent as a flag
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


def draw_base(rng: np.random.Generator, kind: str, T: float = 1.0) -> XStateParams:
    """A seeded parameter point; degenerate kinds pin the guard-path inputs.

    ``zero_field``: B1 = B2 = 0.  ``r1_zero``: r1 = 0 and B1 = -B2, so R1 = 0.
    ``boundary``: zero field on the line r1 + r2 = 2|Jz|.
    """
    jz, r1, r2 = rng.uniform(-_JZ, _JZ), rng.uniform(0.0, _R), rng.uniform(0.0, _R)
    b1, b2 = rng.uniform(-_B, _B), rng.uniform(-_B, _B)
    if kind == "zero_field":
        b1 = b2 = 0.0
    elif kind == "r1_zero":
        r1, b2 = 0.0, -b1
    elif kind == "boundary":
        b1 = b2 = 0.0
        jz = math.copysign(rng.uniform(0.3, 2.0), jz)
        r1 = rng.uniform(0.0, 2.0 * abs(jz))
        r2 = 2.0 * abs(jz) - r1
    elif kind != "generic":
        raise ValueError(f"unknown base kind {kind!r}")
    return XStateParams(Jz=float(jz), r1=float(r1), r2=float(r2), B1=float(b1), B2=float(b2), T=T)


def _param_flags(p: XStateParams) -> list[str]:
    return [_flag(k, getattr(p, k)) for k in ("Jz", "r1", "r2", "B1", "B2")]


def _cut(rng: np.random.Generator, variable: str, kind: str, t_lo: float):
    """Base point and sweep range for a cut in T (from ``t_lo``) or in a field."""
    if variable == "T":
        base = draw_base(rng, kind)
        start, stop = t_lo, float(rng.uniform(2.0, 4.0))
    else:
        base = draw_base(rng, kind, T=float(rng.uniform(0.1, 2.0)))
        start, stop = -float(rng.uniform(2.5, 3.5)), float(rng.uniform(2.5, 3.5))
    return base, start, stop


def _sweep_ops(rng: np.random.Generator, jobs: int) -> list[Op]:
    ops = []
    for key, (variable, kind, fmt, plot, pooled) in enumerate(_SWEEP_PLAN):
        base, start, stop = _cut(rng, variable, kind, T_MIN)
        spec = analysis.SweepSpec(base=base, variable=variable, start=start, stop=stop, points=SWEEP_POINTS)
        out = f"sweep{key}.{fmt}"
        argv = ["--mode=sweep", *_param_flags(base)]
        if variable != "T":
            argv.append(_flag("T", base.T))
        argv += [f"--var={variable}", _flag("from", start), _flag("to", stop),
                 f"--points={SWEEP_POINTS}", f"--format={fmt}", f"--out={out}"]
        if plot:
            argv.append("--plot-script")
        op_jobs = jobs if pooled else 1
        if pooled:
            argv.append(f"--jobs={op_jobs}")
        ops.append(Op("sweep", key, tuple(argv), SWEEP_POINTS, jobs=op_jobs, out=out, plot=plot, spec=spec))
    return ops


def _phase_ops(rng: np.random.Generator) -> list[Op]:
    ops = []
    for key in range(_PHASE_CYCLES * len(_PHASE_PLAN)):
        variable, kind, points = _PHASE_PLAN[key % len(_PHASE_PLAN)]
        if kind == "degenerate":
            kind = _DEGENERATE_KINDS[(key // len(_PHASE_PLAN)) % len(_DEGENERATE_KINDS)]
        base, start, stop = _cut(rng, variable, kind, float(rng.uniform(0.02, 0.2)))
        argv = ["--mode=transitions", *_param_flags(base)]
        if variable != "T":
            argv.append(_flag("T", base.T))
        argv += [f"--var={variable}", _flag("from", start), _flag("to", stop)]
        if points is not None:
            argv.append(f"--points={points}")
        spec = analysis.SweepSpec(base=base, variable=variable, start=start, stop=stop,
                                  points=points if points is not None else 1000)
        ops.append(Op("phase-map", key, tuple(argv), 1, spec=spec))
    return ops


def _verify_ops(rng: np.random.Generator) -> list[Op]:
    ops = []
    for key in range(_VERIFY_OPS):
        seed = int(rng.integers(0, 2**31))
        points = tuple(
            draw_base(rng, kind, T=float(math.exp(rng.uniform(math.log(T_MIN), math.log(10.0)))))
            for kind in _VERIFY_KINDS
        )
        minimized = tuple(int(i) for i in rng.choice(SELFTEST_STATES, VERIFY_MINIMIZED_STATES, replace=False))
        argv = ("--mode=selftest", f"--seed={seed}")
        ops.append(Op("verify", key, argv, SELFTEST_STATES, selftest_seed=seed,
                      thermal_points=points, minimized=minimized))
    return ops


def generate(workload: str, seed: int, jobs: int) -> list[Op]:
    """The operation pool of ``workload`` for ``seed``; ``jobs`` is the pool size
    used by the sweep cuts that pass ``--jobs``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "sweep":
        return _sweep_ops(rng, jobs)
    if workload == "phase-map":
        return _phase_ops(rng)
    if workload == "verify":
        return _verify_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# in-process operations
# ---------------------------------------------------------------------------


@dataclass
class Result:
    """What one operation produced, for the output checks."""

    code: int
    seconds: float
    stdout: str = ""
    output: bytes = b""
    crossings: list = dataclasses.field(default_factory=list)
    routes: list = dataclasses.field(default_factory=list)


class _CaptureTransitions:
    """Stands in for ``qxcorr.cli.find_transitions`` and keeps the located
    points, whose brackets the CLI does not print.  It calls the library
    function through its module, so a tracer patched there still sees it."""

    def __init__(self):
        self.points: list = []

    def __call__(self, spec, jobs=1):
        self.points = analysis.find_transitions(spec, jobs=jobs)
        return self.points


@contextlib.contextmanager
def capture_transitions():
    capture = _CaptureTransitions()
    original = cli.find_transitions
    cli.find_transitions = capture
    try:
        yield capture
    finally:
        cli.find_transitions = original


def read_output(op: Op, workdir: Path) -> bytes:
    """The sweep file plus its plot script, as one byte string."""
    data = (workdir / op.out).read_bytes()
    if op.plot:
        data += b"\0" + (workdir / (op.out + ".gp")).read_bytes()
    return data


def run_in_process(op: Op, workdir: Path, capture: _CaptureTransitions) -> Result:
    """Run one operation in this interpreter; only program calls are timed."""
    argv = list(op.argv)
    if op.out is not None:
        argv = [a if not a.startswith("--out=") else f"--out={workdir / op.out}" for a in argv]
    states = []
    if op.workload == "verify":
        rng = np.random.default_rng(op.selftest_seed)
        states = [oracle.random_x_state(rng) for _ in range(SELFTEST_STATES)]
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    routes = _library_routes(op, states) if op.workload == "verify" else []
    seconds = time.perf_counter() - start
    result = Result(code=code, seconds=seconds, stdout=buf.getvalue(), routes=routes)
    if op.workload == "sweep" and code == 0:
        result.output = read_output(op, workdir)
    if op.workload == "phase-map":
        result.crossings = capture.points
        capture.points = []
    return result


def zero_t_temperature(p: XStateParams) -> float | None:
    """1e-3 where the zero-temperature limit is reached to double precision.

    Excitations above the ground sector are suppressed by exp(-g/T) with g the
    distance to the hypersurface R1 = R2 + 2 Jz or a nonzero radius; g >= 0.05
    makes that below 1e-10 at T = 1e-3.  Closer points have no such temperature
    above the CLI floor and are not compared.
    """
    R1 = math.hypot(p.r1, p.B1 + p.B2)
    R2 = math.hypot(p.r2, p.B1 - p.B2)
    gaps = [abs(R1 - R2 - 2.0 * p.Jz)] + [r for r in (R1, R2) if r > 0.0]
    return T_MIN if min(gaps) >= 0.05 else None


def high_t_temperature(p: XStateParams) -> float:
    """A temperature where the truncated series is exact to far below 1e-9."""
    scale = max(1.0, abs(p.Jz), p.r1, p.r2, abs(p.B1), abs(p.B2))
    return 1e4 * scale


def _branches(p: XStateParams) -> dict[str, float]:
    f, u = correlations.lqfi_thermal(p), correlations.lqu_thermal(p)
    return {"F0": f.branch0, "F1": f.branch1, "U0": u.branch0, "U1": u.branch1}


def _library_routes(op: Op, states) -> list[tuple[str, float, float, object]]:
    """Pairs (route, value, reference, context) along the routes the CLI skips.

    The modules are looked up at call time so that a tracer patched into them
    sees every call.
    """
    routes = []
    for x in states:
        closed_m, raw_m = correlations.m_eigenvalues(x), correlations.m_eigenvalues_raw(x)
        closed_w, raw_w = correlations.w_eigenvalues(x), correlations.w_eigenvalues_raw(x)
        for axis in ("xx", "yy", "zz"):
            routes.append(("m_raw", getattr(raw_m, axis), getattr(closed_m, axis), None))
            routes.append(("w_raw", getattr(raw_w, axis), getattr(closed_w, axis), None))
    for index in op.minimized:
        x = states[index]
        rho = x.as_matrix()
        routes.append(("minimize_LQFI", oracle.minimize_over_observables(rho, "LQFI"), correlations.lqfi_x(x).value, None))
        routes.append(("minimize_LQU", oracle.minimize_over_observables(rho, "LQU"), correlations.lqu_x(x).value, None))
    for p in op.thermal_points:
        x = correlations.thermal_xmatrix(p)
        f_x, u_x = correlations.lqfi_x(x), correlations.lqu_x(x)
        exact = _branches(p)
        routes += [
            ("thermal_F0", f_x.branch0, exact["F0"], p), ("thermal_F1", f_x.branch1, exact["F1"], p),
            ("thermal_U0", u_x.branch0, exact["U0"], p), ("thermal_U1", u_x.branch1, exact["U1"], p),
        ]
        hot = dataclasses.replace(p, T=high_t_temperature(p))
        exact = _branches(hot)
        for which in ("F0", "F1", "U0", "U1"):
            routes.append((f"series_{which}", limits.high_t_series(hot, which).value, exact[which], None))
        t_cold = zero_t_temperature(p)
        if t_cold is not None:
            cold = dataclasses.replace(p, T=t_cold)
            exact = _branches(cold)
            for which in ("F0", "U0", "U1"):
                routes.append((f"zero_t_{which}", limits.zero_t_limit(cold, which), exact[which], None))
    return routes
