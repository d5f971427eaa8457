"""Output checks run on every benchmark operation.

Each check raises :class:`CheckFailure` with a reason; the runner counts the
operation as failed.  Checks read what the program printed or wrote and
recompute references through public library routes that the operation itself
did not take.
"""

from __future__ import annotations

import dataclasses
import math
import re

import qxcorr.correlations as correlations
import qxcorr.oracle as oracle
from qxcorr.cli import SELFTEST_STATES, SELFTEST_TOL
from qxcorr.xmodel import XStateParams

#: branches closer than this carry the "boundary" label (correlations.BOUNDARY_TOL)
BOUNDARY_TOL = correlations.BOUNDARY_TOL
#: the CLI prints 12 significant digits; values lie in [0, 1]
_PRINT_SLACK = 2e-12
#: transition brackets are bisected down to this width (analysis.BISECTION_WIDTH)
BRACKET_WIDTH = 1e-12
#: documented ceiling of LQU routes that start from the dense X matrix, once a
#: true eigenvalue drops below the rounding scale of the stored entries (README)
UNRESOLVED_LQU_TOL = 1e-7
#: the oracle's Jacobi eigenvalues carry ~1e-16 absolute error, which sqrt
#: amplifies past 1e-9 below this occupation
ORACLE_RESOLVED_OCCUPATION = 1e-12

_SWEEP_COLUMNS = ("F0", "F1", "F", "F_branch", "U0", "U1", "U", "U_branch")
_SELFTEST_LINE = re.compile(
    rf"selftest: {SELFTEST_STATES} states, max \|closed - oracle\| = (\S+)\nselftest: ok\n\Z"
)


class CheckFailure(Exception):
    """An operation's output is wrong."""


def _fail(reason: str):
    raise CheckFailure(reason)


def occupations(p: XStateParams) -> list[float]:
    """Eigenvalues of the thermal state, from the closed-form energy levels."""
    beta = 1.0 / p.T
    R1 = math.hypot(p.r1, p.B1 + p.B2)
    R2 = math.hypot(p.r2, p.B1 - p.B2)
    exponents = [-beta * e for e in (p.Jz + R1, p.Jz - R1, -p.Jz + R2, -p.Jz - R2)]
    m = max(exponents)
    w = [math.exp(e - m) for e in exponents]
    z = sum(w)
    return [x / z for x in w]


def lqu_resolvable(p: XStateParams) -> bool:
    """False where a block eigenvalue product lies in (1e-22, 1e-9).

    There the closed matrix-element route agrees with the thermal closed form
    only to 1e-7 (the rule of the library's own tests).
    """
    w = occupations(p)
    return all(prod == 0.0 or not (1e-22 < prod < 1e-9) for prod in (w[0] * w[1], w[2] * w[3]))


def _expected_label(b0: float, b1: float) -> set[str]:
    gap = abs(b0 - b1)
    side = "0" if b0 < b1 else "1"
    if gap < BOUNDARY_TOL - _PRINT_SLACK:
        return {"boundary"}
    if gap > BOUNDARY_TOL + _PRINT_SLACK:
        return {side}
    return {"boundary", side}


def parse_sweep(op, data: bytes) -> list[list[str]]:
    """Check a sweep file (and plot script) and return its rows as fields.

    Every row must be finite and in [0, 1], the value must be the printed
    minimum of the branches and the label must match it.
    """
    table, _, script = data.partition(b"\0")
    if op.plot and op.out not in script.decode("utf-8", "replace"):
        _fail("plot script missing or not referencing the output file")
    text = table.decode("ascii")
    if not text.endswith("\n"):
        _fail("output is truncated: no final newline")
    sep = "\t" if op.out.endswith(".tsv") else ","
    lines = text[:-1].split("\n")
    if lines[0] != sep.join((op.spec.variable,) + _SWEEP_COLUMNS):
        _fail(f"bad header {lines[0]!r}")
    grid = op.spec.grid()
    if len(lines) - 1 != len(grid):
        _fail(f"output is truncated: {len(lines) - 1} rows for {len(grid)} grid points")
    rows = []
    for i, line in enumerate(lines[1:]):
        fields = line.split(sep)
        if len(fields) != 9:
            _fail(f"row {i} has {len(fields)} fields")
        if fields[0] != f"{grid[i]:.12g}":
            _fail(f"row {i} is at {fields[0]}, grid point is {grid[i]:.12g}")
        for b0s, b1s, vs, label in (fields[1:5], fields[5:9]):
            b0, b1, v = float(b0s), float(b1s), float(vs)
            if not (0.0 <= b0 <= 1.0 and 0.0 <= b1 <= 1.0 and 0.0 <= v <= 1.0):
                _fail(f"row {i}: value outside [0, 1] or not finite: {line!r}")
            if vs not in (b0s, b1s) or v != min(b0, b1):
                _fail(f"row {i}: value {vs} is not the smaller branch of {b0s}, {b1s}")
            if label not in _expected_label(b0, b1):
                _fail(f"row {i}: label {label!r} does not match branches {b0s}, {b1s}")
        rows.append(fields)
    return rows


def check_against_oracle(op, rows: list[list[str]], index: int) -> None:
    """Row ``index`` must match thermal_xmatrix -> oracle moment matrices ->
    1 - lambda_max to SELFTEST_TOL; LQU to 1e-7 where an occupation is below
    ``ORACLE_RESOLVED_OCCUPATION``.

    lambda_max is taken by the oracle's Jacobi route: the trigonometric
    ``lambda_max_closed`` loses ~sqrt(eps) at a double top eigenvalue, which
    every branch tie (a ``boundary`` row) produces.
    """
    p = dataclasses.replace(op.spec.base, **{op.spec.variable: op.spec.grid()[index]})
    rho = correlations.thermal_xmatrix(p).as_matrix()
    try:
        f_ref = 1.0 - oracle.lambda_max_jacobi(oracle.oracle_m_matrix(rho))
        u_ref = 1.0 - oracle.lambda_max_jacobi(oracle.oracle_w_matrix(rho))
    except (RuntimeError, ValueError) as exc:
        _fail(f"row {index}: oracle route raised {exc!r} at {p}")
    u_tol = SELFTEST_TOL if min(occupations(p)) >= ORACLE_RESOLVED_OCCUPATION else UNRESOLVED_LQU_TOL
    f, u = float(rows[index][3]), float(rows[index][7])
    if not abs(f - f_ref) <= SELFTEST_TOL + _PRINT_SLACK:
        _fail(f"row {index}: LQFI {f!r} differs from oracle {f_ref!r}")
    if not abs(u - u_ref) <= u_tol + _PRINT_SLACK:
        _fail(f"row {index}: LQU {u!r} differs from oracle {u_ref!r}")


def branch_gap(spec, measure: str, value: float) -> float:
    p = dataclasses.replace(spec.base, **{spec.variable: value})
    pair = correlations.lqfi_thermal(p) if measure == "LQFI" else correlations.lqu_thermal(p)
    return pair.branch0 - pair.branch1


def check_transitions(op, stdout: str, points) -> None:
    """Printed crossings match the located points; each bracket is at most
    1e-12 wide and the public branch gap changes sign across it."""
    lines = [
        f"{measure} {tp.location:.12g} {tp.residual:.3e}"
        for measure in ("LQFI", "LQU")
        for tp in points
        if tp.measure == measure
    ] or ["no transitions found"]
    if stdout != "\n".join(lines) + "\n":
        _fail(f"printed crossings {stdout!r} do not match the located points")
    for tp in points:
        a, b = tp.bracket
        if not (math.isfinite(tp.location) and math.isfinite(tp.residual)):
            _fail(f"{tp.measure} crossing is not finite: {tp}")
        if not (a <= tp.location <= b and b - a <= BRACKET_WIDTH):
            _fail(f"{tp.measure} bracket [{a!r}, {b!r}] is wider than {BRACKET_WIDTH}")
        if branch_gap(op.spec, tp.measure, a) * branch_gap(op.spec, tp.measure, b) > 0.0:
            _fail(f"{tp.measure} branch gap keeps its sign across [{a!r}, {b!r}]")


def check_selftest(code: int, stdout: str) -> None:
    match = _SELFTEST_LINE.match(stdout)
    if code != 0 or match is None:
        _fail(f"selftest exited {code} with {stdout!r}")
    if not float(match.group(1)) <= SELFTEST_TOL:
        _fail(f"selftest deviation {match.group(1)} above {SELFTEST_TOL}")


def check_routes(routes) -> None:
    """Every in-library route agrees with its reference to SELFTEST_TOL."""
    if not routes:
        _fail("no library routes were checked")
    for route, value, reference, point in routes:
        tol = SELFTEST_TOL
        if route.startswith("thermal_U") and not lqu_resolvable(point):
            tol = UNRESOLVED_LQU_TOL
        if not abs(value - reference) <= tol:
            _fail(f"{route}: {value!r} differs from {reference!r} by more than {tol}")
