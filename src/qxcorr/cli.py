"""Command-line front end: point evaluation, sweeps, transition finding, selftest.

Exit codes: 0 success, 2 usage, 3 configuration, 4 domain validation,
5 I/O failure, 6 selftest deviation above tolerance.  All output formatting is
locale-independent and byte-reproducible for identical configurations.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .analysis import SWEEP_VARIABLES, SweepSpec, SweepRow, _row, find_transitions, sweep
from .correlations import lqu_x, lqfi_x
from .limits import IndeterminateZeroTemperatureLimit, zero_t_limit
from .oracle import lambda_max_closed, oracle_m_matrix, oracle_w_matrix, random_x_state
from .xmodel import HamiltonianParams, XStateParams, derived_radii

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_DOMAIN = 4
EXIT_IO = 5
EXIT_SELFTEST = 6

#: closed thermal forms divide by T; queries below this floor must use --T0
TEMPERATURE_FLOOR = 1e-6

#: cap on --points, so that a typo cannot exhaust memory
MAX_POINTS = 1_000_000
#: upper end of the accepted --jobs range; the option has no effect, and the
#: range is validated so that scripts and config files passing it are checked
MAX_JOBS = 64

SELFTEST_STATES = 100
SELFTEST_TOL = 1e-9
DEFAULT_SEED = 20240817

_FULL_ONLY = ("Jx", "Jy", "Dz", "Gz")
_REDUCED_ONLY = ("r1", "r2")


class _Option(NamedTuple):
    """Type, choices and help text of the flag ``--<key>``; every key but
    ``config`` is also a config-file line ``<key> = value``, read the same way.

    bool options are switches on the command line and true/false in a file.
    """

    type: type = float
    choices: tuple[str, ...] | None = None
    metavar: str | None = None
    help: str | None = None


#: every option, in --help order
_OPTIONS = {
    "mode": _Option(str, ("eval", "sweep", "transitions", "selftest")),
    "config": _Option(str, metavar="FILE", help="key = value file; flags override"),
    **{name: _Option() for name in ("Jx", "Jy", "Jz", "Dz", "Gz", "B1", "B2", "r1", "r2", "T")},
    "T0": _Option(bool, help="zero-temperature limits (eval mode)"),
    "var": _Option(str, SWEEP_VARIABLES),
    "from": _Option(metavar="START"),
    "to": _Option(metavar="STOP"),
    "points": _Option(int),
    "out": _Option(str),
    "format": _Option(str, ("csv", "tsv")),
    "plot-script": _Option(bool),
    "jobs": _Option(
        int, metavar="N",
        help=f"accepted for compatibility (1..{MAX_JOBS}); has no effect, every grid runs in-process",
    ),
    "seed": _Option(int),
}


class ConfigError(Exception):
    """Invalid or conflicting configuration (exit code 3)."""


class DomainError(ValueError):
    """Parameter outside its physical domain (exit code 4)."""


@dataclass(frozen=True)
class RunConfig:
    mode: str
    params: XStateParams
    zero_t: bool
    spec: SweepSpec | None
    out: str | None
    fmt: str
    plot_script: bool
    jobs: int
    seed: int


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use and cached (a first build takes ~3 ms)."""
    ap = argparse.ArgumentParser(
        prog="qxcorr",
        description=(
            "Local quantum Fisher information and local quantum uncertainty for "
            "thermal two-qubit X states."
        ),
    )
    for key, option in _OPTIONS.items():
        if option.type is bool:
            ap.add_argument(f"--{key}", dest=key, action="store_true", default=None, help=option.help)
        else:
            ap.add_argument(
                f"--{key}", dest=key, type=option.type, choices=option.choices,
                default=None, metavar=option.metavar, help=option.help,
            )
    return ap


def _read_config_file(path: str) -> dict:
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        option = _OPTIONS.get(key)
        if option is None or key == "config":
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if option.type is bool:
            low = value.lower()
            if low not in ("true", "false"):
                raise ConfigError(f"{path}:{lineno}: expected true/false for {key}, got {value!r}")
            values[key] = low == "true"
        elif option.choices is not None and value not in option.choices:
            choices = ", ".join(option.choices)
            raise ConfigError(f"{path}:{lineno}: {key} must be one of {choices}, got {value!r}")
        else:
            try:
                values[key] = option.type(value)
            except ValueError as exc:
                kind = "number" if option.type is float else "integer"
                raise ConfigError(f"{path}:{lineno}: malformed {kind} {value!r} for {key}") from exc
    return values


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Merge flags and config file into a validated RunConfig.

    Raises SystemExit(2) for usage problems (argparse), ConfigError for
    configuration problems, DomainError for out-of-domain values.
    """
    args = _build_parser().parse_args(argv)
    given = _read_config_file(args.config) if args.config else {}
    given.update((key, value) for key, value in vars(args).items() if value is not None)
    try:
        return _checked_config(given)
    except ValueError as exc:  # the domain checks of _checked_config and the model constructors
        raise DomainError(str(exc)) from exc


def _checked_config(given: dict) -> RunConfig:
    """RunConfig from the merged option values; a value outside its domain raises ValueError."""
    get = given.get
    mode = get("mode")
    if mode is None:
        _build_parser().print_usage(sys.stderr)
        print("qxcorr: error: --mode is required", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    full_given = [k for k in _FULL_ONLY if k in given]
    reduced_given = [k for k in _REDUCED_ONLY if k in given]
    if full_given and reduced_given:
        raise ConfigError(
            f"conflicting parameter sets: full-Hamiltonian keys {full_given} "
            f"cannot be combined with reduced keys {reduced_given}"
        )

    zero_t = get("T0", False)
    if zero_t and mode != "eval":
        raise ConfigError("--T0 applies to eval mode only")
    variable = get("var")
    t_value = get("T")
    if t_value is None:
        if mode == "eval" and not zero_t:
            raise ConfigError("eval mode needs --T (or --T0)")
        if mode in ("sweep", "transitions") and variable is not None and variable != "T":
            raise ConfigError(f"sweeping {variable} needs a fixed --T")
        t_value = 1.0  # placeholder; unused by --T0 and replaced by T sweeps
    elif t_value < TEMPERATURE_FLOOR:
        raise ValueError(
            f"temperature {t_value!r} is below the {TEMPERATURE_FLOOR} floor; "
            "use --T0 for the zero-temperature limit"
        )

    if full_given:
        h = HamiltonianParams(
            Jx=get("Jx", 0.0), Jy=get("Jy", 0.0), Jz=get("Jz", 0.0),
            Dz=get("Dz", 0.0), Gz=get("Gz", 0.0), B1=get("B1", 0.0), B2=get("B2", 0.0),
        )
        rad = derived_radii(h)
        r1, r2 = rad.r1, rad.r2
    else:
        r1, r2 = get("r1", 0.0), get("r2", 0.0)
    params = XStateParams(Jz=get("Jz", 0.0), r1=r1, r2=r2, B1=get("B1", 0.0), B2=get("B2", 0.0), T=t_value)

    spec = None
    if mode in ("sweep", "transitions"):
        if variable is None:
            raise ConfigError(f"{mode} mode needs --var")
        start = get("from")
        stop = get("to")
        if start is None or stop is None:
            raise ConfigError(f"{mode} mode needs --from and --to")
        points = get("points", 300 if mode == "sweep" else 1000)
        if points > MAX_POINTS:
            raise ValueError(f"--points must be at most {MAX_POINTS}, got {points}")
        if variable == "T" and start < TEMPERATURE_FLOOR:
            raise ValueError(f"temperature sweep start {start!r} is below the {TEMPERATURE_FLOOR} floor")
        spec = SweepSpec(base=params, variable=variable, start=start, stop=stop, points=points)

    out = get("out")
    plot_script = get("plot-script", False)
    if plot_script and mode != "sweep":
        raise ConfigError("--plot-script applies to sweep mode only")
    if plot_script and out is None:
        raise ConfigError("--plot-script needs --out to know which file to reference")
    jobs = get("jobs", 1)
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"--jobs must be between 1 and {MAX_JOBS}, got {jobs}")

    return RunConfig(
        mode=mode, params=params, zero_t=zero_t, spec=spec, out=out, fmt=get("format", "csv"),
        plot_script=plot_script, jobs=jobs, seed=get("seed", DEFAULT_SEED),
    )


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _header(variable: str, sep: str) -> str:
    return sep.join(
        (variable, "F0", "F1", "F", "F_branch", "U0", "U1", "U", "U_branch")
    )


def _row_line(row: SweepRow, sep: str) -> str:
    return sep.join(
        (
            _fmt(row.x),
            _fmt(row.f0), _fmt(row.f1), _fmt(row.f), row.f_branch,
            _fmt(row.u0), _fmt(row.u1), _fmt(row.u), row.u_branch,
        )
    )


def _plot_script_text(csv_name: str, variable: str, sep: str) -> str:
    separator = "," if sep == "," else "\\t"
    return (
        "# gnuplot script emitted alongside the sweep output\n"
        f'set datafile separator "{separator}"\n'
        f'set xlabel "{variable}"\n'
        'set ylabel "correlation"\n'
        "set key left bottom\n"
        "plot \\\n"
        f'    "{csv_name}" using 1:4 with lines title "LQFI", \\\n'
        f'    "{csv_name}" using 1:8 with lines title "LQU"\n'
    )


def _run_eval(config: RunConfig) -> int:
    if config.zero_t:
        print("branch,value")
        for which in ("F0", "U0", "U1"):
            try:
                print(f"{which},{_fmt(zero_t_limit(config.params, which))}")
            except IndeterminateZeroTemperatureLimit:
                print(f"{which},indeterminate")
        return EXIT_OK
    sep = "," if config.fmt == "csv" else "\t"
    # evaluate first, so that a refused point writes nothing to stdout
    row = _row(config.params, "T", config.params.T)
    print(_header("T", sep))
    print(_row_line(row, sep))
    return EXIT_OK


def _run_sweep(config: RunConfig) -> int:
    sep = "," if config.fmt == "csv" else "\t"
    rows = sweep(config.spec, jobs=config.jobs)
    lines = [_header(config.spec.variable, sep)]
    lines.extend(_row_line(r, sep) for r in rows)
    text = "\n".join(lines) + "\n"
    if config.out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(config.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"qxcorr: cannot write {config.out}: {exc}", file=sys.stderr)
            return EXIT_IO
        if config.plot_script:
            script_path = Path(str(config.out) + ".gp")
            try:
                script_path.write_text(
                    _plot_script_text(Path(config.out).name, config.spec.variable, sep),
                    encoding="utf-8",
                )
            except OSError as exc:
                print(f"qxcorr: cannot write {script_path}: {exc}", file=sys.stderr)
                return EXIT_IO
    return EXIT_OK


def _run_transitions(config: RunConfig) -> int:
    points = find_transitions(config.spec, jobs=config.jobs)
    for measure in ("LQFI", "LQU"):
        for tp in points:
            if tp.measure == measure:
                print(f"{measure} {_fmt(tp.location)} {tp.residual:.3e}")
    if not points:
        print("no transitions found")
    return EXIT_OK


def _run_selftest(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    states = [random_x_state(rng) for _ in range(SELFTEST_STATES)]
    closed_f = np.array([lqfi_x(x).value for x in states])
    closed_u = np.array([lqu_x(x).value for x in states])
    # one oracle call per moment matrix over the whole stack of states
    rho = np.stack([x.as_matrix() for x in states])
    oracle_f = 1.0 - lambda_max_closed(oracle_m_matrix(rho))
    oracle_u = 1.0 - lambda_max_closed(oracle_w_matrix(rho))
    worst = float(max(np.abs(closed_f - oracle_f).max(), np.abs(closed_u - oracle_u).max()))
    print(f"selftest: {SELFTEST_STATES} states, max |closed - oracle| = {worst:.3e}")
    if not worst <= SELFTEST_TOL:
        print(f"selftest: FAILED (tolerance {SELFTEST_TOL:.1e})", file=sys.stderr)
        return EXIT_SELFTEST
    print("selftest: ok")
    return EXIT_OK


def run(config: RunConfig) -> int:
    if config.mode == "eval":
        return _run_eval(config)
    if config.mode == "sweep":
        return _run_sweep(config)
    if config.mode == "transitions":
        return _run_transitions(config)
    return _run_selftest(config)


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_config(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return code
    except ConfigError as exc:
        print(f"qxcorr: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"qxcorr: invalid parameter: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        return run(config)
    except ValueError as exc:
        print(f"qxcorr: invalid parameter: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"qxcorr: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
