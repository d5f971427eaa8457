"""Metric registry and the per-layer metrics computed from a traced run.

``END_TO_END`` and ``PER_LAYER`` are the source of the metric lists in
``BENCHMARK.json`` (a test keeps the two in step).  Each per-layer metric names
the end-to-end metric and workload it is expected to move; on the other
workloads the prediction is no change.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass

from tracing import self_times

#: (name, unit, better, bound): what a user of the CLI or the library sees
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("cold_wall_s", "s", "lower", 0.25),
    ("warm_call_s", "s", "lower", 0.25),
    ("warm_call_tail_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

#: (name, unit, better, target end-to-end metric and workload)
PER_LAYER = (
    ("import.qxcorr_s", "s", "lower", "setup_s and cold_wall_s on every workload, most on phase-map and verify"),
    ("import.scipy_optimize_s", "s", "lower", "setup_s and cold_wall_s on every workload, most on phase-map and verify"),
    ("cli.parse_config_s", "s", "lower", "setup_s"),
    ("cli.format_write_s", "s", "lower", "warm_call_s and items_per_s on sweep"),
    ("cli.bytes_out", "bytes", "lower", "warm_call_s and items_per_s on sweep"),
    ("analysis.sweep_self_s", "s", "lower", "warm_call_s and items_per_s on sweep"),
    ("analysis.pool_sweep_s", "s", "lower", "warm_call_s and warm_call_tail_s on sweep"),
    ("analysis.find_transitions_self_s", "s", "lower", "warm_call_s on phase-map"),
    ("analysis.grid_evals", "count/op", "lower", "warm_call_s on phase-map"),
    ("analysis.refine_evals", "count/op", "lower", "warm_call_s on phase-map"),
    ("analysis.crossings", "count/op", "higher", "warm_call_s on phase-map"),
    ("analysis.refine_evals_per_crossing", "count", "lower", "warm_call_s on phase-map"),
    ("correlations.lqfi_thermal_us", "us", "lower", "warm_call_s and items_per_s on sweep and phase-map"),
    ("correlations.lqu_thermal_us", "us", "lower", "warm_call_s and items_per_s on sweep and phase-map"),
    ("correlations.thermal_calls", "count/point", "lower", "warm_call_s and items_per_s on sweep"),
    ("correlations.lqfi_x_us", "us", "lower", "items_per_s on verify"),
    ("correlations.lqu_x_us", "us", "lower", "items_per_s on verify"),
    ("correlations.m_eigenvalues_raw_us", "us", "lower", "items_per_s on verify"),
    ("correlations.w_eigenvalues_raw_us", "us", "lower", "items_per_s on verify"),
    ("correlations.thermal_xmatrix_us", "us", "lower", "items_per_s on verify"),
    ("correlations.w_oracle_fallbacks", "count/op", "lower", "items_per_s on verify"),
    ("xmodel.gibbs_xstate_us", "us", "lower", "items_per_s on verify"),
    ("xmodel.dephase_us", "us", "lower", "items_per_s on verify"),
    ("xalgebra.spectrum_us", "us", "lower", "items_per_s on verify"),
    ("xalgebra.eigenframe_us", "us", "lower", "items_per_s on verify"),
    ("xalgebra.local_spin_in_eigenbasis_us", "us", "lower", "items_per_s on verify"),
    ("oracle.jacobi_eigh_us", "us", "lower", "items_per_s on verify"),
    ("oracle.jacobi_calls_per_state", "count", "lower", "items_per_s on verify"),
    ("oracle.oracle_m_matrix_us", "us", "lower", "items_per_s on verify"),
    ("oracle.oracle_w_matrix_us", "us", "lower", "items_per_s on verify"),
    ("oracle.validate_density_matrix_us", "us", "lower", "items_per_s on verify"),
    ("oracle.lambda_max_closed_us", "us", "lower", "items_per_s on verify"),
    ("oracle.minimize_over_observables_ms", "ms", "lower", "items_per_s on verify"),
    ("limits.high_t_series_us", "us", "lower", "items_per_s on verify"),
    ("limits.zero_t_limit_us", "us", "lower", "items_per_s on verify"),
    ("trace.overhead_s", "s", "lower", "none: warm_call_s traced minus untraced on the named workload"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

_THERMAL = ("correlations.lqfi_thermal", "correlations.lqu_thermal")


@dataclass
class OpRecord:
    """One traced operation: its workload, op and measured outcome."""

    op: object
    crossings: int = 0
    bytes_out: int = 0


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n, n


def layer_metrics(spans, records: dict[int, OpRecord]) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced operations in ``records``."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    by_id = {s.id: s for s in spans}

    def workload(s) -> str:
        return records[s.op].op.workload

    def ops_of(name: str) -> list[OpRecord]:
        return [r for r in records.values() if r.op.workload == name]

    def per_call_us(name: str) -> float:
        return statistics.median(s.seconds for s in by_name[name]) * 1e6

    def median_self(name: str, keep=lambda s: True) -> float:
        return statistics.median(selfs[s.id] for s in by_name[name] if keep(s))

    sweeps, phases, verifies = ops_of("sweep"), ops_of("phase-map"), ops_of("verify")
    out = {
        "cli.parse_config_s": median_self("cli.parse_config"),
        "cli.format_write_s": median_self("cli.run", lambda s: workload(s) == "sweep"),
        "cli.bytes_out": statistics.median(r.bytes_out for r in sweeps),
        "analysis.sweep_self_s": median_self("analysis.sweep", lambda s: records[s.op].op.jobs == 1),
        "analysis.pool_sweep_s": statistics.median(
            s.seconds for s in by_name["analysis.sweep"] if "--jobs" in " ".join(records[s.op].op.argv)
        ),
        "analysis.find_transitions_self_s": median_self("analysis.find_transitions"),
    }

    thermal_in_search = sum(
        1 for name in _THERMAL for s in by_name[name]
        if by_id.get(s.parent) is not None and by_id[s.parent].name == "analysis.find_transitions"
    )
    grid = sum(r.op.spec.points for r in phases)
    refine = thermal_in_search - 2 * grid
    crossings = sum(r.crossings for r in phases)
    out.update({
        "analysis.grid_evals": grid / len(phases),
        "analysis.refine_evals": refine / len(phases),
        "analysis.crossings": crossings / len(phases),
        "analysis.refine_evals_per_crossing": refine / max(1, crossings),
    })

    serial_sweeps = [r for r in sweeps if r.op.jobs == 1]
    out["correlations.thermal_calls"] = sum(
        1 for name in _THERMAL for s in by_name[name]
        if workload(s) == "sweep" and records[s.op].op.jobs == 1
    ) / sum(r.op.spec.points for r in serial_sweeps)
    out["correlations.w_oracle_fallbacks"] = sum(
        1 for s in by_name["oracle.oracle_w_matrix"]
        if by_id.get(s.parent) is not None and by_id[s.parent].name == "correlations.w_eigenvalues"
    ) / len(verifies)
    states = sum(r.op.items for r in verifies)
    out["oracle.jacobi_calls_per_state"] = sum(
        1 for s in by_name["oracle.jacobi_eigh"] if workload(s) == "verify"
    ) / states
    out["oracle.minimize_over_observables_ms"] = per_call_us("oracle.minimize_over_observables") / 1e3

    for name, unit, *_ in PER_LAYER:
        if unit == "us":
            out[name] = per_call_us(name[: -len("_us")])
    return out
