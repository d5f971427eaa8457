"""Sweeps, sudden-transition location, and the zero-field branch boundary."""

import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import (
    ANTIFERRO_STRONG,
    ANTIFERRO_STRONG_ZERO_FIELD,
    FERRO_DOUBLE_CROSSING,
    FERRO_WEAK_FIELD,
    FIELD_SWEEP_BASE,
)
from qxcorr import (
    SweepRow,
    SweepSpec,
    XStateParams,
    bell_diagonal_boundary,
    find_transitions,
    lqfi_thermal,
    lqu_thermal,
    sweep,
)
from qxcorr import analysis
from qxcorr.correlations import thermal_branches


def temperature_spec(params: dict, start, stop, points) -> SweepSpec:
    base = XStateParams(**params, T=1.0)
    return SweepSpec(base=base, variable="T", start=start, stop=stop, points=points)


class TestSweep:
    def test_weak_field_monotone_zero_branch(self):
        rows = sweep(temperature_spec(FERRO_WEAK_FIELD, 1e-3, 3.0, 300))
        assert len(rows) == 300
        assert rows[0].f == pytest.approx(0.735294, abs=1e-4)
        assert rows[0].u == pytest.approx(0.735294, abs=1e-4)
        f = np.array([r.f for r in rows])
        u = np.array([r.u for r in rows])
        # monotone decay: non-increasing everywhere and strictly lower overall
        # (the lowest-temperature points saturate to equal floats)
        assert np.all(np.diff(f) <= 0.0) and f[-1] < f[0]
        assert np.all(np.diff(u) <= 0.0) and u[-1] < u[0]
        assert np.count_nonzero(np.diff(f) < 0.0) > 0.9 * (len(f) - 1)
        assert all(r.f_branch == "0" and r.u_branch == "0" for r in rows)

    def test_zero_field_one_branch_everywhere(self):
        rows = sweep(temperature_spec(ANTIFERRO_STRONG_ZERO_FIELD, 0.1, 3.0, 200))
        assert all(r.f_branch == "1" and r.u_branch == "1" for r in rows)

    def test_rows_keep_min_identity(self):
        rows = sweep(temperature_spec(ANTIFERRO_STRONG, 0.5, 3.0, 50))
        for r in rows:
            assert r.f == min(r.f0, r.f1)
            assert r.u == min(r.u0, r.u1)

    def test_sweeps_other_variables(self):
        base = XStateParams(**FIELD_SWEEP_BASE, T=4.0)
        rows = sweep(SweepSpec(base=base, variable="B1", start=-1.0, stop=1.0, points=21))
        assert [r.x for r in rows] == pytest.approx(list(np.linspace(-1, 1, 21)))

    def test_parallel_matches_serial(self):
        spec = temperature_spec(ANTIFERRO_STRONG, 0.5, 3.0, 40)
        assert sweep(spec, jobs=2) == sweep(spec, jobs=1)

    @pytest.mark.parametrize(
        "variable, start, stop",
        [
            ("T", 1e-3, 3.0), ("B1", -6.0, 6.0), ("B2", -6.0, 6.0),
            ("r1", 0.0, 4.0), ("r2", 0.0, 4.0), ("Jz", -3.0, 3.0),
        ],
    )
    def test_point_bits_do_not_depend_on_the_grid(self, variable, start, stop):
        # 10,000 points span ten kernel blocks; a point alone, the whole grid in
        # one call and the blocked sweep must give the same bits
        base = XStateParams(**ANTIFERRO_STRONG, T=0.8)
        spec = SweepSpec(base=base, variable=variable, start=start, stop=stop, points=10_000)
        grid = spec.grid()
        fixed = dataclasses.asdict(spec.base)
        whole = [column.tolist() for column in thermal_branches(**{**fixed, variable: grid})]
        rows = sweep(spec)
        assert [tuple(r)[1:] for r in rows] == list(zip(*whole))
        for i in [*range(0, len(grid), 97), len(grid) - 1]:
            for value in (grid[i], [grid[i]]):
                alone = thermal_branches(**{**fixed, variable: value})
                assert [np.ravel(column).tolist()[0] for column in alone] == [column[i] for column in whole]

    def test_plane_bits_match_single_points(self):
        # a T column against a B1 row: the radii vary along B1 only, and every
        # element of the plane must carry the bits of its point evaluated alone
        fixed = {k: v for k, v in ANTIFERRO_STRONG.items() if k != "B1"}
        temperatures = np.linspace(0.05, 3.0, 23)
        fields = np.linspace(-6.0, 6.0, 31)
        plane = thermal_branches(**fixed, B1=fields[None, :], T=temperatures[:, None])
        assert all(np.shape(column) == (23, 31) for column in plane)
        for i, t in enumerate(temperatures.tolist()):
            for j, b1 in enumerate(fields.tolist()):
                alone = thermal_branches(**fixed, B1=b1, T=t)
                assert [np.ravel(column).tolist()[0] for column in alone] == [column[i, j] for column in plane]

    def test_rows_are_immutable_hashable_named_tuples(self):
        assert SweepRow._fields == ("x", "f0", "f1", "f", "f_branch", "u0", "u1", "u", "u_branch")
        rows = sweep(temperature_spec(ANTIFERRO_STRONG, 0.5, 3.0, 5))
        with pytest.raises(AttributeError):
            rows[0].f = 0.0
        assert len({*rows, *sweep(temperature_spec(ANTIFERRO_STRONG, 0.5, 3.0, 5))}) == 5

    def test_rejects_bad_specs(self):
        base = XStateParams(**FERRO_WEAK_FIELD, T=1.0)
        with pytest.raises(ValueError):
            SweepSpec(base=base, variable="T", start=1.0, stop=1.0, points=10)
        with pytest.raises(ValueError):
            SweepSpec(base=base, variable="T", start=-1.0, stop=1.0, points=10)
        with pytest.raises(ValueError):
            SweepSpec(base=base, variable="Jx", start=0.0, stop=1.0, points=10)
        with pytest.raises(ValueError):
            SweepSpec(base=base, variable="B1", start=0.0, stop=1.0, points=1)

    @pytest.mark.parametrize("start, stop", [(-1e308, 1e308), (-1e308, 8e307)])
    def test_rejects_range_wider_than_floats(self, start, stop):
        base = XStateParams(**FERRO_WEAK_FIELD, T=1.0)
        with pytest.raises(ValueError, match=re.escape(f"[{start!r}, {stop!r}] is wider than the float range")):
            SweepSpec(base=base, variable="B1", start=start, stop=stop, points=10)
        # half the range has a finite width, and its grid is finite
        half = SweepSpec(base=base, variable="B1", start=start / 2, stop=stop / 2, points=10)
        assert all(math.isfinite(x) for x in half.grid())


class TestFindTransitions:
    def test_strong_exchange_single_crossing_per_measure(self):
        found = find_transitions(temperature_spec(ANTIFERRO_STRONG, 0.5, 3.0, 1000))
        lqfi = [t for t in found if t.measure == "LQFI"]
        lqu = [t for t in found if t.measure == "LQU"]
        assert len(lqfi) == 1 and len(lqu) == 1
        assert lqfi[0].location == pytest.approx(1.5821, abs=5e-4)
        assert lqu[0].location == pytest.approx(1.1458, abs=5e-4)

    def test_double_crossings(self):
        found = find_transitions(temperature_spec(FERRO_DOUBLE_CROSSING, 0.05, 2.0, 1000))
        lqu = sorted(t.location for t in found if t.measure == "LQU")
        lqfi = sorted(t.location for t in found if t.measure == "LQFI")
        assert lqu == pytest.approx([0.2565, 0.6158], abs=5e-4)
        assert lqfi == pytest.approx([0.4778, 0.7708], abs=5e-4)

    def test_weak_field_has_no_crossings(self):
        assert find_transitions(temperature_spec(FERRO_WEAK_FIELD, 1e-3, 3.0, 1000)) == []

    def test_zero_field_has_no_temperature_crossings(self):
        rng = np.random.default_rng(401)
        for _ in range(10):
            jz = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            r1, r2 = rng.uniform(0.05, 3.0, size=2)
            if abs(r1 + r2 - 2.0 * abs(jz)) < 0.05:
                continue
            base = XStateParams(Jz=float(jz), r1=float(r1), r2=float(r2), T=1.0)
            spec = SweepSpec(base=base, variable="T", start=0.05, stop=10.0, points=400)
            assert find_transitions(spec) == []

    def test_located_points_satisfy_invariants(self):
        spec = temperature_spec(ANTIFERRO_STRONG, 0.5, 3.0, 1000)
        for tp in find_transitions(spec):
            assert tp.residual < 1e-10
            assert tp.bracket[1] - tp.bracket[0] < 1e-8
            assert tp.bracket[0] <= tp.location <= tp.bracket[1]
            # the active branch flips across the located point
            pair = lqfi_thermal if tp.measure == "LQFI" else lqu_thermal
            base = spec.base
            left = pair(dataclasses.replace(base, T=tp.location - 1e-5)).active
            right = pair(dataclasses.replace(base, T=tp.location + 1e-5)).active
            assert {left, right} == {"0", "1"}

    def test_grid_doubling_stability(self):
        # bisection runs the brackets down to 1e-12, so the grid density only
        # decides which brackets exist, not where the crossings land
        locs = {}
        for points in (1000, 2000):
            found = find_transitions(temperature_spec(ANTIFERRO_STRONG, 0.5, 3.0, points))
            locs[points] = sorted((t.measure, t.location) for t in found)
        assert len(locs[1000]) == len(locs[2000])
        for (m1, l1), (m2, l2) in zip(locs[1000], locs[2000]):
            assert m1 == m2
            assert abs(l1 - l2) < 5e-12

    def test_scan_builds_no_sweep_rows(self, monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("find_transitions built a SweepRow")

        spec = temperature_spec(ANTIFERRO_STRONG, 0.5, 3.0, 200)
        expected = find_transitions(spec)
        monkeypatch.setattr(analysis, "SweepRow", no_rows)
        assert find_transitions(spec) == expected
        assert {t.measure for t in expected} == {"LQFI", "LQU"}

    def test_thermal_forms_are_looked_up_at_call_time(self, monkeypatch):
        # a wrapper patched into the module after import must see every call
        # of the scan, so the measure pairing cannot be bound at import
        points = 200
        calls = {"lqfi_thermal": 0, "lqu_thermal": 0}
        for name in calls:
            original = getattr(analysis, name)

            def counting(p, name=name, original=original):
                calls[name] += 1
                return original(p)

            monkeypatch.setattr(analysis, name, counting)
        found = find_transitions(temperature_spec(ANTIFERRO_STRONG, 0.5, 3.0, points))
        assert {t.measure for t in found} == {"LQFI", "LQU"}
        assert calls["lqfi_thermal"] >= points and calls["lqu_thermal"] >= points

    def test_field_sweep_crossings(self):
        base = XStateParams(**FIELD_SWEEP_BASE, T=4.0)
        spec = SweepSpec(base=base, variable="B1", start=-6.0, stop=6.0, points=1000)
        found = find_transitions(spec)
        by_measure = {"LQFI": [], "LQU": []}
        for tp in found:
            by_measure[tp.measure].append(tp.location)
        assert len(by_measure["LQFI"]) >= 2
        assert len(by_measure["LQU"]) >= 2


class TestBellDiagonalBoundary:
    def test_above_the_line(self):
        p = XStateParams(**ANTIFERRO_STRONG_ZERO_FIELD, T=1.0)
        result = bell_diagonal_boundary(p)
        assert result.side == "above"
        assert result.lqfi_branch == "1" and result.lqu_branch == "1"

    def test_below_the_line(self):
        p = XStateParams(Jz=1.0, r1=0.5, r2=0.5, T=1.0)
        result = bell_diagonal_boundary(p, temperatures=(0.1, 1.0, 10.0))
        assert result.side == "below"
        assert result.lqfi_branch == "0" and result.lqu_branch == "0"

    def test_exactly_on_the_line(self):
        p = XStateParams(Jz=-0.75, r1=0.9, r2=0.6, T=1.0)
        assert bell_diagonal_boundary(p).side == "boundary"

    def test_rejects_nonzero_fields(self):
        p = XStateParams(Jz=1.0, r1=0.5, r2=0.5, B1=0.1, T=1.0)
        with pytest.raises(ValueError):
            bell_diagonal_boundary(p)

    def test_reflection_across_the_line_flips_branch(self):
        rng = np.random.default_rng(409)
        done = 0
        while done < 15:
            jz = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
            line = 2.0 * abs(jz)
            r1, r2 = rng.uniform(0.05, line - 0.05, size=2)
            if abs(r1 + r2 - line) < 0.05:
                continue
            done += 1
            p = XStateParams(Jz=jz, r1=float(r1), r2=float(r2), T=1.0)
            mirrored = XStateParams(Jz=jz, r1=float(line - r2), r2=float(line - r1), T=1.0)
            a, b = bell_diagonal_boundary(p), bell_diagonal_boundary(mirrored)
            assert {a.side, b.side} == {"above", "below"}
            assert a.lqfi_branch != b.lqfi_branch
            assert a.lqu_branch != b.lqu_branch
