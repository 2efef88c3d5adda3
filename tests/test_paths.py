import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathcalc.paths import (CadlagPath, PathError, _require_shared_grid, _union_marks,
                            constant_path, make_path, step_path, uniform_grid)

from oracles import from_function


def unit_step():
    return make_path([0.0, 0.5, 1.0], [0.0, 1.0, 1.0], jumps=[(1, 0.0)])


def test_constant_path_has_no_jumps():
    p = make_path([0.0, 1.0], [0.0, 0.0])
    assert p.jumps() == []
    assert p.sum_squared_jumps() == 0.0


def test_unit_step_construction():
    p = unit_step()
    assert p.jumps() == [(0.5, 1.0)]
    assert p.sum_squared_jumps() == 1.0


def test_union_of_marks_is_sorted_and_one_path_keeps_its_own():
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    a = make_path(grid, [0.0, 1.0, 1.0, 2.0, 2.0], jumps=[(3, 1.0), (1, 0.0)])
    b = make_path(grid, [0.0, 0.0, 1.0, 2.0, 2.0], jumps=[(2, 0.0), (3, 1.0)])
    assert _union_marks(a, b, a).tolist() == [1, 2, 3]
    assert _union_marks(a, b).dtype == np.intp
    assert _union_marks(a) is _union_marks(a, a) is a.jump_marks


def test_non_monotone_grid_rejected():
    with pytest.raises(PathError):
        make_path([0.0, 0.6, 0.5, 1.0], [0, 0, 0, 0])


def test_zero_size_jump_rejected():
    with pytest.raises(PathError):
        make_path([0.0, 0.5, 1.0], [0.0, 1.0, 1.0], jumps=[(1, 1.0)])


@pytest.mark.parametrize("idx,message", [
    (1.5, "not a whole number"), (float("inf"), "outside"), (float("nan"), "outside"),
    pytest.param(10 ** 400, "outside", id="beyond-float")])
def test_make_path_rejects_a_jump_index_that_is_not_a_whole_number(idx, message):
    with pytest.raises(PathError, match=f"jump index .* {message}"):
        make_path([0.0, 0.5, 1.0], [0.0, 1.0, 1.0], jumps=[(idx, 0.5)])


@pytest.mark.parametrize("idx", [1, 1.0, np.int64(1)])
def test_make_path_takes_a_whole_jump_index_of_any_type(idx):
    p = make_path([0.0, 0.5, 1.0], [0.0, 1.0, 1.0], jumps=[(idx, 0.5)])
    assert p.jumps() == [(0.5, 0.5)]


def test_constructor_rejects_a_jump_at_time_zero():
    with pytest.raises(PathError, match=r"X\(0-\) = X\(0\)"):
        CadlagPath(np.array([0.0, 0.5, 1.0]), np.array([1.0, 1.0, 1.0]),
                   np.array([0.0, 1.0, 1.0]))


@st.composite
def path_arrays(draw):
    """(grid, values, left_values, rule) of a path whose values change at a
    drawn set of indices, some of them by a jump of round-off size."""
    n = draw(st.integers(2, 40))
    grid = np.linspace(0.0, 1.0, n)
    rule = draw(st.sampled_from(("pc", "linear")))
    changed = draw(st.sets(st.integers(1, n - 1), max_size=n - 1))
    sizes = draw(st.lists(st.sampled_from((1.0, -0.3, 1e-300, 5e-324)),
                          min_size=n, max_size=n))
    steps = np.zeros(n)
    for i in changed:
        steps[i] = sizes[i]
    if rule == "pc":
        values = 0.25 + np.cumsum(steps)
        left = np.concatenate(([values[0]], values[:-1]))
    else:
        values = np.linspace(0.0, 1.0, n) + steps
        left = values - steps
    return grid, values, left, rule


@settings(max_examples=200, deadline=None)
@given(path_arrays(), st.sampled_from((-np.inf, np.inf)))
def test_jump_marks_are_the_indices_where_values_and_left_values_differ(case, toward):
    grid, values, left, rule = case
    p = CadlagPath(grid, values, left, rule=rule)
    assert np.array_equal(p.jump_marks, np.flatnonzero(values != left))
    assert p.jump_marks.dtype == np.intp
    moved = left.copy()
    moved[0] = np.nextafter(left[0], toward)  # X(0-) one ulp off X(0)
    with pytest.raises(PathError, match=r"X\(0-\) = X\(0\)"):
        CadlagPath(grid, values, moved, rule=rule)


def _csv(rows):
    return "t,value,left_value,is_jump\n" + "".join(
        f"{t!r},{v!r},{lv!r},{j}\n" for t, v, lv, j in rows)


@pytest.mark.parametrize("rows", [
    [(0.0, 0.0, 0.0, 0), (0.5, 1.0, 0.0, 0), (1.0, 1.0, 1.0, 0)],  # undeclared
    [(0.0, 0.0, 0.0, 0), (0.5, 1.0, 1.0, 1), (1.0, 1.0, 1.0, 0)],  # zero size
    [(0.0, 0.0, 0.0, 1), (0.5, 1.0, 0.5, 1), (1.0, 1.0, 1.0, 0)],  # at t = 0
])
def test_csv_rejects_declared_jumps_that_disagree_with_the_values(rows):
    with pytest.raises(PathError, match="declared jumps"):
        CadlagPath.from_csv(_csv(rows))
    CadlagPath.from_csv(_csv([(t, v, lv, int(v != lv)) for t, v, lv, _ in rows]))


@pytest.mark.parametrize("left, marks", [
    ([0.0, 0.5, 2.0], []),  # undeclared
    ([0.0, 1.0, 2.0], [1]),  # zero size
    ([0.0, 0.5, 2.0], [1, 2]),  # one declared jump has zero size
    ([0.0, 0.5, 1.5], [2, 1]),  # unsorted
    ([0.0, 0.5, 1.5], [1, 1, 2]),  # repeated
    ([0.0, 0.5, 2.0], [1, 3]),  # past the grid
    ([0.0, 0.5, 2.0], [1.5]),  # not an index
])
def test_json_rejects_declared_jumps_that_disagree_with_the_values(left, marks):
    d = {"schema_version": 1, "rule": "linear", "grid": [0.0, 0.5, 1.0],
         "values": [0.0, 1.0, 2.0], "left_values": left, "jump_marks": marks}
    with pytest.raises(PathError, match="declared jumps"):
        CadlagPath.from_json(json.dumps(d))
    d["jump_marks"] = np.flatnonzero(np.array(d["values"]) != left).tolist()
    text = json.dumps(d, sort_keys=True)
    assert CadlagPath.from_json(text).to_json() == text


_JSON_PATH = {"grid": [0.0, 1.0], "values": [0.0, 0.0], "left_values": [0.0, 0.0],
              "jump_marks": []}


@pytest.mark.parametrize("text", [
    "{not json", "[0.0, 1.0]",
    *(json.dumps({k: v for k, v in _JSON_PATH.items() if k != key}) for key in _JSON_PATH),
], ids=["not json", "list", *(f"no {key}" for key in _JSON_PATH)])
def test_json_rejects_documents_that_are_not_paths(text):
    with pytest.raises(PathError, match="must be an object with grid"):
        CadlagPath.from_json(text)


@pytest.mark.parametrize("key", _JSON_PATH)
def test_json_rejects_arrays_that_are_not_numbers(key):
    bad = "ab" if key == "jump_marks" else ["a", "b"]
    with pytest.raises(PathError, match="must be an object with grid"):
        CadlagPath.from_json(json.dumps({**_JSON_PATH, key: bad}))


def test_mismatched_lengths_rejected():
    with pytest.raises(PathError):
        make_path([0.0, 0.5, 1.0], [0.0, 1.0])


@pytest.mark.parametrize("rule", ["pc", "linear"])
def test_make_path_rejects_an_empty_grid(rule):
    with pytest.raises(PathError, match="at least two points"):
        make_path([], [], rule=rule)


def test_grid_must_start_at_zero():
    with pytest.raises(PathError):
        make_path([0.1, 1.0], [0.0, 0.0])


def test_right_continuity_and_extension():
    p = unit_step()
    assert p.value_at(0.5) == 1.0
    assert p.value_at(2.0) == 1.0  # extended past the horizon by continuity
    assert p.value_at(0.25) == 0.0


def test_left_limits():
    p = unit_step()
    assert p.left_limit(0.5) == 0.0
    assert p.left_limit(0.75) == 1.0
    assert p.left_limit(3.0) == 1.0
    with pytest.raises(PathError):
        p.left_limit(0.0)


def test_linear_interpolation():
    p = from_function(uniform_grid(1.0, 4), lambda t: t)
    assert p.value_at(0.25) == pytest.approx(0.25, abs=1e-15)
    assert p.value_at(0.3) == pytest.approx(0.3, abs=1e-15)


def test_linear_rule_never_crosses_marked_jump():
    # segment ends at the stored left value, then jumps
    grid = [0.0, 0.5, 1.0]
    p = make_path(grid, [0.0, 2.0, 2.0], jumps=[(1, 1.0)])
    assert p.value_at(0.25) == pytest.approx(0.5)
    assert p.left_limit(0.5) == 1.0
    assert p.value_at(0.5) == 2.0


def test_pc_left_values_follow_previous_value():
    with pytest.raises(PathError):
        make_path([0.0, 0.5, 1.0], [0.0, 1.0, 1.0], jumps=[(1, 0.5)], rule="pc")
    # unmarked change of value under pc rule is an undeclared jump
    with pytest.raises(PathError):
        make_path([0.0, 0.5, 1.0], [0.0, 1.0, 1.0], rule="pc")


def test_jump_round_trip():
    rng = np.random.default_rng(0)
    grid = uniform_grid(1.0, 50)
    jumps = [(7, None), (23, None), (41, None)]
    values = np.cumsum(rng.normal(0, 0.1, grid.size))
    spec = []
    for idx, _ in jumps:
        spec.append((idx, values[idx] - rng.uniform(0.5, 1.5)))
    p = make_path(grid, values, spec)
    assert [t for t, _ in p.jumps()] == [grid[i] for i, _ in spec]
    got = {t: s for t, s in p.jumps()}
    for idx, lv in spec:
        assert got[grid[idx]] == pytest.approx(values[idx] - lv)


def test_value_minus_left_zero_except_at_marks():
    p = unit_step()
    probes = np.linspace(0.01, 1.0, 97)
    v = p.value_at(probes)
    l = p.left_limit(probes)
    diff = v - l
    for t, d in zip(probes, diff):
        if abs(t - 0.5) < 1e-12:
            assert d == pytest.approx(1.0)
        else:
            assert d == 0.0
    rng = np.random.default_rng(11)
    grid = np.union1d(uniform_grid(1.0, 40), rng.uniform(0.0, 1.0, 20))
    values = np.cumsum(rng.normal(size=grid.size))
    linear = make_path(grid, values, [(i, values[i] - rng.normal()) for i in (7, 23, 41)])
    steps = np.cumsum(np.where(rng.random(grid.size) < 0.2, rng.normal(size=grid.size), 0.0))
    pc = CadlagPath(grid, steps, np.concatenate(([steps[0]], steps[:-1])), rule="pc")
    for q in (linear, pc):
        assert q.jump_marks.size >= 3
        probes = np.concatenate((rng.uniform(0.0, 1.0, 200), q.grid[1:], [1.0 + 1e-9, 2.0]))
        off = ~np.isin(probes, q.jump_times)
        assert np.array_equal(q.left_limit(probes[off]), q.value_at(probes[off]))
        assert np.array_equal(q.left_limit(q.jump_times), q.left_values[q.jump_marks])


def scalar_value_at(p, t):
    """X(t) by the documented rules, one point at a time in plain Python."""
    grid, v, left = p.grid.tolist(), p.values.tolist(), p.left_values.tolist()
    if t >= grid[-1]:
        return v[-1]
    i = max(k for k, g in enumerate(grid) if g <= t)
    if grid[i] == t or p.rule == "pc":
        return v[i]
    frac = (t - grid[i]) / (grid[i + 1] - grid[i])
    return v[i] + frac * (left[i + 1] - v[i])


def scalar_left_limit(p, t):
    """X(t-) for t > 0, one point at a time in plain Python."""
    grid, v, left = p.grid.tolist(), p.values.tolist(), p.left_values.tolist()
    if t > grid[-1]:
        return v[-1]
    j = min(k for k, g in enumerate(grid) if g >= t)
    if grid[j] == t:
        return left[j]
    i = j - 1
    if p.rule == "pc":
        return v[i]
    frac = (t - grid[i]) / (grid[i + 1] - grid[i])
    return v[i] + frac * (left[i + 1] - v[i])


@pytest.mark.parametrize("rule", ["linear", "pc"])
@pytest.mark.parametrize("seed", range(4))
def test_value_and_left_limit_match_scalar_oracle(rule, seed):
    rng = np.random.default_rng(seed)
    grid = np.union1d(uniform_grid(1.0, 16), rng.uniform(0.0, 1.0, 8))
    marks = np.unique(rng.integers(1, grid.size, 4))
    values = np.cumsum(rng.normal(size=grid.size))
    if rule == "pc":
        left = np.concatenate(([values[0]], values[:-1]))
    else:
        left = values.copy()
        left[marks] -= rng.uniform(0.5, 1.5, marks.size)
    p = CadlagPath(grid, values, left, rule=rule)
    assert p.jump_marks.size
    last = 0.5 * (grid[-2] + grid[-1])  # inside the last cell
    probes = np.concatenate((grid, rng.uniform(0.0, 1.0, 40),
                             [last, np.nextafter(1.0, 0.0), 1.0, 1.0 + 1e-9, 3.0]))
    want = np.array([scalar_value_at(p, t) for t in probes.tolist()])
    assert p.value_at(probes).tobytes() == want.tobytes()
    pos = probes[probes > 0.0]
    want = np.array([scalar_left_limit(p, t) for t in pos.tolist()])
    assert p.left_limit(pos).tobytes() == want.tobytes()
    for t in (0.0, grid[3], last, 1.0, 3.0):
        assert p.value_at(t) == scalar_value_at(p, t)
    for t in (grid[3], last, 1.0, 3.0):
        assert p.left_limit(t) == scalar_left_limit(p, t)


def test_two_jump_sum_of_squares():
    grid = uniform_grid(1.0, 10)
    values = np.zeros(grid.size)
    values[3:] += 2.0
    values[7:] += -1.0
    left = np.zeros(grid.size)
    left[4:] += 2.0
    left[8:] += -1.0
    left[3] = 0.0
    left[7] = 2.0
    p = CadlagPath(grid, values, left, rule="pc")
    assert p.sum_squared_jumps() == pytest.approx(5.0)


def test_csv_round_trip_bit_exact():
    rng = np.random.default_rng(3)
    grid = uniform_grid(1.0, 31)
    values = np.cumsum(rng.normal(size=grid.size)) * np.pi / 3.0
    linear = make_path(grid, values, [(11, float(values[11] - 0.7))])
    steps = np.repeat(values[::4], 4)[:grid.size]
    pc = CadlagPath(grid, steps, np.concatenate(([steps[0]], steps[:-1])), rule="pc")
    assert pc.jump_marks.size == 7
    for p in (linear, pc):
        text = p.to_csv()
        q = CadlagPath.from_csv(text)  # the rule comes from the "# rule=" header
        assert np.array_equal(p.grid, q.grid)
        assert np.array_equal(p.values, q.values)
        assert np.array_equal(p.left_values, q.left_values)
        assert np.array_equal(p.jump_marks, q.jump_marks)
        assert q.rule == p.rule
        assert q.to_csv() == text


def test_csv_writes_every_value_as_its_repr():
    # the edges of the float64 range, and the sign of zero, as Python's repr
    # writes them; the jump column as the ints 0 and 1
    big = 1.7976931348623157e308
    grid = [0.0, 5e-324, 1.0, 2.0]
    values = [-0.0, 5e-324, big, -big]
    left = [-0.0, 5e-324, 0.0, -big]
    p = CadlagPath(grid, values, left)
    text = p.to_csv()
    assert text.splitlines() == [
        "# rule=linear", "t,value,left_value,is_jump",
        "0.0,-0.0,-0.0,0",
        "5e-324,5e-324,5e-324,0",
        "1.0,1.7976931348623157e+308,0.0,1",
        "2.0,-1.7976931348623157e+308,-1.7976931348623157e+308,0"]
    q = CadlagPath.from_csv(text)
    for a in ("grid", "values", "left_values", "jump_marks"):
        assert getattr(q, a).tobytes() == getattr(p, a).tobytes()
    assert q.to_csv() == text


def test_json_round_trip():
    p = unit_step()
    q = CadlagPath.from_json(p.to_json())
    assert np.array_equal(p.values, q.values)
    assert np.array_equal(p.jump_marks, q.jump_marks)


def test_arithmetic_requires_shared_grid():
    p = unit_step()
    q = constant_path(uniform_grid(1.0, 7), 1.0)
    with pytest.raises(PathError):
        _ = p + q
    with pytest.raises(PathError, match="paths must share a grid"):
        _ = p + step_path(1.0, 7, 0.5)


@pytest.mark.parametrize("n", [0, 1])
def test_step_path_takes_the_one_grid_rule(n):
    with pytest.raises(PathError, match="need at least two grid cells"):
        step_path(1.0, n, 0.5)
    assert step_path(1.0, 2, 0.5).horizon == 1.0


@pytest.mark.parametrize("other", [1.0, "a"])
@pytest.mark.parametrize("op", ["add", "sub"])
def test_arithmetic_with_a_non_path_is_a_type_error(op, other):
    # a path adds only paths; scale by a number with *
    with pytest.raises(TypeError):
        _ = unit_step() + other if op == "add" else unit_step() - other


def test_jump_cancellation_in_differences():
    p = unit_step()
    z = p - p
    assert z.sup_norm() == 0.0
    assert z.jumps() == []


def test_scalar_multiple_scales_jumps():
    p = unit_step()
    q = 3.0 * p
    assert q.jumps() == [(0.5, 3.0)]


def test_immutability():
    p = unit_step()
    with pytest.raises(ValueError):
        p.values[0] = 42.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    grid = [0.0, 0.5, 1.0]
    with pytest.raises(PathError, match="finite"):
        CadlagPath(grid, [0.0, bad, 1.0], [0.0, bad, 1.0])
    with pytest.raises(PathError, match="finite"):
        CadlagPath(grid, [0.0, bad, 1.0], [0.0, 0.0, 1.0])
    with pytest.raises(PathError, match="finite"):
        CadlagPath([0.0, bad, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])


def test_nan_time_rejected():
    p = unit_step()
    for query in (p.value_at, p.left_limit):
        with pytest.raises(PathError):
            query(np.nan)
        with pytest.raises(PathError):
            query(np.array([0.2, np.nan]))


@pytest.mark.parametrize("row", ["0.5,1.0,0.0", "0.5,abc,0.0,1", "0.5,1.0,0.0,1,7",
                                 "0.5,1.0,0.0,yes"])
def test_csv_malformed_row_names_the_line(row):
    lines = unit_step().to_csv().splitlines()
    assert lines[3].startswith("0.5,")
    lines[3] = row
    with pytest.raises(PathError, match="line 4"):
        CadlagPath.from_csv("\n".join(lines))


# -- derived paths share their grid and check only their samples -------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_derived_arithmetic_that_overflows_is_rejected():
    # a derived path checks its values everywhere and its lefts at its rows
    P = make_path([0.0, 0.5, 1.0], [1.2, 1.5, 1.5], [(1, 1.3)])
    assert np.all(np.isfinite((P * 1e308).values))
    with pytest.raises(PathError, match="must be finite"):
        P * 1e308 + P * 1e308
    # finite values, a left limit that overflows at the jump row
    Q = make_path([0.0, 0.5, 1.0], [0.5, 0.5, 0.5], [(1, 1.6)])
    with pytest.raises(PathError, match="must be finite"):
        Q * 1e308 + Q * 1e308


def test_derived_paths_hold_the_grid_they_come_from():
    P = make_path([0.0, 0.5, 1.0], [0.0, 1.0, 1.0], [(1, 0.0)])
    for D in (P + P, P - 2.0 * P, -P):
        assert D.grid is P.grid
        assert D.min_spacing == P.min_spacing
        assert D.same_grid(P) and P.same_grid(D)


def test_the_shared_grid_rule_compares_another_grid_array_by_value():
    P = make_path([0.0, 0.5, 1.0], [0.0, 1.0, 1.0], [(1, 0.0)])
    equal = CadlagPath(P.grid.copy(), [2.0, 3.0, 4.0])
    assert equal.grid is not P.grid
    _require_shared_grid(P, equal)
    assert (P + equal).values.tolist() == [2.0, 4.0, 5.0]
    nudged = CadlagPath([0.0, np.nextafter(0.5, 1.0), 1.0], [2.0, 3.0, 4.0])
    with pytest.raises(PathError, match="share a grid"):
        _require_shared_grid(P, nudged)
    with pytest.raises(PathError, match="share a grid"):
        P + nudged


def _every_path(obj, out):
    if isinstance(obj, CadlagPath):
        out.append(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            _every_path(v, out)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _every_path(v, out)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _every_path(getattr(obj, f.name), out)
    return out


def test_marks_from_rows_are_the_indices_where_values_and_lefts_differ(monkeypatch):
    # every path of the fingerprint's paths, kernels and identities groups:
    # the builder marks the rows whose left differs, which must be every
    # index where the two arrays differ
    import fingerprint

    seen = []
    monkeypatch.setattr(fingerprint.Fingerprint, "add",
                        lambda self, group, obj: _every_path(obj, seen))
    fp, cases = fingerprint.Fingerprint(), fingerprint._paths()
    for group in (fingerprint.paths_group, fingerprint.kernels_group,
                  fingerprint.identities_group):
        group(fp, cases)
    assert len(seen) > 500
    assert sum(P.jump_marks.size > 0 for P in seen) > 200
    for P in seen:
        want = np.flatnonzero(P.values != P.left_values)
        assert P.jump_marks.dtype == want.dtype
        assert np.array_equal(P.jump_marks, want)
