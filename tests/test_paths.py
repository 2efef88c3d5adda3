import numpy as np
import pytest

from pathcalc.paths import (CadlagPath, PathError, constant_path, from_arrays,
                            make_path, uniform_grid)

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


def test_non_monotone_grid_rejected():
    with pytest.raises(PathError):
        make_path([0.0, 0.6, 0.5, 1.0], [0, 0, 0, 0])


def test_zero_size_jump_rejected():
    with pytest.raises(PathError):
        make_path([0.0, 0.5, 1.0], [0.0, 1.0, 1.0], jumps=[(1, 1.0)])


def test_mismatched_lengths_rejected():
    with pytest.raises(PathError):
        make_path([0.0, 0.5, 1.0], [0.0, 1.0])


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
    pc = from_arrays(grid, steps, np.concatenate(([steps[0]], steps[:-1])), rule="pc")
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
    p = from_arrays(grid, values, left, rule=rule)
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
    p = from_arrays(grid, values, left, rule="pc")
    assert p.sum_squared_jumps() == pytest.approx(5.0)


def test_csv_round_trip_bit_exact():
    rng = np.random.default_rng(3)
    grid = uniform_grid(1.0, 31)
    values = np.cumsum(rng.normal(size=grid.size)) * np.pi / 3.0
    linear = make_path(grid, values, [(11, float(values[11] - 0.7))])
    steps = np.repeat(values[::4], 4)[:grid.size]
    pc = from_arrays(grid, steps, np.concatenate(([steps[0]], steps[:-1])), rule="pc")
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
        from_arrays(grid, [0.0, bad, 1.0], [0.0, bad, 1.0])
    with pytest.raises(PathError, match="finite"):
        from_arrays(grid, [0.0, bad, 1.0], [0.0, 0.0, 1.0])
    with pytest.raises(PathError, match="finite"):
        from_arrays([0.0, bad, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])


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
