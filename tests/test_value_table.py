"""The array path of the objective cache, ``f_table``, against ``f_many``.

``f_table`` keys its masks in numpy and propagates only the class
multisets its memo lacks, through the same kernels and batches as
``f_many``; both share one memo.  Every value must equal ``f_many``'s to
the bit, and every refusal must carry ``f_many``'s type and message.
"""

import contextlib
import io
import re

import numpy as np
import pytest

import lqgcodesign as lq
from lqgcodesign import cli, kalman

import support


def _shuffled_with_repeats(masks, seed):
    """The masks in a seeded order, with a third of them asked again."""
    rng = np.random.default_rng(seed)
    masks = np.asarray(masks, dtype=np.int64)
    return rng.permutation(np.concatenate([masks, rng.choice(masks, len(masks) // 3)]))


def _multisets(cache, masks):
    return {support.class_key(int(mask), cache._class) for mask in masks}


def _counting_propagation(monkeypatch):
    """A list that receives the multiset keys of each ``ObjectiveCache._fill`` call."""
    filled = []
    fill = kalman.ObjectiveCache._fill

    def counted(self, functional, keys, *asked):
        filled.append(keys.tolist())
        return fill(self, functional, keys, *asked)

    monkeypatch.setattr(kalman.ObjectiveCache, "_fill", counted)
    return filled


def _assert_table_is_f_many(scenario, masks, monkeypatch):
    _, _, by_table = support.solved(scenario)
    _, _, by_list = support.solved(scenario)
    table = by_table.f_table(masks)
    assert table.dtype == np.float64 and table.shape == masks.shape
    listed = by_list.f_many(masks.tolist())
    assert table.tobytes() == np.array(listed).tobytes()
    # one memo serves both paths, asked in either order
    filled = _counting_propagation(monkeypatch)
    assert by_table.f_many(masks.tolist()) == listed
    assert by_list.f_table(masks).tobytes() == table.tobytes()
    assert filled == []
    assert support.memo(by_table) == support.memo(by_list)
    assert len(support.memo(by_table)) == len(_multisets(by_table, masks))


@pytest.mark.parametrize("build, sample", [
    (lambda: lq.build_formation_scenario(3, 20, "heterogeneous", 7), None),
    (lambda: lq.build_formation_scenario(4, 20, "heterogeneous", 7), 2000),
    (lambda: lq.build_uav_scenario(9, 20, "heterogeneous", 7), None),
    *((lambda seed=seed: support.per_step_sensor_scenario(seed), None) for seed in range(3)),
], ids=["formation-a3", "formation-a4", "uav-a9", "per-step0", "per-step1", "per-step2"])
def test_table_matches_f_many_bit_for_bit(build, sample, monkeypatch):
    scenario = build()
    count = len(scenario.suite)
    if sample is None:
        masks = np.arange(1 << count)
    else:  # formation a4's relative sensors (i, j) and (j, i) share a class
        masks = np.random.default_rng(11).integers(0, 1 << count, sample)
    _assert_table_is_f_many(scenario, _shuffled_with_repeats(masks, count), monkeypatch)


@pytest.mark.parametrize("seed", range(20))
def test_table_matches_f_many_on_random_scenarios(seed, monkeypatch):
    scenario = support.random_scenario(seed + 2400)
    masks = _shuffled_with_repeats(np.arange(1 << len(scenario.suite)), seed)
    _assert_table_is_f_many(scenario, masks, monkeypatch)


def test_table_takes_masks_of_any_integer_dtype():
    scenario, _, cache = support.solved(support.random_scenario(2450))
    full = np.arange(1 << len(scenario.suite))
    want = cache.f_table(full)
    for masks in (full.astype(np.uint16), full.astype(np.int32), full.astype(np.uint64),
                  list(full.tolist()), np.array(full.tolist(), dtype=object)):
        assert cache.f_table(masks).tobytes() == want.tobytes()
    assert cache.f_table([]).shape == (0,)


def _refusal(call, masks):
    with pytest.raises(Exception) as caught:
        call(masks)
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("masks", [
    [1, -1], [0b100, -1], [1, 0b100], [0b100011], [1 << 70 | 1 << 71], [1.0], [np.int64(0b100)],
    np.array([3, 1 << 63], dtype=np.uint64), np.array([0.0, 1.0]),
], ids=["negative", "past-then-negative", "past", "past-at-5", "past-at-70", "float",
        "numpy-int", "uint64-bit-63", "float-array"])
def test_table_refuses_a_mask_as_f_many_does(masks):
    _, _, by_table = support.solved(support.scalar_two_sensor_scenario())
    _, _, by_list = support.solved(support.scalar_two_sensor_scenario())
    got = _refusal(by_table.f_table, masks)
    assert got == _refusal(by_list.f_many, masks)
    assert got[0] in (lq.ValidationError, TypeError)
    assert support.memo(by_table) == support.memo(by_list) == {}


@pytest.mark.parametrize("masks, named", [
    ([0b010], "[1]"), ([0b100, 0b010], "[2]"), ([0b110, 0b011], "[1, 2]"),
    ([0b001, 0b111, 0b010], "[0]"),
])
def test_table_names_the_first_mask_of_a_set_that_is_not_finite(masks, named):
    # three bit-identical sensors are class 0: each multiset is propagated once,
    # named by the first mask that asked for it, and no value is memoized
    data = support.overflowing_scenario_dict()
    data.update(horizon=16, sensors=[{"id": i, "C": [[1e-160]], "V": [[1.0]], "cost": 1.0}
                                     for i in range(3)])
    message = f"objective of sensor set {named} is not finite (inf)"
    for call in ("f_table", "f_many"):
        cache = support.solved(lq.scenario_from_dict(data))[2]
        with pytest.raises(lq.NumericalError, match=re.escape(message)):
            getattr(cache, call)(np.array(masks) if call == "f_table" else masks)
        assert support.memo(cache) == {}


def _bound_argv(tmp_path, scenario, problem):
    path = tmp_path / "scenario.json"
    lq.save_scenario(scenario, path)
    _, _, cache = support.solved(scenario)
    if problem == "budget":
        limit = ("--budget", "3.0")
    else:  # the cap of the certify-uav9 workload
        f_empty, f_all = cache.f(()), cache.f(scenario.suite.ids)
        limit = ("--kappa", repr(cache.offset + f_all * (f_empty / f_all) ** 0.005))
    cap = str(len(scenario.suite))
    return ["bound", problem, "--scenario", str(path), *limit, "--ratio-cap", cap]


@pytest.mark.parametrize("problem", ["budget", "mincost"])
@pytest.mark.parametrize("build", [
    lambda: lq.build_formation_scenario(3, 20, "heterogeneous", 7),
    lambda: lq.build_uav_scenario(5, 20, "heterogeneous", 7),
], ids=["formation-a3", "uav-a5"])
def test_bound_propagates_each_multiset_once(tmp_path, monkeypatch, build, problem):
    scenario = build()
    argv = _bound_argv(tmp_path, scenario, problem)
    caches = []
    monkeypatch.setattr(cli, "_solved", lambda s: caches.append(lq.ObjectiveCache(
        s, lq.solve_riccati(s.system, s.weights))) or caches[-1])
    filled = _counting_propagation(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    # the ratio's table is filled first, in one call; greedy and the oracle only read it
    (cache,) = caches
    distinct = _multisets(cache, range(1 << len(scenario.suite)))
    (keys,) = filled
    assert len(keys) == len(set(keys)) == len(distinct) == len(support.memo(cache))


@pytest.mark.parametrize("call, task", [
    (lambda cache: lq.oracle_budget(cache, 8.0, max_sensors=64), "brute force"),
    (lambda cache: lq.oracle_mincost(cache, cache.offset, max_sensors=64), "brute force"),
    (lambda cache: lq.exact_supermodularity_ratio(cache, max_sensors=64), "exact ratio"),
], ids=["oracle-budget", "oracle-mincost", "exact-ratio"])
def test_an_enumeration_past_62_sensors_is_refused(call, task):
    # formation a8 has 64 sensors: its masks would not fit an int64
    scenario, _, cache = support.solved(lq.build_formation_scenario(8, 2, "heterogeneous", 7))
    assert len(scenario.suite) == 64
    with pytest.raises(ValueError, match=re.escape(
            f"{task} over 64 sensors exceeds the 62 sensors a value table can index")):
        call(cache)
    with pytest.raises(ValueError, match="a value table indexes at most 62 sensors, not 64"):
        cache.f_table(np.arange(4))
    assert support.memo(cache) == {}


@pytest.mark.parametrize("flags", [
    ["select", "budget", "--budget", "8", "--method", "oracle", "--oracle-cap", "64"],
    ["ratio", "--ratio-cap", "64"],
    ["bound", "budget", "--budget", "8", "--ratio-cap", "64"],
])
def test_the_cli_refuses_an_enumeration_past_62_sensors(tmp_path, capsys, flags):
    path = tmp_path / "a8.json"
    lq.save_scenario(lq.build_formation_scenario(8, 2, "heterogeneous", 7), path)
    assert cli.main([*flags, "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "over 64 sensors exceeds the 62 sensors a value table can index" in captured.err
