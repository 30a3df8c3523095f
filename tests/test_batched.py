"""The batched single-solve evaluator against the serial recursion it replaced.

``support.ReferenceCache`` propagates one set at a time with the
two-inverse update post = inv(inv(prior) + J); every value and every
selection answer of the batched ``ObjectiveCache`` must agree with it.
``support.PerMaskCache`` propagates every set on its own, before the
memo by information class; the class memo must give its bits exactly.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqgcodesign as lq
from lqgcodesign import kalman

import support

REL = 1e-12


def _all_sets(count: int) -> list[frozenset]:
    return [frozenset(i for i in range(count) if mask >> i & 1) for mask in range(1 << count)]


def _mixed_batch(count: int, seed: int) -> list:
    """Every subset, shuffled, plus duplicates and the empty set in other spellings."""
    rng = np.random.default_rng(seed)
    sets = _all_sets(count)
    order = rng.permutation(len(sets))
    batch = [sets[j] for j in order]
    batch += [tuple(sorted(sets[j], reverse=True)) for j in order[: len(order) // 2]]
    batch += [(), frozenset(), list(range(count))]
    return batch


def _assert_values_match(cache, ref, batch):
    batch = [support.mask_of(ids) for ids in batch]
    np.testing.assert_allclose(cache.f_many(batch), ref.f_many(batch), rtol=REL, atol=0.0)
    np.testing.assert_allclose(cache.logdet_many(batch), ref.logdet_many(batch),
                               rtol=REL, atol=REL * np.max(np.abs(ref.logdet_many(batch))))


@pytest.mark.parametrize("seed", range(12))
def test_values_match_serial_reference_across_chunks(seed, monkeypatch):
    scenario, sol, cache = support.solved(support.random_scenario(seed + 1400))
    n = scenario.state_dim
    monkeypatch.setattr(kalman, "_BATCH_FLOATS", 3 * n * n)
    assert kalman._batch_size(n) == 3
    ref = support.ReferenceCache(scenario, sol)
    _assert_values_match(cache, ref, _mixed_batch(len(scenario.suite), seed))


def test_values_match_serial_reference_at_default_batch_size():
    scenario = support.big_random_scenario(5, sensors=11, state_dim=8, horizon=4)
    scenario, sol, cache = support.solved(scenario)
    assert 2 ** 11 > 3 * kalman._batch_size(8)
    ref = support.ReferenceCache(scenario, sol)
    _assert_values_match(cache, ref, _mixed_batch(11, 0))


@pytest.mark.parametrize("n, want", [(6, 256), (16, 256), (32, 64), (64, 16), (300, 1)])
def test_batch_size_caps_sets_and_floats(n, want):
    k = kalman._batch_size(n)
    assert k == want
    assert 1 <= k <= kalman._BATCH_SETS
    assert k * n * n <= max(kalman._BATCH_FLOATS, n * n)


def test_greedy_candidates_on_formation_a8_do_not_depend_on_the_batch(monkeypatch):
    """The first three greedy steps' candidates, one batch per step against one set per batch."""
    scenario, sol, cache = support.solved(lq.build_formation_scenario(8, 20, "heterogeneous", 7))
    n = scenario.state_dim
    added = [r.added for r in lq.greedy_budget(cache, 8.0).iterations[:3]]
    masks = []
    for step in range(3):
        prefix = support.mask_of(added[:step])
        masks += [prefix | 1 << i for i in scenario.suite.ids if not prefix >> i & 1]
    assert len(masks) > 2 * kalman._batch_size(n)
    default = lq.ObjectiveCache(scenario, sol)
    want = default.f_many(masks), default.logdet_many(masks)
    monkeypatch.setattr(kalman, "_BATCH_FLOATS", n * n)
    assert kalman._batch_size(n) == 1
    single = lq.ObjectiveCache(scenario, sol)
    got = single.f_many(masks), single.logdet_many(masks)
    for values, reference in zip(got, want):
        assert np.array(values).view(np.int64).tolist() == np.array(reference).view(
            np.int64).tolist()


def test_value_of_a_set_does_not_depend_on_its_batch():
    for seed in range(6):
        scenario, sol, batched = support.solved(support.random_scenario(seed + 1450))
        single = lq.ObjectiveCache(scenario, sol)
        sets = _all_sets(len(scenario.suite))
        masks = [support.mask_of(s) for s in sets]
        assert batched.f_many(masks) == [single.f(s) for s in sets]
        assert batched.logdet_many(masks) == [single.logdet(s) for s in sets]


def _assert_same_report(got, want, scale):
    assert got.chosen == want.chosen
    assert got.removed == want.removed
    assert got.last_added == want.last_added
    assert [r.added for r in got.iterations] == [r.added for r in want.iterations]
    assert [c.ids for c in got.candidates] == [c.ids for c in want.candidates]

    def floats(report):
        values = [report.objective_f, report.lqg_cost_g, report.prefix_f or 0.0]
        values += [c.objective for c in report.candidates]
        for r in report.iterations:
            values += [r.gain, r.objective_after]
        return values

    np.testing.assert_allclose(floats(got), floats(want), rtol=REL, atol=REL * scale)


def _ratio_key(witness):
    if witness is None:
        return None
    return witness.subset, witness.superset, witness.sensor


def _check_against_reference(scenario):
    scenario, sol, cache = support.solved(scenario)
    ref = support.ReferenceCache(scenario, sol)
    full = support.mask_of(scenario.suite.ids)
    scale = max(abs(v) for v in ref.f_many([0, full]) + ref.logdet_many([0]))
    routines = [(lq.greedy_budget, scenario.budget), (lq.greedy_mincost, scenario.kappa),
                (lq.baseline_logdet, scenario.budget), (lq.oracle_budget, scenario.budget),
                (lq.oracle_mincost, scenario.kappa)]
    for routine, limit in routines:
        _assert_same_report(routine(cache, limit), routine(ref, limit), scale)
    gamma, witness = lq.exact_supermodularity_ratio(cache, max_sensors=9)
    ref_gamma, ref_witness = lq.exact_supermodularity_ratio(ref, max_sensors=9)
    assert _ratio_key(witness) == _ratio_key(ref_witness)
    assert gamma == pytest.approx(ref_gamma, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("unit_costs", [False, True])
def test_selections_match_serial_reference(unit_costs):
    for seed in range(25):
        base = support.random_scenario(seed + 1500, with_budget=True, unit_costs=unit_costs)
        _check_against_reference(support.with_feasible_kappa(*support.solved(base), seed=seed))


def test_benchmark_families_match_serial_reference():
    # symmetric agents give exact ties, which must still break to the smallest id
    for mode in ("homogeneous", "heterogeneous"):
        for seed in range(2):
            for scenario in (lq.build_formation_scenario(3, 6, mode, seed),
                             lq.build_uav_scenario(4, 6, "uniform" if mode == "homogeneous"
                                                   else mode, seed)):
                scenario = replace(scenario, budget=3.0)
                _check_against_reference(
                    support.with_feasible_kappa(*support.solved(scenario), seed=seed))


@pytest.mark.parametrize("build", [support.singular_prediction_scenario,
                                   support.singular_prior_uav_scenario])
def test_mixed_batch_with_a_singular_prior(build):
    # the empty set and a sensed set share one update, whatever the prior's rank
    scenario, sol, cache = support.solved(build())
    sets = [(), (0,)]
    batched = cache.f_many(map(support.mask_of, sets))
    assert batched == [support.solved(scenario)[2].f(ids) for ids in sets]
    for ids, value in zip(sets, batched):
        assert value == pytest.approx(support.joseph_objective(scenario, sol, ids),
                                      rel=1e-12, abs=0.0)


def test_memo_hit_does_not_propagate(monkeypatch):
    scenario, sol, cache = support.solved(support.random_scenario(1460, max_sensors=6))
    calls = []
    steps = kalman._steps
    monkeypatch.setattr(kalman, "_steps", lambda *args: calls.append(1) or steps(*args))
    sets = _all_sets(len(scenario.suite))
    masks = [support.mask_of(s) for s in sets]
    first = cache.f_many(masks)
    first_logdet = cache.logdet_many(masks)
    assert calls
    entries = len(cache._f), len(cache._logdet)
    calls.clear()
    assert cache.f_many(masks[::-1]) == first[::-1]
    # the single-set calls take ids in any order and hit the same memo
    again = [cache.f(tuple(sorted(s, reverse=True))) for s in reversed(sets)]
    again_logdet = [cache.logdet(tuple(sorted(s, reverse=True))) for s in reversed(sets)]
    assert calls == []
    assert (len(cache._f), len(cache._logdet)) == entries
    assert again == first[::-1]
    assert again_logdet == first_logdet[::-1]


def _assert_same_bits_as_per_mask(scenario, masks):
    scenario, sol, cache = support.solved(scenario)
    ref = support.PerMaskCache(scenario, sol)
    assert cache.f_many(masks) == ref.f_many(masks)
    assert cache.logdet_many(masks) == ref.logdet_many(masks)
    # the reference holds a value per mask; the relative sensors (i, j) and
    # (j, i) share one class, so the cache holds fewer
    assert len(cache._f) < len(ref._f) == len(set(masks))


@pytest.mark.parametrize("mode", ["homogeneous", "heterogeneous"])
def test_class_memo_matches_the_per_mask_memo_on_formation_a3(mode):
    scenario = lq.build_formation_scenario(3, 20, mode, 7)
    _assert_same_bits_as_per_mask(scenario, range(1 << 9))


def test_class_memo_matches_the_per_mask_memo_on_formation_a4():
    scenario = lq.build_formation_scenario(4, 20, "heterogeneous", 7)
    small = [mask for mask in range(1 << 16) if mask.bit_count() <= 3]
    sample = np.random.default_rng(12).integers(0, 1 << 16, size=1024).tolist()
    _assert_same_bits_as_per_mask(scenario, small + sample)


@settings(max_examples=20)
@given(seed=st.integers(0, 10 ** 6), copies=st.integers(3, 4), data=st.data())
def test_equal_class_multisets_give_equal_bits(seed, copies, data):
    scenario, twins = support.duplicated_sensor_scenario(seed, copies)
    count = len(scenario.suite)

    def multiset(mask):
        return tuple(sorted(twins[0] if i in twins else i for i in kalman._mask_ids(mask)))

    masks = data.draw(st.lists(st.integers(0, (1 << count) - 1), min_size=1, max_size=24))
    # each mask with a partner: its twins swapped for others of the same count
    for mask in list(masks):
        inside = [i for i in twins if mask >> i & 1]
        swapped = data.draw(st.permutations(twins))[:len(inside)]
        others = mask & ~support.mask_of(twins)
        masks.append(others | support.mask_of(swapped))
    values = {}
    for round_ in range(3):
        order = data.draw(st.permutations(masks))
        split = data.draw(st.integers(0, len(order)))
        cache = support.solved(scenario)[2]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kalman, "_BATCH_FLOATS", scenario.state_dim ** 2 * (1 + round_))
            for part in (order[:split], order[split:]):
                for mask, f, logdet in zip(part, cache.f_many(part), cache.logdet_many(part)):
                    values.setdefault(multiset(mask), set()).add((f, logdet))
    assert all(len(seen) == 1 for seen in values.values())


def test_trajectory_sums_information_as_the_objective_does():
    # with three or more copies of a sensor, ascending id order and class order round apart
    for seed in range(30):
        scenario, _ = support.duplicated_sensor_scenario(seed, 3)
        cache = support.solved(scenario)[2]
        for mask in range(1 << len(scenario.suite)):
            ids = kalman._mask_ids(mask)
            traj = cache.trajectory(ids)
            assert lq.sensing_objective(cache.sol, traj) == cache.f(ids), (seed, ids)


def _bits(array) -> list:
    return np.ascontiguousarray(array).view(np.int64).tolist()


@pytest.mark.parametrize("batch_sets", [256, 2])
def test_batched_trajectories_are_each_sets_own(monkeypatch, batch_sets):
    # every subset, the empty set included, in batches by update form and row
    # count; a cap of two sets cuts each stream into several batches
    monkeypatch.setattr(kalman, "_BATCH_SETS", batch_sets)
    scenarios = [support.mixed_form_scenario(seed) for seed in range(3)]
    scenarios += [support.per_step_sensor_scenario(seed) for seed in range(4)]
    scenarios += [lq.build_uav_scenario(2, 5, "heterogeneous", 1)]
    for scenario in scenarios:
        cache = support.solved(scenario)[2]
        masks = list(range(1 << len(scenario.suite)))[::-1]
        seen, sizes = [], []
        for batch, priors, posts in cache.trajectories(masks):
            for j, prior, post in zip(batch, priors, posts):
                want = cache.trajectory(support.mask_ids(masks[j]))
                assert _bits(prior) == _bits(want.priors), masks[j]
                assert _bits(post) == _bits(want.posteriors), masks[j]
            seen.extend(batch)
            sizes.append(len(batch))
        assert sorted(seen) == list(range(len(masks)))
        assert 1 < max(sizes) <= batch_sets  # sets share batches, up to the cap
    # the mixed suite's streams: the information form, then P = 2, 4 and 6
    cache = support.solved(scenarios[0])[2]
    streams = cache._streams(list(range(16)))
    assert [len(stream) for stream in streams] == [2, 4, 6, 4]
