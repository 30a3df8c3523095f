"""The batched single-solve evaluator against the serial recursion it replaced.

``support.ReferenceCache`` propagates one set at a time with the
two-inverse update post = inv(inv(prior) + J); every value and every
selection answer of the batched ``ObjectiveCache`` must agree with it.
"""

from dataclasses import replace

import numpy as np
import pytest

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
    scenario = support.big_random_scenario(5, sensors=9, state_dim=8, horizon=4)
    scenario, sol, cache = support.solved(scenario)
    assert 2 ** 9 > 3 * kalman._batch_size(8)
    ref = support.ReferenceCache(scenario, sol)
    _assert_values_match(cache, ref, _mixed_batch(9, 0))


def test_value_of_a_set_does_not_depend_on_its_batch():
    for seed in range(6):
        scenario, sol, batched = support.solved(support.random_scenario(seed + 1450))
        single = lq.ObjectiveCache(scenario, sol)
        sets = _all_sets(len(scenario.suite))
        assert batched.f_many(sets) == [single.f(s) for s in sets]
        assert batched.logdet_many(sets) == [single.logdet(s) for s in sets]


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
    scale = max(abs(v) for v in ref.f_many([(), scenario.suite.ids]) + ref.logdet_many([()]))
    routines = [lq.greedy_budget, lq.greedy_mincost, lq.baseline_logdet,
                lq.oracle_budget, lq.oracle_mincost]
    for routine in routines:
        _assert_same_report(routine(scenario, sol, cache), routine(scenario, sol, ref), scale)
    gamma, witness = lq.exact_supermodularity_ratio(scenario, sol, cache, max_sensors=9)
    ref_gamma, ref_witness = lq.exact_supermodularity_ratio(scenario, sol, ref, max_sensors=9)
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


def test_mixed_batch_raises_at_the_singular_step():
    scenario, sol, cache = support.solved(support.singular_prediction_scenario())
    with pytest.raises(lq.NumericalError, match="time index 1"):
        cache.f_many([(), (0,)])
    # the empty set takes the identity update and never checks the prior
    assert cache.f_many([()]) == [lq.sensing_objective(sol, lq.propagate_covariance(scenario, ()))]


def test_memo_hit_does_not_propagate(monkeypatch):
    scenario, sol, cache = support.solved(support.random_scenario(1460, max_sensors=6))
    calls = []
    steps = kalman._steps
    monkeypatch.setattr(kalman, "_steps", lambda *args: calls.append(1) or steps(*args))
    sets = _all_sets(len(scenario.suite))
    first = cache.f_many(sets)
    assert calls
    entries = len(cache._f)
    calls.clear()
    again = cache.f_many([tuple(sorted(s, reverse=True)) for s in reversed(sets)])
    assert calls == []
    assert len(cache._f) == entries
    assert again == first[::-1]
