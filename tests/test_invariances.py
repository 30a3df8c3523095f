"""Metamorphic tests: invariances the co-design problem has exactly, checked to roundoff.

Each property holds exactly in exact arithmetic; the separation principle of
the source paper (Tzoumas, Carlone, Pappas & Jadbabaie, arXiv 1802.08376)
gives the first three.

* Noise scale: W, sigma_init and every V times k scale f by k and leave the
  supermodularity ratio gamma and the selections as they are, for k down
  to 1e-10, near where the loader's positive-definiteness floor rejects V.
* Cost scale: Q and R times k scale f by k and leave the regulator gains K,
  gamma and the selections as they are.
* Coordinates: x' = T x with an orthogonal T leaves f and gamma as they are.
* Relabelling: permuting the sensor ids carries every set's value over.

The first two fixed benchmark instances get every property; hypothesis-drawn
small random instances, up to 5 sensors, get the noise scale and a drawn
relabelling on the value table and gamma.

None of the four moves the greedy budget certificate against the oracle: its
left side is a ratio of f differences, its right side a function of gamma.

gamma is asserted, not its witness, which can tie.  The spectral bound's
hypotheses are asserted as they are defined: ``normalized_sensors`` and
``trace_dominated`` are not scale-invariant, so a noise scale leaves them
unchecked.  The bound's value is not compared: it multiplies smallest
eigenvalues, which ``eigvalsh`` gives only to roundoff of the largest, and
the summed theta of UAV a5 has condition number 1.6e7, so a rotation moves
the value by 3e-10 relative and a cost scale by 8e-11.  Values are compared
by relative tolerance.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqgcodesign as lq

import support

HORIZON = 10
BUDGET = 4.0
# relative tolerances, forty times or more the worst deviation seen (a rotation:
# 2.3e-13 on f and 1.3e-12 on gamma, on formation a3)
F_RTOL = 1e-11
GAMMA_RTOL = 1e-10
# the certificate's left side, formed from f, moved by at most 2.2e-16; formed
# from g it lost digits to the cost offset, 1.8e-7 at a noise scale of 1e-10
CERT_LHS_RTOL = 1e-12


def _instances():
    formation = lq.build_formation_scenario(3, HORIZON, "heterogeneous", seed=7)
    uav = lq.build_uav_scenario(5, HORIZON, "heterogeneous", seed=7)
    return {"formation-a3": replace(formation, budget=BUDGET),
            "uav-a5": replace(uav, budget=BUDGET)}


@pytest.fixture(scope="module", params=["formation-a3", "uav-a5"])
def instance(request):
    scenario = _instances()[request.param]
    return request.param, scenario, _answers(scenario)


def _table_and_gamma(cache):
    """The 2^n value table of the cache's sensor sets and their exact gamma."""
    count = len(cache.scenario.suite)
    table = np.array(cache.f_many(range(1 << count)))
    return table, lq.exact_supermodularity_ratio(cache, count)[0]


def _answers(scenario):
    """Everything the properties compare: the 2^n value table, gamma, the hypotheses, the sets."""
    scenario, sol, cache = support.solved(scenario)
    table, gamma = _table_and_gamma(cache)
    greedy = lq.greedy_budget(cache, scenario.budget)
    oracle = lq.oracle_budget(cache, scenario.budget)
    return {
        "sol": sol,
        "cache": cache,
        "table": table,
        "offset": cache.offset,
        "gamma": gamma,
        "hypotheses": lq.ratio_lower_bound(cache)[1],
        "greedy": greedy,
        "oracle": oracle,
        "certificate": lq.budget_certificate(greedy, gamma, cache.f(()), oracle.objective_f),
    }


def _rebuilt(scenario, system=None, sensors=None, weights=None):
    """The scenario with some of its parts replaced, validated again."""
    suite = scenario.suite
    if sensors is not None:
        suite = lq.SensorSuite(sensors=tuple(sensors), state_dim=suite.state_dim)
    return replace(scenario, system=system or scenario.system, suite=suite,
                   weights=weights or scenario.weights)


def _noise_scaled(scenario, k):
    """W, sigma_init and every V times k."""
    system = scenario.system
    return _rebuilt(
        scenario,
        system=replace(system, W=k * system.W, sigma_init=k * system.sigma_init),
        sensors=[replace(s, V=k * s.V) for s in scenario.suite],
    )


def _relabelled(scenario, new_id):
    """Sensor i renamed new_id[i]."""
    return _rebuilt(scenario, sensors=[replace(s, id=int(new_id[s.id])) for s in scenario.suite])


def _mapped(new_id):
    """Each old mask's new mask under the relabelling: bit new_id[i] for each bit i."""
    masks = np.arange(1 << len(new_id))
    mapped = np.zeros_like(masks)
    for i, j in enumerate(new_id):
        mapped |= ((masks >> i) & 1) << j
    return mapped


def _same_selections(before, after):
    for method in ("greedy", "oracle"):
        assert after[method].chosen == before[method].chosen, method


def _same_certificate(before, after):
    cert, want = after["certificate"], before["certificate"]
    assert cert.lhs == pytest.approx(want.lhs, rel=CERT_LHS_RTOL, abs=0.0)
    assert cert.rhs == pytest.approx(want.rhs, rel=GAMMA_RTOL, abs=0.0)
    assert cert.passed == want.passed


@pytest.mark.parametrize("k", [1e-10, 1e-9, 1e-6, 1e-3, 1e3])
def test_noise_scale_scales_f_and_keeps_gamma_and_the_sets(instance, k):
    name, scenario, before = instance
    after = _answers(_noise_scaled(scenario, k))
    np.testing.assert_allclose(after["table"], k * before["table"], rtol=F_RTOL, atol=0.0)
    assert after["gamma"] == pytest.approx(before["gamma"], rel=GAMMA_RTOL, abs=0.0)
    assert after["hypotheses"].theta_sum_pd == before["hypotheses"].theta_sum_pd
    _same_selections(before, after)
    _same_certificate(before, after)


@pytest.mark.parametrize("k", [1e-3, 1e3])
def test_cost_scale_scales_f_and_keeps_the_gains_gamma_and_the_sets(instance, k):
    name, scenario, before = instance
    weights = scenario.weights
    scaled = _rebuilt(scenario, weights=replace(weights, Q=k * weights.Q,
                                                R=tuple(k * r for r in weights.R)))
    after = _answers(scaled)
    np.testing.assert_allclose(after["table"], k * before["table"], rtol=F_RTOL, atol=0.0)
    assert after["offset"] == pytest.approx(k * before["offset"], rel=F_RTOL, abs=0.0)
    for gain, want in zip(after["sol"].K, before["sol"].K):
        np.testing.assert_allclose(gain, want, rtol=F_RTOL, atol=F_RTOL * np.abs(want).max())
    assert after["gamma"] == pytest.approx(before["gamma"], rel=GAMMA_RTOL, abs=0.0)
    assert after["hypotheses"] == before["hypotheses"]
    _same_selections(before, after)
    _same_certificate(before, after)


def test_orthogonal_coordinates_keep_f_and_gamma(instance):
    name, scenario, before = instance
    n = scenario.state_dim
    T = np.linalg.qr(np.random.default_rng(7).standard_normal((n, n)))[0]
    system, weights = scenario.system, scenario.weights
    moved = _rebuilt(
        scenario,
        system=replace(system, A=T @ system.A @ T.T, B=tuple(T @ b for b in system.B),
                       W=T @ system.W @ T.T, sigma_init=T @ system.sigma_init @ T.T,
                       x1_mean=T @ system.x1_mean),
        sensors=[replace(s, C=s.C @ T.T) for s in scenario.suite],
        weights=replace(weights, Q=T @ weights.Q @ T.T),
    )
    after = _answers(moved)
    np.testing.assert_allclose(after["table"], before["table"], rtol=F_RTOL, atol=0.0)
    assert after["offset"] == pytest.approx(before["offset"], rel=F_RTOL, abs=0.0)
    assert after["gamma"] == pytest.approx(before["gamma"], rel=GAMMA_RTOL, abs=0.0)
    assert after["hypotheses"] == before["hypotheses"]
    _same_certificate(before, after)


def test_relabelled_sensors_carry_their_values_over(instance):
    name, scenario, before = instance
    new_id = np.random.default_rng(7).permutation(len(scenario.suite))
    after = _answers(_relabelled(scenario, new_id))
    np.testing.assert_allclose(after["table"][_mapped(new_id)], before["table"],
                               rtol=F_RTOL, atol=0.0)
    assert after["gamma"] == pytest.approx(before["gamma"], rel=GAMMA_RTOL, abs=0.0)
    assert after["hypotheses"] == before["hypotheses"]
    _same_certificate(before, after)
    old_id = np.argsort(new_id)
    classes = before["cache"]._class
    for method in ("greedy", "oracle"):
        chosen, want = after[method], before[method]
        assert chosen.objective_f == pytest.approx(want.objective_f, rel=F_RTOL, abs=0.0)
        if name.startswith("uav"):  # no two UAV sensors share a class, so no ties
            assert chosen.chosen == tuple(sorted(int(new_id[i]) for i in want.chosen)), method
        else:  # class-mates tie, so the set is fixed up to its class multiset
            assert (sorted(classes[old_id[j]] for j in chosen.chosen)
                    == sorted(classes[i] for i in want.chosen)), method


@settings(max_examples=20)
@given(seed=st.integers(0, 10 ** 6), k=st.sampled_from([1e-6, 1e-3, 1e3]), data=st.data())
def test_small_random_instances_keep_f_and_gamma(seed, k, data):
    scenario = support.random_scenario(seed, max_sensors=5)
    new_id = data.draw(st.permutations(range(len(scenario.suite))))
    table, gamma = _table_and_gamma(support.solved(scenario)[2])
    scaled_table, scaled_gamma = _table_and_gamma(support.solved(_noise_scaled(scenario, k))[2])
    np.testing.assert_allclose(scaled_table, k * table, rtol=F_RTOL, atol=0.0)
    assert scaled_gamma == pytest.approx(gamma, rel=GAMMA_RTOL, abs=0.0)
    moved_table, moved_gamma = _table_and_gamma(support.solved(_relabelled(scenario, new_id))[2])
    np.testing.assert_allclose(moved_table[_mapped(new_id)], table, rtol=F_RTOL, atol=0.0)
    assert moved_gamma == pytest.approx(gamma, rel=GAMMA_RTOL, abs=0.0)


@pytest.mark.parametrize("seed", [332, 475, 523])
def test_a_small_noise_scale_keeps_a_small_gamma(seed):
    # at k = 1e-6 a subset gain of these instances falls below an absolute 1e-12,
    # which pinned gamma (0.00094, 0.012 and 0.031) at 0
    scenario = support.random_scenario(seed, max_sensors=5)
    gamma = _table_and_gamma(support.solved(scenario)[2])[1]
    scaled_gamma = _table_and_gamma(support.solved(_noise_scaled(scenario, 1e-6))[2])[1]
    assert gamma > 0.0
    assert scaled_gamma == pytest.approx(gamma, rel=GAMMA_RTOL, abs=0.0)
