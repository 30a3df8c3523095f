"""Deterministic fixtures and seeded random-instance generators for the tests.

The hand-derivable fixture values frozen in the tests all come from the
scalar suite (horizon 1, all-ones plant) and the two-step identity plant;
everything else is generated from explicit seeds so failures reproduce.
"""

import math
import operator
from dataclasses import replace

import numpy as np

import lqgcodesign as lq
from lqgcodesign import cli, kalman, simulate
from lqgcodesign._linalg import psd_sqrt


def mask_of(ids) -> int:
    """Bit mask of a sensor set given by ids, in any order and with repeats."""
    return sum(1 << i for i in set(ids))


def mask_ids(mask: int) -> tuple[int, ...]:
    """The ids of a bit mask's set bits, ascending, read off its binary string.

    The reference for ``kalman._mask_ids``, which walks the bits instead.
    """
    return tuple(i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")


def class_key(mask: int, number) -> tuple[int, ...]:
    """The class numbers of a bit mask's set bits, ascending: the multiset ``_class_key`` encodes."""
    return tuple(sorted([number[i] for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]))


def row_count(scenario: lq.Scenario, ids) -> int | None:
    """The row count P of a set that takes the measurement form, None for the information form."""
    n = scenario.state_dim
    widest = max((s.output_dim for s in scenario.suite), default=0)
    if 0 < len(ids) * widest < n:
        return sum(scenario.suite.sensor(i).output_dim for i in ids)
    return None


def scalar_system() -> lq.LtvSystem:
    return lq.LtvSystem(horizon=1, state_dim=1, A=[[1.0]], B=[[1.0]],
                        W=[[0.0]], sigma_init=[[1.0]])


def scalar_weights() -> lq.LqgWeights:
    return lq.LqgWeights(horizon=1, Q=[[1.0]], R=[[1.0]])


def scalar_sensors(horizon: int = 1) -> tuple[lq.Sensor, lq.Sensor]:
    strong_cheap = lq.Sensor.time_invariant(0, [[1.0]], [[1.0]], 1.0, horizon)
    stronger_dear = lq.Sensor.time_invariant(1, [[1.0]], [[0.5]], 2.0, horizon)
    return strong_cheap, stronger_dear


def scalar_two_sensor_scenario(budget: float | None = 2.0,
                               kappa: float | None = 2.0) -> lq.Scenario:
    suite = lq.SensorSuite(sensors=scalar_sensors(), state_dim=1)
    return lq.Scenario(system=scalar_system(), suite=suite,
                       weights=scalar_weights(), budget=budget, kappa=kappa)


def scalar_one_sensor_scenario() -> lq.Scenario:
    sensor = lq.Sensor.time_invariant(0, [[1.0]], [[1.0]], 1.0, 1)
    suite = lq.SensorSuite(sensors=(sensor,), state_dim=1)
    return lq.Scenario(system=scalar_system(), suite=suite, weights=scalar_weights())


def overflowing_scenario_dict() -> dict:
    """Scalar plant growing by 1e10 per step: unsensed, the covariance overflows."""
    data = scalar_scenario_dict()
    data.update(horizon=40, A=[[1e10]])
    return data


def overflowing_riccati_scenario_dict() -> dict:
    """Unactuated scalar plant growing by 10 per step: the regulator weights overflow."""
    data = scalar_scenario_dict()
    data.update(horizon=400, A=[[10.0]], B=[[0.0]])
    return data


def overflowing_scenario() -> lq.Scenario:
    return lq.scenario_from_dict(overflowing_scenario_dict())


def singular_prediction_scenario() -> lq.Scenario:
    """Zero process noise and a nilpotent map: the prior at time index 1 is 0."""
    system = lq.LtvSystem(horizon=2, state_dim=1, A=[[0.0]], B=[[1.0]],
                          W=[[0.0]], sigma_init=[[1.0]])
    weights = lq.LqgWeights(horizon=2, Q=[[1.0]], R=[[1.0]])
    sensor = lq.Sensor.time_invariant(0, [[1.0]], [[1.0]], 1.0, 2)
    return lq.Scenario(system=system,
                       suite=lq.SensorSuite(sensors=(sensor,), state_dim=1),
                       weights=weights)


def singular_prior_uav_scenario() -> lq.Scenario:
    """UAV landing with two landmarks whose initial velocity is known exactly.

    ``sigma_init`` has rank 3 of 6 and ``W`` is the identity, so only the
    first prior is singular.
    """
    scenario = lq.build_uav_scenario(2, 6, "uniform", 0)
    system = replace(scenario.system, sigma_init=np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
                     W=np.eye(6))
    return replace(scenario, system=system, budget=2.0)


def scalar_scenario_dict() -> dict:
    """JSON form of the two-sensor scalar scenario, using broadcast matrices."""
    return {
        "horizon": 1,
        "state_dim": 1,
        "A": [[1.0]],
        "B": [[1.0]],
        "W": [[0.0]],
        "Q": [[1.0]],
        "R": [[1.0]],
        "sigma_init": [[1.0]],
        "sensors": [
            {"id": 0, "C": [[1.0]], "V": [[1.0]], "cost": 1.0},
            {"id": 1, "C": [[1.0]], "V": [[0.5]], "cost": 2.0},
        ],
        "budget": 2.0,
        "kappa": 2.0,
    }


def random_psd(rng, n: int, scale: float = 1.0, ridge: float = 0.0) -> np.ndarray:
    g = rng.normal(size=(n, n)) * scale
    return g.T @ g + ridge * np.eye(n)


def random_scenario(seed: int, max_state: int = 4, max_horizon: int = 5,
                    max_sensors: int = 8, pd_q: bool = False, zero_q: bool = False,
                    invertible: bool = False, zero_mean: bool = False,
                    with_budget: bool = False, min_theta_rank: bool = False,
                    unit_costs: bool = False) -> lq.Scenario:
    """Seeded random instance within the given size caps.

    ``unit_costs`` prices every sensor at 1 and draws an integer budget, the
    cardinality-constrained shape of the benchmark experiments; otherwise
    costs and the budget are heterogeneous reals.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_state + 1))
    horizon = int(rng.integers(1, max_horizon + 1))
    if min_theta_rank:
        m_floor = max(1, -(-n // horizon))
    else:
        m_floor = 1
    m = int(rng.integers(m_floor, n + 1))
    count = int(rng.integers(1, max_sensors + 1))

    def draw_a() -> np.ndarray:
        while True:
            a = rng.normal(size=(n, n)) / np.sqrt(n)
            if not invertible:
                return a
            svals = np.linalg.svd(a, compute_uv=False)
            if svals[-1] > 1e-3:
                return a

    time_varying = bool(rng.random() < 0.5)
    if time_varying:
        A = [draw_a() for _ in range(horizon)]
        B = [rng.normal(size=(n, m)) for _ in range(horizon)]
    else:
        A = draw_a()
        B = rng.normal(size=(n, m))
    W = random_psd(rng, n, scale=0.4, ridge=0.01)
    sigma = random_psd(rng, n, scale=0.6, ridge=0.5)
    if zero_q:
        Q = np.zeros((n, n))
    elif pd_q:
        Q = random_psd(rng, n, scale=0.6, ridge=0.5)
    else:
        Q = random_psd(rng, n, scale=0.7)
    R = random_psd(rng, m, scale=0.4, ridge=0.5)
    mean = np.zeros(n)
    if not zero_mean and rng.random() < 0.5:
        mean = 0.5 * rng.normal(size=n)
    sensors = []
    for i in range(count):
        p = int(rng.integers(1, 3))
        c = rng.normal(size=(p, n))
        v = random_psd(rng, p, scale=0.3, ridge=0.2)
        if unit_costs:
            cost = 1.0
        else:
            cost = float(np.round(rng.uniform(0.5, 2.0), 3))
        sensors.append(lq.Sensor.time_invariant(i, c, v, cost, horizon))
    system = lq.LtvSystem(horizon=horizon, state_dim=n, A=A, B=B, W=W,
                          sigma_init=sigma, x1_mean=mean)
    weights = lq.LqgWeights(horizon=horizon, Q=Q, R=R)
    suite = lq.SensorSuite(sensors=tuple(sensors), state_dim=n)
    budget = None
    if with_budget and unit_costs:
        budget = float(rng.integers(1, count + 1))
    elif with_budget:
        costs = [s.cost for s in suite]
        budget = float(rng.uniform(min(costs), sum(costs)))
    return lq.Scenario(system=system, suite=suite, weights=weights, budget=budget)


def per_step_sensor_scenario(seed: int) -> lq.Scenario:
    """A ``random_scenario`` whose sensors draw their wiring and noise afresh at every step."""
    scenario = random_scenario(seed)
    rng = np.random.default_rng(seed + 7000)
    T, n = scenario.horizon, scenario.state_dim
    sensors = tuple(
        lq.Sensor(id=s.id, C=rng.normal(size=(T, s.output_dim, n)),
                  V=[random_psd(rng, s.output_dim, scale=0.3, ridge=0.2) for _ in range(T)],
                  cost=s.cost)
        for s in scenario.suite)
    return replace(scenario, suite=lq.SensorSuite(sensors=sensors, state_dim=n))


def mixed_form_scenario(seed: int) -> lq.Scenario:
    """Formation a2 (n = 8, four 2-row sensors) whose sensor 1's wiring changes at every step.

    Its sets of one to three sensors take the measurement form, each row
    count P in 2, 4, 6 its own stream, and the empty and the full set the
    information form; with a per-step sensor its stacks keep T steps.
    """
    scenario = lq.build_formation_scenario(2, 6, "heterogeneous", seed)
    rng = np.random.default_rng(seed + 9000)
    sensors = list(scenario.suite)
    moved = sensors[1]
    sensors[1] = lq.Sensor(id=1, C=moved.C + 0.2 * rng.normal(size=moved.C.shape), V=moved.V,
                           cost=moved.cost)
    return replace(scenario, suite=lq.SensorSuite(sensors=tuple(sensors),
                                                  state_dim=scenario.state_dim))


def differential_scenarios() -> list[lq.Scenario]:
    """The instances on which a stacked path must equal its per-step reference exactly."""
    return ([random_scenario(seed) for seed in range(40)]
            + [per_step_sensor_scenario(seed) for seed in range(20)]
            + [lq.build_formation_scenario(3, 6, "heterogeneous", 1),
               lq.build_uav_scenario(2, 6, "heterogeneous", 1)])


def with_feasible_kappa(scenario: lq.Scenario, sol, cache, seed: int) -> lq.Scenario:
    """Attach a kappa somewhere strictly between the full-set and empty-set costs."""
    rng = np.random.default_rng(seed)
    f_all = cache.f(frozenset(scenario.suite.ids))
    f_empty = cache.f(frozenset())
    share = float(rng.uniform(0.05, 0.95))
    cap = f_all + share * (f_empty - f_all)
    kappa = cap + lq.cost_offset(scenario, sol)
    return replace(scenario, kappa=kappa)


def normalized_bound_scenario(seed: int, max_attempts: int = 80) -> lq.Scenario:
    """Instance on which the spectral ratio bound's hypotheses all hold.

    Unit-gain sensors are built exactly (identity noise, Frobenius-normalized
    wiring); the remaining two hypotheses are verified and the construction
    retried deterministically until they hold.
    """
    for attempt in range(max_attempts):
        rng = np.random.default_rng(seed * 1009 + attempt)
        n = int(rng.integers(1, 3))
        horizon = int(rng.integers(1, 4))
        A = np.eye(n) + 0.1 * rng.normal(size=(n, n))
        B = np.eye(n) + 0.1 * rng.normal(size=(n, n))
        W = random_psd(rng, n, scale=0.15, ridge=0.05)
        base = 3.0 + rng.uniform(0.0, 1.0)
        if n == 1:
            sigma = np.array([[base]])
        else:
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            sigma = q @ np.diag([base, float(rng.uniform(0.3, 0.8))]) @ q.T
        Q = random_psd(rng, n, scale=0.4, ridge=0.5)
        R = random_psd(rng, n, scale=0.3, ridge=0.5)
        count = int(rng.integers(1, 5))
        sensors = []
        for i in range(count):
            p = int(rng.integers(1, n + 1))
            c = rng.normal(size=(p, n))
            c = c / np.linalg.norm(c)
            sensors.append(lq.Sensor.time_invariant(i, c, np.eye(p),
                                                    float(np.round(rng.uniform(0.5, 2.0), 3)),
                                                    horizon))
        system = lq.LtvSystem(horizon=horizon, state_dim=n, A=A, B=B, W=W,
                              sigma_init=sigma, x1_mean=np.zeros(n))
        weights = lq.LqgWeights(horizon=horizon, Q=Q, R=R)
        suite = lq.SensorSuite(sensors=tuple(sensors), state_dim=n)
        scenario = lq.Scenario(system=system, suite=suite, weights=weights)
        sol = lq.solve_riccati(system, weights)
        bound, hypotheses = lq.ratio_lower_bound(lq.ObjectiveCache(scenario, sol))
        if bound is not None and hypotheses.applicable:
            return scenario
    raise RuntimeError(f"no bound-applicable instance found for seed {seed}")


def complementary_pair_scenario() -> lq.Scenario:
    """Ratio-zero construction: a sensor useless alone but useful jointly.

    The regulator only weighs the first coordinate.  Sensor 1 measures the
    second coordinate, worthless on its own under a diagonal prior; sensor 0
    couples the coordinates, after which sensor 1 sharpens the first one.
    """
    system = lq.LtvSystem(horizon=1, state_dim=2, A=np.eye(2), B=np.eye(2),
                          W=np.zeros((2, 2)), sigma_init=np.eye(2))
    weights = lq.LqgWeights(horizon=1, Q=np.diag([1.0, 0.0]), R=np.eye(2))
    coupling = lq.Sensor.time_invariant(0, [[1.0, 1.0]], [[1.0]], 1.0, 1)
    second_only = lq.Sensor.time_invariant(1, [[0.0, 1.0]], [[1.0]], 1.0, 1)
    suite = lq.SensorSuite(sensors=(coupling, second_only), state_dim=2)
    return lq.Scenario(system=system, suite=suite, weights=weights, budget=2.0)


def big_random_scenario(seed: int, sensors: int, state_dim: int = 16,
                        horizon: int = 20, budget: float | None = None) -> lq.Scenario:
    """Larger instance for runtime checks: stable-ish plant, many sensors."""
    rng = np.random.default_rng(seed)
    n = state_dim
    A = 0.95 * np.eye(n) + 0.05 * rng.normal(size=(n, n)) / np.sqrt(n)
    B = rng.normal(size=(n, 4))
    W = random_psd(rng, n, scale=0.1, ridge=0.05)
    sigma = random_psd(rng, n, scale=0.2, ridge=0.5)
    Q = random_psd(rng, n, scale=0.2, ridge=0.1)
    R = np.eye(4)
    bank = []
    for i in range(sensors):
        p = int(rng.integers(1, 4))
        c = rng.normal(size=(p, n))
        v = random_psd(rng, p, scale=0.2, ridge=0.3)
        bank.append(lq.Sensor.time_invariant(i, c, v, 1.0, horizon))
    system = lq.LtvSystem(horizon=horizon, state_dim=n, A=A, B=B, W=W,
                          sigma_init=sigma, x1_mean=np.zeros(n))
    weights = lq.LqgWeights(horizon=horizon, Q=Q, R=R)
    suite = lq.SensorSuite(sensors=tuple(bank), state_dim=n)
    return lq.Scenario(system=system, suite=suite, weights=weights, budget=budget)


def tied_sensor_scenario(seed: int) -> lq.Scenario:
    """A budgeted ``random_scenario`` whose sets tie exactly in value and in cost.

    Sensor 0 is free and blind (zero wiring), so every set has the value and
    cost of its union with 0, whose id tuple sorts first although its mask is
    larger.  Sensors 1 onward are the base sensors, the second of them made
    free, and the last sensor is a bit-identical twin of sensor 1.
    """
    base = random_scenario(seed + 1900, max_sensors=5, with_budget=True,
                           unit_costs=seed % 2 == 0)
    T, n = base.horizon, base.state_dim
    shifted = [lq.Sensor(id=s.id + 1, C=s.C, V=s.V, cost=0.0 if s.id == 1 else s.cost)
               for s in base.suite]
    first = shifted[0]
    sensors = (lq.Sensor(id=0, C=np.zeros((T, 1, n)), V=np.ones((T, 1, 1)), cost=0.0),
               *shifted,
               lq.Sensor(id=len(shifted) + 1, C=first.C, V=first.V, cost=first.cost))
    return replace(base, suite=lq.SensorSuite(sensors=sensors, state_dim=n))


def duplicated_sensor_scenario(seed: int, copies: int) -> tuple[lq.Scenario, tuple[int, ...]]:
    """A ``random_scenario`` plus ``copies`` of one more sensor: the scenario and the copies' ids.

    Two copies come first and the rest last, so the ids of the sets {0, 1, b}
    and {0, b, m - 1} with a base sensor b sum the same information in
    different orders; with three or more copies the orders round differently.
    """
    base = random_scenario(seed + 2000, max_sensors=4)
    rng = np.random.default_rng(seed)
    T, n = base.horizon, base.state_dim
    p = int(rng.integers(1, 3))
    C, V = rng.normal(size=(p, n)), random_psd(rng, p, scale=0.3, ridge=0.2)
    pool = [None, None, *base.suite, *[None] * (copies - 2)]
    sensors = tuple(lq.Sensor.time_invariant(i, C, V, 1.0, T) if s is None
                    else lq.Sensor(id=i, C=s.C, V=s.V, cost=s.cost)
                    for i, s in enumerate(pool))
    twins = tuple(i for i, s in enumerate(pool) if s is None)
    return replace(base, suite=lq.SensorSuite(sensors=sensors, state_dim=n)), twins


def row_padded_twin_scenario(seed: int) -> lq.Scenario:
    """Formation a2's plant (n = 8) with three sensors: a random row, the same row with a zero
    row under it, and two random rows.

    Sensors 0 and 1 have bit-identical information, so they are one class,
    whose rows are sensor 0's single row; every nonempty set takes the
    measurement form.
    """
    base = lq.build_formation_scenario(2, 6, "heterogeneous", seed)
    rng = np.random.default_rng(seed + 9100)
    T, n = base.horizon, base.state_dim
    row = rng.normal(size=(1, n))
    sensors = (lq.Sensor.time_invariant(0, row, np.eye(1), 1.0, T),
               lq.Sensor.time_invariant(1, np.vstack([row, 0.0 * row]), np.eye(2), 1.0, T),
               lq.Sensor.time_invariant(2, rng.normal(size=(2, n)), np.eye(2), 1.0, T))
    return replace(base, suite=lq.SensorSuite(sensors=sensors, state_dim=n))


def random_cost_suite(seed: int) -> lq.SensorSuite:
    """A ``random_scenario``'s suite repriced with unrounded costs, one of them 0."""
    suite = random_scenario(seed + 1950, max_sensors=9).suite
    rng = np.random.default_rng(seed)
    costs = rng.exponential(3.0, size=len(suite))
    costs[rng.integers(len(suite))] = 0.0
    return lq.SensorSuite(
        sensors=tuple(replace(s, cost=float(c)) for s, c in zip(suite, costs)),
        state_dim=suite.state_dim)


def reference_oracle_budget(scenario: lq.Scenario, cache):
    """Ids and value of the budget optimum by the plain loop the mask-table oracle replaced.

    Every affordable set in mask order; a set displaces the best so far on a
    smaller value, or on an equal value and a smaller id tuple.
    """
    affordable = [ids for ids in map(mask_ids, range(1 << len(scenario.suite)))
                  if lq.set_cost(scenario.suite, ids) <= scenario.budget]
    values = cache.f_many(map(mask_of, affordable))
    best_ids, best_value = (), values[0]
    for ids, value in zip(affordable[1:], values[1:]):
        if value < best_value or (value == best_value and ids < best_ids):
            best_ids, best_value = ids, value
    return best_ids, best_value


def reference_oracle_mincost(scenario: lq.Scenario, cache, cap: float):
    """Ids and value of the cheapest set with value at most ``cap``, by a plain loop.

    The loop the mask-table oracle replaced: the smallest key (cost, value,
    id tuple) over every feasible set; None when no set is feasible.
    """
    best = None
    for mask, value in enumerate(cache.f_many(range(1 << len(scenario.suite)))):
        if value > cap:
            continue
        ids = mask_ids(mask)
        key = (lq.set_cost(scenario.suite, ids), value, ids)
        if best is None or key < best:
            best = key
    return None if best is None else (best[2], best[1])


def solved(scenario: lq.Scenario):
    """Convenience bundle: (scenario, solution, cache)."""
    sol = lq.solve_riccati(scenario.system, scenario.weights)
    return scenario, sol, lq.ObjectiveCache(scenario, sol)


def joseph_posteriors(scenario: lq.Scenario, ids) -> list[np.ndarray]:
    """Filtering covariances of a sensor set from the Joseph-form update.

    An independent reference (Kaminski, Bryson & Schmidt 1971): each step
    stacks the chosen sensors with ``stack_sensors`` and updates
    post = (I - K C) P (I - K C)' + K V K' with K = P C' inv(C P C' + V).
    Only the innovation covariance is inverted, never the prior P, so a
    singular prior is as valid here as in the library.
    """
    system = scenario.system
    prior = system.sigma_init
    posts = []
    wiring, noise = lq.stack_sensors(scenario, ids)
    for t in range(system.horizon):
        C, V = wiring[t], noise[t]
        gain = np.linalg.solve(C @ prior @ C.T + V, C @ prior).T
        keep = np.eye(system.state_dim) - gain @ C
        posts.append(keep @ prior @ keep.T + gain @ V @ gain.T)
        prior = system.A[t] @ posts[-1] @ system.A[t].T + system.W[t]
    return posts


def joseph_objective(scenario: lq.Scenario, sol, ids) -> float:
    """sum_t trace(theta[t] post[t]) over the Joseph-form posteriors."""
    return float(sum(np.sum(theta * post)
                     for theta, post in zip(sol.theta, joseph_posteriors(scenario, ids))))


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def stack_sensors(suite: lq.SensorSuite, ids, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The selected sensors' step-t wiring and block-diagonal noise, ascending by id.

    This is the per-step assembly the stacked ``lq.stack_sensors`` replaced;
    the empty selection yields a 0-row C and a 0 x 0 V.
    """
    chosen = [suite.sensor(i) for i in sorted(set(int(i) for i in ids))]
    if not chosen:
        return np.zeros((0, suite.state_dim)), np.zeros((0, 0))
    size = sum(s.output_dim for s in chosen)
    V = np.zeros((size, size))
    ofs = 0
    for s in chosen:
        V[ofs:ofs + s.output_dim, ofs:ofs + s.output_dim] = s.V[t]
        ofs += s.output_dim
    return np.vstack([s.C[t] for s in chosen]), V


def whiten_sensor(sensor: lq.Sensor) -> np.ndarray:
    """Whitened wiring V[t]^{-1/2} C[t], one step at a time.

    This is the per-step loop the stacked ``lq.whiten_sensor`` replaced: each
    step's inverse root comes from its own ``eigh``, eigenvalues clamped
    below at 1e-12.
    """
    rows = []
    for c, v in zip(sensor.C, sensor.V):
        vals, vecs = np.linalg.eigh(_sym(v))
        vals = np.maximum(vals, 1e-12)
        rows.append(_sym((vecs / np.sqrt(vals)) @ vecs.T) @ c)
    return np.stack(rows)


def _sym_inverse(a: np.ndarray) -> np.ndarray:
    return _sym(np.linalg.inv(_sym(a)))


class ReferenceCache(lq.ObjectiveCache):
    """ObjectiveCache whose values come from the serial two-inverse recursion.

    This is the evaluator the batched single-solve recursion replaced: one
    set at a time, the chosen sensors' information summed in ascending id
    order and the update post = inv(inv(prior) + J).  Selection routines
    driven by it are the reference for the differential tests.
    """

    def __init__(self, scenario: lq.Scenario, sol):
        super().__init__(scenario, sol)
        self._ref_info = [_sym(np.swapaxes(w, -1, -2) @ w) for w in self._whitened]
        self._ref_f: dict = {}
        self._ref_logdet: dict = {}

    def posteriors(self, ids) -> list[np.ndarray]:
        system = self.scenario.system
        T, n = system.horizon, system.state_dim
        info = None
        for i in sorted(set(int(i) for i in ids)):
            if info is None:
                info = np.zeros((T, n, n))
            info += self._ref_info[i]
        info = None if info is None else _sym(info)
        posts = []
        prior = system.sigma_init
        for t in range(T):
            if info is None:
                post = prior
            else:
                if float(np.linalg.eigvalsh(prior)[0]) < 1e-12:
                    raise lq.NumericalError(f"prediction covariance singular at time index {t}")
                post = _sym_inverse(_sym_inverse(prior) + info[t])
            posts.append(post)
            prior = _sym(system.A[t] @ post @ system.A[t].T + system.W[t])
        return posts

    def _f_one(self, ids) -> float:
        total = 0.0
        for theta, post in zip(self.sol.theta, self.posteriors(ids)):
            total += float(np.sum(theta * post))
        return total

    def _logdet_one(self, ids) -> float:
        total = 0.0
        for t, post in enumerate(self.posteriors(ids)):
            sign, logabs = np.linalg.slogdet(post)
            if sign <= 0.0 or float(np.linalg.eigvalsh(post)[0]) <= 0.0:
                raise lq.NumericalError(f"filtering covariance not positive definite at time index {t}")
            total += float(logabs)
        return total / self.scenario.horizon

    @staticmethod
    def _by_mask(memo: dict, one, masks) -> list[float]:
        keys = list(masks)
        for key in keys:
            if key not in memo:
                memo[key] = one(mask_ids(key))
        return [memo[key] for key in keys]

    def f_many(self, masks) -> list[float]:
        return self._by_mask(self._ref_f, self._f_one, masks)

    def logdet_many(self, masks) -> list[float]:
        return self._by_mask(self._ref_logdet, self._logdet_one, masks)


class PerMaskCache(lq.ObjectiveCache):
    """ObjectiveCache memoized by mask alone, as before the information classes.

    It re-hooks ``_lookup``, the one path ``f_many``, ``logdet_many`` and
    ``f_table`` take once their masks are checked and keyed, with the dict
    memo the class memo replaced: ``by_mask[functional]`` is keyed by mask,
    so every set not memoized is propagated, with no value shared between
    masks, in batches of masks in the order asked, grouped by ``row_count``.
    Each takes the cache's update kernel for its size on its classes' rows or
    information, as the class memo does.
    """

    def __init__(self, scenario: lq.Scenario, sol):
        super().__init__(scenario, sol)
        self.by_mask: dict[str, dict[int, float]] = {"f": {}, "logdet": {}}

    @np.errstate(over="ignore", invalid="ignore")
    def _lookup(self, functional: str, masks, keys) -> np.ndarray:
        memo = self.by_mask[functional]
        masks = [operator.index(mask) for mask in masks]
        streams: dict = {}
        for mask in dict.fromkeys(mask for mask in masks if mask not in memo):
            streams.setdefault(row_count(self.scenario, mask_ids(mask)), []).append(mask)
        size = kalman._batch_size(self.scenario.state_dim)
        for todo in streams.values():
            for start in range(0, len(todo), size):
                batch = todo[start:start + size]
                keys = np.array([kalman._class_key(mask, self._weight) for mask in batch],
                                dtype=self._radix.dtype)
                for mask, value in zip(batch, self._values(functional, keys).tolist()):
                    if not math.isfinite(value):
                        named = list(mask_ids(mask))
                        raise lq.NumericalError(f"objective of sensor set {named} is not finite "
                                                f"({value})")
                    memo[mask] = value
        return np.array([memo[mask] for mask in masks], dtype=np.float64)


def memo(cache, functional: str = "f") -> dict:
    """An ``ObjectiveCache``'s memo of ``functional`` as a dict, class multiset key to value.

    The memo is a key and a value array; the keys must be distinct and sorted.
    """
    keys, values = cache._memo[functional]
    assert keys.shape == values.shape and values.dtype == np.float64
    listed = keys.tolist()
    assert listed == sorted(set(listed))
    return dict(zip(listed, values.tolist()))


def forget(cache) -> None:
    """Empty every memo of an ``ObjectiveCache``."""
    cache._memo = {name: (keys[:0], values[:0]) for name, (keys, values) in cache._memo.items()}


def reference_ratio_lower_bound(scenario: lq.Scenario, sol, cache):
    """The spectral bound and its three flags, one step and one matrix at a time.

    This is the per-step loop the stacked ``ratio_lower_bound`` replaced; it
    does the same arithmetic in the same order, so the two agree exactly.
    """
    suite = scenario.suite
    theta_eigs = np.linalg.eigvalsh(_sym(sum(sol.theta[t] for t in range(sol.horizon))))
    theta_lo, theta_hi = float(theta_eigs[0]), float(theta_eigs[-1])
    flags = [theta_lo > 1e-9]
    flags.append(all(abs(float(np.sum(m * m)) - 1.0) <= 1e-9
                     for s in suite for m in cache.whitened(s.id)))
    full = cache.trajectory(suite.ids).posteriors
    empty = cache.trajectory(()).posteriors
    empty_hi = [float(np.linalg.eigvalsh(post)[-1]) for post in empty]
    flags.append(all(float(np.trace(post)) <= hi * hi + 1e-9
                     for post, hi in zip(empty, empty_hi)))
    empty_peak = max(empty_hi)
    if len(suite) == 0 or theta_hi <= 0.0 or empty_peak <= 0.0:
        return None, flags
    full_lo = min(float(np.linalg.eigvalsh(post)[0]) for post in full)
    sensed_lo, sensed_hi = np.inf, -np.inf
    for s in suite:
        for t, m in enumerate(cache.whitened(s.id)):
            sensed_lo = min(sensed_lo, float(np.linalg.eigvalsh(_sym(m @ full[t] @ m.T))[0]))
            sensed_hi = max(sensed_hi, float(np.linalg.eigvalsh(_sym(m @ empty[t] @ m.T))[-1]))
    value = theta_lo / theta_hi
    value *= (full_lo * full_lo) / (empty_peak * empty_peak)
    value *= (1.0 + sensed_lo) / (2.0 + sensed_hi)
    return min(max(value, 0.0), 1.0), flags


def reference_rollout(scenario: lq.Scenario, sol, ids, seed: int):
    """States, estimates, controls and realized cost of one run, in information form.

    This is the per-run loop the batched gain-form rollout replaced: each step
    draws the chosen sensors' noises one sensor at a time in ascending id order,
    then the process noise, and estimates xhat = post (inv(prior) xp + sum_i
    C_i' inv(V_i) y_i), with the identity update for the empty set.
    """
    sys_ = scenario.system
    T, n = sys_.horizon, sys_.state_dim
    chosen = sorted(set(int(i) for i in ids))
    sensors = [scenario.suite.sensor(i) for i in chosen]
    traj = lq.propagate_covariance(scenario, chosen)
    rng = np.random.Generator(np.random.Philox(seed))
    x = sys_.x1_mean + psd_sqrt(sys_.sigma_init) @ rng.standard_normal(n)
    xhat_prior = np.array(sys_.x1_mean)
    states, estimates, controls = [x], [], []
    cost = 0.0
    for t in range(T):
        if sensors:
            info_vec = _sym_inverse(traj.priors[t]) @ xhat_prior
            for s in sensors:
                noise = np.linalg.cholesky(s.V[t]) @ rng.standard_normal(s.output_dim)
                y = s.C[t] @ x + noise
                info_vec = info_vec + s.C[t].T @ np.linalg.inv(s.V[t]) @ y
            xhat = traj.posteriors[t] @ info_vec
        else:
            xhat = xhat_prior
        u = sol.K[t] @ xhat
        w = psd_sqrt(sys_.W[t]) @ rng.standard_normal(n)
        x = sys_.A[t] @ x + sys_.B[t] @ u + w
        cost += float(x @ scenario.weights.Q[t] @ x)
        cost += float(u @ scenario.weights.R[t] @ u)
        xhat_prior = sys_.A[t] @ xhat + sys_.B[t] @ u
        states.append(x)
        estimates.append(xhat)
        controls.append(u)
    return np.array(states), np.array(estimates), np.array(controls), cost


def reference_simulator(cache, ids) -> simulate.ClosedLoopSimulator:
    """A simulator whose filter gains come from ``propagate_covariance``, as before the cache.

    That path whitens the chosen sensors again and sums their own rows or
    information in ascending id order, where ``cache.trajectory`` sums its
    classes' in class order; the draws and everything else are the same.
    """
    sim = simulate.ClosedLoopSimulator(cache, ids)
    noise = lq.stack_sensors(cache.scenario, sim.chosen)[1]
    posteriors = lq.propagate_covariance(cache.scenario, sim.chosen).posteriors
    sim._gain_t = np.linalg.solve(noise, sim._C @ posteriors)
    return sim


def reference_monte_carlo(cache, ids, runs: int, base_seed: int) -> lq.MonteCarloSummary:
    """Monte Carlo summary of one set by the per-set loop ``monte_carlo_many`` replaced.

    The set has a simulator of its own, its batches are sized by its own
    draws, and each seed's generator draws only the normals this set reads.
    """
    sim = simulate.ClosedLoopSimulator(cache, ids)
    batches = math.ceil(runs / max(1, simulate._DRAW_FLOATS // sim._draws))
    ends = [base_seed + runs * b // batches for b in range(batches + 1)]
    costs = []
    for start, stop in zip(ends, ends[1:]):
        draws = np.stack([np.random.Generator(np.random.Philox(seed)).standard_normal(sim._draws)
                          for seed in range(start, stop)])
        costs.append(sim._rollouts(draws)[3])
    costs = np.concatenate(costs)
    return lq.MonteCarloSummary(
        mean_cost=float(np.mean(costs)),
        std_error=float(np.std(costs, ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0,
        run_count=runs,
        analytical_g=cache.g(ids),
    )


def reference_sweep_point(base, scenario_id, mandatory, methods, budgets, args):
    """The rows of one sweep grid point by the per-row loop ``cli._sweep_point`` replaced.

    Each row selects its set, rolls it out alone with ``reference_monte_carlo``
    and then certifies, before the next row starts.
    """
    cache = cli._solved(base)
    ratio = lq.ratio_report(cache, args.ratio_cap) if "greedy" in methods else None
    rows = []
    for budget in budgets:
        for method in methods:
            report = cli._run_method(cache, "budget", method, budget, args, mandatory)
            summary = None
            if args.runs > 0:
                summary = reference_monte_carlo(cache, report.chosen, args.runs, args.seed)
            certified = cli._certify(cache, report, args, ratio)
            rows.append(cli._selection_row(scenario_id, base, report, summary, certified))
    return rows


def reference_ratio_from_table(values, count: int):
    """Exact supermodularity ratio and witness by plain enumeration of a value table.

    This is the O(n 3^n) triple loop the subset-minimum reduction replaced:
    every superset mask B ascending, every sensor x outside B ascending, and
    every subset A of B from B itself down to the empty set; a strictly
    smaller ratio replaces the running minimum.
    """
    values = [float(v) for v in values]
    zero = 1e-12 * max(abs(v) for v in values)   # a gain at most this counts as zero
    best_ratio = None
    best_witness = None
    for bmask in range(1 << count):
        for x in range(count):
            bit = 1 << x
            if bmask & bit:
                continue
            den = values[bmask] - values[bmask | bit]
            if den <= zero:
                continue
            sub = bmask
            while True:
                num = values[sub] - values[sub | bit]
                ratio = 0.0 if num <= zero else num / den
                if best_ratio is None or ratio < best_ratio:
                    best_ratio = ratio
                    best_witness = lq.RatioWitness(
                        subset=mask_ids(sub), superset=mask_ids(bmask),
                        sensor=x, subset_gain=num, superset_gain=den, ratio=ratio)
                if sub == 0:
                    break
                sub = (sub - 1) & bmask
    if best_ratio is None:
        return 1.0, None
    return min(max(best_ratio, 0.0), 1.0), best_witness
