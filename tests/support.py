"""Deterministic fixtures and seeded random-instance generators for the tests.

The hand-derivable fixture values frozen in the tests all come from the
scalar suite (horizon 1, all-ones plant) and the two-step identity plant;
everything else is generated from explicit seeds so failures reproduce.
"""

from dataclasses import replace

import numpy as np

import lqgcodesign as lq


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
        bound, hypotheses = lq.ratio_lower_bound(scenario, sol)
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


def solved(scenario: lq.Scenario):
    """Convenience bundle: (scenario, solution, cache)."""
    sol = lq.solve_riccati(scenario.system, scenario.weights)
    return scenario, sol, lq.ObjectiveCache(scenario, sol)


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


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
    def _memo(memo: dict, one, sets) -> list[float]:
        keys = [frozenset(int(i) for i in ids) for ids in sets]
        for key in keys:
            if key not in memo:
                memo[key] = one(key)
        return [memo[key] for key in keys]

    def f_many(self, sets) -> list[float]:
        return self._memo(self._ref_f, self._f_one, sets)

    def logdet_many(self, sets) -> list[float]:
        return self._memo(self._ref_logdet, self._logdet_one, sets)
