"""Problem data types, validation, and scenario (de)serialization.

A scenario bundles a linear time-varying plant, quadratic control weights,
and a bank of candidate sensors, each with a wiring matrix, a noise
covariance, and a nonnegative selection cost.  All matrix sequences are
indexed 0-based over ``t = 0..horizon-1``; JSON files may give a
time-invariant matrix once and it is broadcast over the horizon.

Everything is validated on construction: shapes, symmetry (tolerance 1e-9),
positive semidefiniteness (eigenvalues >= -1e-9), and strict positive
definiteness where inversion is required (minimum eigenvalue > 1e-12).
Instances are immutable after construction and safe to share across
concurrent readers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._linalg import block_diag, frozen, min_eigenvalue

SYMMETRY_TOL = 1e-9
PSD_EIG_TOL = -1e-9
PD_MIN_EIG = 1e-12


class ValidationError(ValueError):
    """Scenario data violates a shape, symmetry, or definiteness requirement."""


def _fmt(name: str, t: int | None) -> str:
    return name if t is None else f"{name} at time index {t}"


def _as_array(value, name: str) -> np.ndarray:
    """A float array; ragged or non-numeric data raises ``ValidationError``."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name}: expected numbers in a rectangular array") from None


def _as_number(value, name: str) -> float:
    """A float from a scalar; anything else raises ``ValidationError`` naming ``name``."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name}: expected a number, got {value!r}") from None


def _as_int(value, name: str) -> int:
    """An integer; booleans, fractions and non-numbers raise ``ValidationError``."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if isinstance(value, bool) or number is None or number != value:
        raise ValidationError(f"{name}: expected an integer, got {value!r}")
    return number


def _as_matrix(value, name: str, t: int | None = None) -> np.ndarray:
    arr = _as_array(value, _fmt(name, t))
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(f"{_fmt(name, t)}: expected a nonempty 2-D matrix")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{_fmt(name, t)}: entries must be finite")
    return frozen(arr)


def _as_vector(value, name: str) -> np.ndarray:
    arr = _as_array(value, name)
    if arr.ndim != 1:
        raise ValidationError(f"{name}: expected a 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: entries must be finite")
    return frozen(arr)


def _require_shape(a: np.ndarray, shape: tuple[int, int], name: str, t: int | None = None) -> None:
    if a.shape != shape:
        raise ValidationError(
            f"{_fmt(name, t)}: expected shape {shape}, got {a.shape}"
        )


def _require_symmetric(a: np.ndarray, name: str, t: int | None = None) -> None:
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"{_fmt(name, t)}: expected a square matrix, got {a.shape}")
    if np.max(np.abs(a - a.T)) > SYMMETRY_TOL:
        raise ValidationError(f"{_fmt(name, t)}: not symmetric within {SYMMETRY_TOL}")


def _require_psd(a: np.ndarray, name: str, t: int | None = None) -> None:
    _require_symmetric(a, name, t)
    if min_eigenvalue(a) < PSD_EIG_TOL:
        raise ValidationError(f"{_fmt(name, t)}: not positive semidefinite")


def _require_pd(a: np.ndarray, name: str, t: int | None = None) -> None:
    _require_symmetric(a, name, t)
    if min_eigenvalue(a) <= PD_MIN_EIG:
        raise ValidationError(f"{_fmt(name, t)}: not positive definite")


def _matrix_sequence(value, horizon: int, name: str) -> tuple[np.ndarray, ...]:
    """Normalize a matrix-per-step field.

    Accepts either a sequence of ``horizon`` matrices or a single matrix,
    which is broadcast over every step.
    """
    if isinstance(value, np.ndarray):
        if value.ndim == 2:
            mat = _as_matrix(value, name)
            return (mat,) * horizon
        if value.ndim == 3:
            value = list(value)
        else:
            raise ValidationError(f"{name}: expected a matrix or a sequence of matrices")
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ValidationError(f"{name}: expected a matrix or a sequence of matrices")
    first = value[0]
    if isinstance(first, np.ndarray):
        per_step = first.ndim == 2
    elif isinstance(first, (list, tuple)) and len(first) > 0:
        per_step = isinstance(first[0], (list, tuple, np.ndarray))
    else:
        raise ValidationError(f"{name}: expected a matrix or a sequence of matrices")
    if not per_step:
        mat = _as_matrix(value, name)
        return (mat,) * horizon
    if len(value) != horizon:
        raise ValidationError(
            f"{name}: expected {horizon} matrices, got {len(value)}"
        )
    return tuple(_as_matrix(m, name, t) for t, m in enumerate(value))


@dataclass(frozen=True)
class Sensor:
    """One candidate sensor: wiring matrices, noise covariances, and a cost.

    ``C[t]`` has shape (p, state_dim) and ``V[t]`` is the p x p measurement
    noise covariance, strictly positive definite at every step.
    """

    id: int
    C: tuple[np.ndarray, ...] = field(repr=False)
    V: tuple[np.ndarray, ...] = field(repr=False)
    cost: float

    def __post_init__(self) -> None:
        if not isinstance(self.id, (int, np.integer)) or self.id < 0:
            raise ValidationError(f"sensor id must be a nonnegative integer, got {self.id!r}")
        object.__setattr__(self, "id", int(self.id))
        label = f"sensor {self.id}"
        C = tuple(_as_matrix(m, f"{label} C", t) for t, m in enumerate(self.C))
        V = tuple(_as_matrix(m, f"{label} V", t) for t, m in enumerate(self.V))
        if len(C) == 0 or len(C) != len(V):
            raise ValidationError(f"{label}: C and V must be nonempty sequences of equal length")
        p, n = C[0].shape
        for t, m in enumerate(C):
            _require_shape(m, (p, n), f"{label} C", t)
        for t, m in enumerate(V):
            _require_shape(m, (p, p), f"{label} V", t)
            _require_symmetric(m, f"{label} V", t)
            if min_eigenvalue(m) <= PD_MIN_EIG:
                raise ValidationError(
                    f"{_fmt(f'{label} V', t)}: sensor noise not positive definite"
                )
        cost = _as_number(self.cost, f"{label} cost")
        if not np.isfinite(cost) or cost < 0.0:
            raise ValidationError(f"{label}: cost must be finite and nonnegative")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "cost", cost)

    @classmethod
    def time_invariant(cls, sensor_id: int, C, V, cost: float, horizon: int) -> "Sensor":
        """Build a sensor whose wiring and noise are constant over the horizon."""
        Cm = _as_matrix(C, f"sensor {sensor_id} C")
        Vm = _as_matrix(V, f"sensor {sensor_id} V")
        return cls(id=sensor_id, C=(Cm,) * horizon, V=(Vm,) * horizon, cost=cost)

    @property
    def output_dim(self) -> int:
        return self.C[0].shape[0]

    @property
    def horizon(self) -> int:
        return len(self.C)


@dataclass(frozen=True)
class SensorSuite:
    """The ground set of candidate sensors, ids contiguous from 0."""

    sensors: tuple[Sensor, ...]
    state_dim: int

    def __post_init__(self) -> None:
        sensors = tuple(sorted(self.sensors, key=lambda s: s.id))
        ids = [s.id for s in sensors]
        if ids != list(range(len(sensors))):
            raise ValidationError(
                f"sensor ids must be unique and contiguous from 0, got {ids}"
            )
        n = _as_int(self.state_dim, "state_dim")
        if n < 1:
            raise ValidationError("state_dim must be at least 1")
        for s in sensors:
            for t, m in enumerate(s.C):
                if m.shape[1] != n:
                    raise ValidationError(
                        f"{_fmt(f'sensor {s.id} C', t)}: expected {n} columns, got {m.shape[1]}"
                    )
        object.__setattr__(self, "sensors", sensors)
        object.__setattr__(self, "state_dim", n)

    def __len__(self) -> int:
        return len(self.sensors)

    def __iter__(self):
        return iter(self.sensors)

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(s.id for s in self.sensors)

    def sensor(self, sensor_id: int) -> Sensor:
        if not 0 <= sensor_id < len(self.sensors):
            raise ValidationError(f"sensor id {sensor_id} not in suite")
        return self.sensors[sensor_id]


@dataclass(frozen=True)
class LtvSystem:
    """Linear time-varying plant with Gaussian process noise and initial state.

    The initial state has mean ``x1_mean`` and covariance ``sigma_init``;
    ``A[t]``, ``B[t]``, ``W[t]`` govern the transition from step t to t+1.
    """

    horizon: int
    state_dim: int
    A: tuple[np.ndarray, ...] = field(repr=False)
    B: tuple[np.ndarray, ...] = field(repr=False)
    W: tuple[np.ndarray, ...] = field(repr=False)
    sigma_init: np.ndarray = field(repr=False)
    x1_mean: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        T = _as_int(self.horizon, "horizon")
        n = _as_int(self.state_dim, "state_dim")
        if T < 1:
            raise ValidationError("horizon must be at least 1")
        if n < 1:
            raise ValidationError("state_dim must be at least 1")
        A = _matrix_sequence(self.A, T, "A")
        B = _matrix_sequence(self.B, T, "B")
        W = _matrix_sequence(self.W, T, "W")
        for t, m in enumerate(A):
            _require_shape(m, (n, n), "A", t)
        for t, m in enumerate(B):
            if m.shape[0] != n or m.shape[1] < 1:
                raise ValidationError(
                    f"{_fmt('B', t)}: expected {n} rows and at least one column, got {m.shape}"
                )
        for t, m in enumerate(W):
            _require_shape(m, (n, n), "W", t)
            _require_psd(m, "W", t)
        sigma = _as_matrix(self.sigma_init, "sigma_init")
        _require_shape(sigma, (n, n), "sigma_init")
        _require_psd(sigma, "sigma_init")
        mean = (
            frozen(np.zeros(n))
            if self.x1_mean is None
            else _as_vector(self.x1_mean, "x1_mean")
        )
        if mean.shape != (n,):
            raise ValidationError(f"x1_mean: expected length {n}, got {mean.shape[0]}")
        object.__setattr__(self, "horizon", T)
        object.__setattr__(self, "state_dim", n)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "sigma_init", sigma)
        object.__setattr__(self, "x1_mean", mean)

    @property
    def input_dims(self) -> tuple[int, ...]:
        return tuple(m.shape[1] for m in self.B)


@dataclass(frozen=True)
class LqgWeights:
    """Quadratic stage weights: Q[t] PSD on the state, R[t] PD on the input."""

    horizon: int
    Q: tuple[np.ndarray, ...] = field(repr=False)
    R: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        T = _as_int(self.horizon, "horizon")
        if T < 1:
            raise ValidationError("horizon must be at least 1")
        Q = _matrix_sequence(self.Q, T, "Q")
        R = _matrix_sequence(self.R, T, "R")
        for t, m in enumerate(Q):
            _require_psd(m, "Q", t)
        for t, m in enumerate(R):
            _require_pd(m, "R", t)
        object.__setattr__(self, "horizon", T)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)


@dataclass(frozen=True)
class Scenario:
    """A complete co-design problem: plant, weights, sensors, and constraints.

    ``budget`` bounds the total cost of the selected sensors; ``kappa``
    bounds the achievable LQG cost.  Either may be absent and is then
    required only by the operations that use it.
    """

    system: LtvSystem
    suite: SensorSuite
    weights: LqgWeights
    budget: float | None = None
    kappa: float | None = None

    def __post_init__(self) -> None:
        sys_, suite, w = self.system, self.suite, self.weights
        T, n = sys_.horizon, sys_.state_dim
        if w.horizon != T:
            raise ValidationError(
                f"weights horizon {w.horizon} does not match system horizon {T}"
            )
        for t in range(T):
            _require_shape(w.Q[t], (n, n), "Q", t)
            m = sys_.B[t].shape[1]
            _require_shape(w.R[t], (m, m), "R", t)
        if suite.state_dim != n:
            raise ValidationError(
                f"suite state_dim {suite.state_dim} does not match system state_dim {n}"
            )
        for s in suite:
            if s.horizon != T:
                raise ValidationError(
                    f"sensor {s.id}: expected {T} steps of C/V, got {s.horizon}"
                )
        for name in ("budget", "kappa"):
            val = getattr(self, name)
            if val is None:
                continue
            val = _as_number(val, name)
            if not np.isfinite(val) or val < 0.0:
                raise ValidationError(f"{name} must be finite and nonnegative")
            object.__setattr__(self, name, val)

    @property
    def horizon(self) -> int:
        return self.system.horizon

    @property
    def state_dim(self) -> int:
        return self.system.state_dim


def chosen_ids(suite: SensorSuite, ids) -> tuple[int, ...]:
    """The distinct ids of a selection in ascending order, each checked by ``suite.sensor``."""
    chosen = set(int(i) for i in ids)
    for i in chosen:
        suite.sensor(i)
    return tuple(sorted(chosen))


def stack_sensors(suite: SensorSuite, ids, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack the selected sensors' step-t wiring and noise, ascending by id.

    Returns ``(C, V)`` where C is (sum p_i, state_dim) and V is the
    block-diagonal joint noise covariance.  The empty selection yields a
    0-row C and a 0 x 0 V.
    """
    n = suite.state_dim
    blocks_c = []
    blocks_v = []
    for i in chosen_ids(suite, ids):
        s = suite.sensors[i]
        if not 0 <= t < s.horizon:
            raise ValidationError(f"time index {t} out of range for sensor {i}")
        blocks_c.append(s.C[t])
        blocks_v.append(s.V[t])
    if not blocks_c:
        return np.zeros((0, n)), np.zeros((0, 0))
    return np.vstack(blocks_c), block_diag(blocks_v)


def set_cost(suite: SensorSuite, ids) -> float:
    """Total selection cost of a sensor set; additive, empty set costs 0.

    Summation runs in ascending id order so the value never depends on the
    order in which a set was assembled.
    """
    return float(sum(suite.sensors[i].cost for i in chosen_ids(suite, ids)))


_TOP_KEYS = {
    "horizon", "state_dim", "A", "B", "W", "Q", "R",
    "sigma_init", "x1_mean", "sensors", "budget", "kappa",
}
_SENSOR_KEYS = {"id", "C", "V", "cost"}


def scenario_from_dict(data: dict) -> Scenario:
    """Build a validated scenario from plain JSON-style data."""
    if not isinstance(data, dict):
        raise ValidationError("scenario document must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown scenario fields: {sorted(unknown)}")
    missing = {"horizon", "state_dim", "A", "B", "W", "Q", "R", "sigma_init", "sensors"} - set(data)
    if missing:
        raise ValidationError(f"missing scenario fields: {sorted(missing)}")
    T = _as_int(data["horizon"], "horizon")
    n = _as_int(data["state_dim"], "state_dim")
    system = LtvSystem(
        horizon=T,
        state_dim=n,
        A=_matrix_sequence(data["A"], T, "A"),
        B=_matrix_sequence(data["B"], T, "B"),
        W=_matrix_sequence(data["W"], T, "W"),
        sigma_init=data["sigma_init"],
        x1_mean=data.get("x1_mean"),
    )
    weights = LqgWeights(horizon=T, Q=_matrix_sequence(data["Q"], T, "Q"),
                         R=_matrix_sequence(data["R"], T, "R"))
    raw_sensors = data["sensors"]
    if not isinstance(raw_sensors, list):
        raise ValidationError("sensors must be an array of sensor objects")
    sensors = []
    for k, entry in enumerate(raw_sensors):
        if not isinstance(entry, dict):
            raise ValidationError(f"sensors[{k}] must be an object")
        unknown = set(entry) - _SENSOR_KEYS
        if unknown:
            raise ValidationError(f"sensors[{k}]: unknown fields {sorted(unknown)}")
        missing = _SENSOR_KEYS - set(entry)
        if missing:
            raise ValidationError(f"sensors[{k}]: missing fields {sorted(missing)}")
        sid = entry["id"]
        sensors.append(Sensor(
            id=sid,
            C=_matrix_sequence(entry["C"], T, f"sensor {sid} C"),
            V=_matrix_sequence(entry["V"], T, f"sensor {sid} V"),
            cost=entry["cost"],
        ))
    suite = SensorSuite(sensors=tuple(sensors), state_dim=n)
    return Scenario(
        system=system,
        suite=suite,
        weights=weights,
        budget=data.get("budget"),
        kappa=data.get("kappa"),
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-data form of a scenario; matrices written out for every step."""
    sys_ = scenario.system
    out = {
        "horizon": sys_.horizon,
        "state_dim": sys_.state_dim,
        "A": [m.tolist() for m in sys_.A],
        "B": [m.tolist() for m in sys_.B],
        "W": [m.tolist() for m in sys_.W],
        "Q": [m.tolist() for m in scenario.weights.Q],
        "R": [m.tolist() for m in scenario.weights.R],
        "sigma_init": sys_.sigma_init.tolist(),
        "x1_mean": sys_.x1_mean.tolist(),
        "sensors": [
            {
                "id": s.id,
                "C": [m.tolist() for m in s.C],
                "V": [m.tolist() for m in s.V],
                "cost": s.cost,
            }
            for s in scenario.suite
        ],
    }
    if scenario.budget is not None:
        out["budget"] = scenario.budget
    if scenario.kappa is not None:
        out["kappa"] = scenario.kappa
    return out


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed JSON: {exc}") from None
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario as deterministic, sorted-key JSON."""
    text = json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
