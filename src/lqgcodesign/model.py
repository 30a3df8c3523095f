"""Problem data types, validation, and scenario (de)serialization.

A scenario bundles a linear time-varying plant, quadratic control weights,
and a bank of candidate sensors, each with a wiring matrix, a noise
covariance, and a nonnegative selection cost.  All matrix sequences are
indexed 0-based over ``t = 0..horizon-1``; a field given as one matrix is
converted and checked once and broadcast over the horizon, and a field whose
steps are bit-identical is saved as one matrix.  A field
whose shape is fixed over the horizon is one read-only stack with a leading
time axis: the plant's ``A`` and ``W`` and the state weight ``Q`` are
(T, n, n), a sensor's ``C`` and ``V`` are (T, p, n) and (T, p, p).  ``B``
and ``R`` stay tuples of per-step matrices, because the input size m_t of
``B[t]`` and ``R[t]`` may change with t.

Each constructor converts and checks its fields once: shapes, symmetry
(tolerance 1e-9), positive semidefiniteness (eigenvalues >= -1e-9), and
strict positive definiteness where inversion is required (minimum
eigenvalue > 1e-12); a message names the field and its first failing time
index.  Instances are immutable and safe to share across concurrent readers.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from ._linalg import block_diag, constant_over_time, frozen, symmetrize

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
    """An index-sized integer; anything else raises ``ValidationError``."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if (isinstance(value, bool) or number is None or number != value
            or abs(number) > sys.maxsize):  # 1e308 is integral, but no length or index
        raise ValidationError(f"{name}: expected an integer, got {value!r}")
    return number


def _as_matrix(value, name: str, t: int | None = None) -> np.ndarray:
    """A nonempty, finite 2-D float array, not yet copied or frozen."""
    arr = _as_array(value, _fmt(name, t))
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(f"{_fmt(name, t)}: expected a nonempty 2-D matrix")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{_fmt(name, t)}: entries must be finite")
    return arr


def _as_vector(value, name: str) -> np.ndarray:
    arr = _as_array(value, name)
    if arr.ndim != 1:
        raise ValidationError(f"{name}: expected a 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: entries must be finite")
    return frozen(arr)


def _fail_first(bad: np.ndarray, name: str, problem: str) -> None:
    """Raise if ``bad`` holds for a matrix, or at a step of a stack, naming the first such step."""
    if bad.any():
        t = int(np.argmax(bad)) if bad.ndim else None
        raise ValidationError(f"{_fmt(name, t)}: {problem}")


def _require_shape(a: np.ndarray, shape: tuple[int, int], name: str, t: int | None = None,
                   source: str = "") -> None:
    if a.shape != shape:
        raise ValidationError(
            f"{_fmt(name, t)}: expected shape {shape}{source}, got {a.shape}"
        )


def _require_symmetric(a: np.ndarray, name: str) -> None:
    """A matrix, or every step of a (T, k, k) stack, symmetric within ``SYMMETRY_TOL``."""
    if a.shape[-1] != a.shape[-2]:
        where = _fmt(name, 0 if a.ndim == 3 else None)
        raise ValidationError(f"{where}: expected a square matrix, got {a.shape[-2:]}")
    half = 0.5 * a  # halves of finite entries differ by a finite amount
    skew = np.max(np.abs(half - np.swapaxes(half, -1, -2)), axis=(-2, -1))
    _fail_first(skew > 0.5 * SYMMETRY_TOL, name, f"not symmetric within {SYMMETRY_TOL}")


def _min_eigenvalues(a: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(symmetrize(a))[..., 0]


def _distinct(a: np.ndarray) -> np.ndarray:
    """A stack whose steps share step 0's bits as step 0 alone, so each check runs once."""
    return a[:1] if a.ndim == 3 and constant_over_time(a) else a


def _require_psd(a: np.ndarray, name: str) -> None:
    a = _distinct(a)
    _require_symmetric(a, name)
    _fail_first(_min_eigenvalues(a) < PSD_EIG_TOL, name, "not positive semidefinite")


def _require_pd(a: np.ndarray, name: str, problem: str) -> None:
    a = _distinct(a)
    _require_symmetric(a, name)
    _fail_first(_min_eigenvalues(a) <= PD_MIN_EIG, name, problem)


def _steps(value, horizon: int, name: str):
    """A field's ``horizon`` per-step matrices as given, or its one matrix repeated, unconverted."""
    first = value[0] if isinstance(value, (list, tuple)) and value else None
    if isinstance(value, np.ndarray) and value.ndim in (2, 3):
        per_step = value.ndim == 3
    elif isinstance(first, np.ndarray):
        per_step = first.ndim == 2
    elif isinstance(first, (list, tuple)) and first:
        per_step = isinstance(first[0], (list, tuple, np.ndarray))
    else:
        raise ValidationError(f"{name}: expected a matrix or a sequence of matrices")
    if not per_step:
        return [value] * horizon
    if len(value) != horizon:
        raise ValidationError(
            f"{name}: expected {horizon} matrices, got {len(value)}"
        )
    return value


def _converted(steps, name: str) -> list[np.ndarray]:
    """Each step as a matrix, or, when every step is one object, that matrix once, no step named."""
    if all(m is steps[0] for m in steps):
        return [_as_matrix(steps[0], name)]
    return [_as_matrix(m, name, t) for t, m in enumerate(steps)]


def _matrix_sequence(value, horizon: int, name: str) -> tuple[np.ndarray, ...]:
    """A matrix-per-step field whose shape may change with t, as a tuple of read-only matrices."""
    mats = tuple(frozen(m) for m in _converted(_steps(value, horizon, name), name))
    return mats * (horizon // len(mats))  # one matrix given stays one object


def _stack(steps, name: str, shape: tuple[int, int] | None = None,
           cite_step_0: bool = False) -> np.ndarray:
    """A fixed-shape per-step field as one read-only (T, rows, cols) stack.

    Converts each step, or one matrix repeated, once and checks ``shape``, by
    default step 0's; with ``cite_step_0`` a mismatch message cites step 0.
    One matrix is written into every step of the stack, with no stack of it
    first.
    """
    mats = _converted(steps, name)
    source = " as at time index 0" if cite_step_0 else ""
    for t, m in enumerate(mats):
        _require_shape(m, shape or mats[0].shape, name, t, source)
    out = np.empty((len(steps), *mats[0].shape))
    if len(mats) == 1:
        out[:] = mats[0]
    else:
        np.stack(mats, out=out)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Sensor:
    """One candidate sensor: wiring matrices, noise covariances, and a cost.

    ``C`` and ``V`` take a sequence of per-step matrices and are stored as
    read-only stacks: ``C[t]`` is the (p, state_dim) wiring at step t and
    ``V[t]`` the p x p measurement noise covariance, strictly positive
    definite at every step.
    """

    id: int
    C: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    cost: float

    def __post_init__(self) -> None:
        if isinstance(self.id, bool) or not isinstance(self.id, (int, np.integer)) or self.id < 0:
            raise ValidationError(f"sensor id must be a nonnegative integer, got {self.id!r}")
        object.__setattr__(self, "id", int(self.id))
        label = f"sensor {self.id}"
        if len(self.C) == 0 or len(self.C) != len(self.V):
            raise ValidationError(f"{label}: C and V must be nonempty sequences of equal length")
        C = _stack(self.C, f"{label} C")
        V = _stack(self.V, f"{label} V", (C.shape[1],) * 2)
        _require_pd(V, f"{label} V", "sensor noise not positive definite")
        cost = _as_number(self.cost, f"{label} cost")
        if not np.isfinite(cost) or cost < 0.0:
            raise ValidationError(f"{label}: cost must be finite and nonnegative")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "cost", cost)

    @classmethod
    def time_invariant(cls, sensor_id: int, C, V, cost: float, horizon: int) -> "Sensor":
        """Build a sensor whose wiring and noise are constant over the horizon."""
        return cls(id=sensor_id, C=[C] * horizon, V=[V] * horizon, cost=cost)

    @property
    def output_dim(self) -> int:
        return self.C.shape[1]

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
            if s.C.shape[2] != n:
                raise ValidationError(
                    f"sensor {s.id} C: expected {n} columns, got {s.C.shape[2]}"
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
    ``A[t]``, ``B[t]``, ``W[t]`` govern the transition from step t to t+1;
    ``A`` and ``W`` are read-only (T, n, n) stacks.
    """

    horizon: int
    state_dim: int
    A: np.ndarray = field(repr=False)
    B: tuple[np.ndarray, ...] = field(repr=False)
    W: np.ndarray = field(repr=False)
    sigma_init: np.ndarray = field(repr=False)
    x1_mean: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        T = _as_int(self.horizon, "horizon")
        n = _as_int(self.state_dim, "state_dim")
        if T < 1:
            raise ValidationError("horizon must be at least 1")
        if n < 1:
            raise ValidationError("state_dim must be at least 1")
        A = _stack(_steps(self.A, T, "A"), "A", (n, n))
        B = _matrix_sequence(self.B, T, "B")
        for t, m in enumerate(B):
            if m.shape[0] != n or m.shape[1] < 1:
                raise ValidationError(
                    f"{_fmt('B', t)}: expected {n} rows and at least one column, got {m.shape}"
                )
        W = _stack(_steps(self.W, T, "W"), "W", (n, n))
        _require_psd(W, "W")
        sigma = frozen(_as_matrix(self.sigma_init, "sigma_init"))
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
    """Quadratic stage weights: Q[t] PSD on the state, a (T, n, n) stack; R[t] PD on the input."""

    horizon: int
    Q: np.ndarray = field(repr=False)
    R: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        T = _as_int(self.horizon, "horizon")
        if T < 1:
            raise ValidationError("horizon must be at least 1")
        Q = _stack(_steps(self.Q, T, "Q"), "Q", cite_step_0=True)
        R = _matrix_sequence(self.R, T, "R")
        _require_psd(Q, "Q")
        for t, m in enumerate(R):
            if t == 0 or m is not R[t - 1]:  # one matrix repeated is checked once
                _require_pd(m, _fmt("R", t), "not positive definite")
        object.__setattr__(self, "horizon", T)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)


@dataclass(frozen=True)
class Scenario:
    """A complete co-design problem: plant, weights, sensors, and constraints.

    ``budget`` bounds the total cost of the selected sensors; ``kappa``
    bounds the achievable LQG cost.  Either may be absent: the selection
    routines take their constraint as an argument, and the stored values
    are defaults for the command line and ``ObjectiveCache.kappa_bar``.
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
        _require_shape(w.Q[0], (n, n), "Q", 0)
        for t in range(T):
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
            if getattr(self, name) is not None:
                object.__setattr__(self, name, constraint(getattr(self, name), name))

    @property
    def horizon(self) -> int:
        return self.system.horizon

    @property
    def state_dim(self) -> int:
        return self.system.state_dim


def constraint(value, name: str) -> float:
    """A budget or cost cap as a float; ``ValidationError`` unless finite and nonnegative."""
    value = _as_number(value, name)
    if not np.isfinite(value) or value < 0.0:
        raise ValidationError(f"{name} must be finite and nonnegative")
    return value


def chosen_ids(suite: SensorSuite, ids) -> tuple[int, ...]:
    """The distinct ids of a selection, ascending; ``_as_int`` and ``suite.sensor`` check each."""
    chosen = set(_as_int(i, "sensor id") for i in ids)
    for i in chosen:
        suite.sensor(i)
    return tuple(sorted(chosen))


def stack_sensors(scenario: Scenario, ids) -> tuple[np.ndarray, np.ndarray]:
    """Stack the selected sensors' wiring and noise over the horizon, ascending by id.

    Returns ``(C, V)``: C is (T, P, state_dim), the rows of each sensor in
    turn, and V the (T, P, P) block-diagonal joint noise covariance, P being
    the set's total output size.  The empty selection has P = 0.
    """
    T, n = scenario.horizon, scenario.state_dim
    sensors = [scenario.suite.sensors[i] for i in chosen_ids(scenario.suite, ids)]
    C = np.concatenate([np.zeros((T, 0, n))] + [s.C for s in sensors], axis=1)
    V = block_diag([np.zeros((T, 0, 0))] + [s.V for s in sensors])
    return C, V


def set_cost(suite: SensorSuite, ids) -> float:
    """Total selection cost of a sensor set; additive, empty set costs 0.

    Summation runs in ascending id order, one term at a time, so the value
    never depends on the order in which a set was assembled.
    """
    return float(np.cumsum([0.0] + [suite.sensors[i].cost for i in chosen_ids(suite, ids)])[-1])


_TOP_KEYS = {
    "horizon", "state_dim", "A", "B", "W", "Q", "R",
    "sigma_init", "x1_mean", "sensors", "budget", "kappa",
}
_SENSOR_KEYS = {"id", "C", "V", "cost"}


def scenario_from_dict(data: dict) -> Scenario:
    """Build a validated scenario from plain JSON-style data; the constructors check the values."""
    if not isinstance(data, dict):
        raise ValidationError("scenario document must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown scenario fields: {sorted(unknown)}")
    missing = {"horizon", "state_dim", "A", "B", "W", "Q", "R", "sigma_init", "sensors"} - set(data)
    if missing:
        raise ValidationError(f"missing scenario fields: {sorted(missing)}")
    system = LtvSystem(
        horizon=data["horizon"],
        state_dim=data["state_dim"],
        A=data["A"],
        B=data["B"],
        W=data["W"],
        sigma_init=data["sigma_init"],
        x1_mean=data.get("x1_mean"),
    )
    T = system.horizon
    weights = LqgWeights(horizon=T, Q=data["Q"], R=data["R"])
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
            C=_steps(entry["C"], T, f"sensor {sid} C"),
            V=_steps(entry["V"], T, f"sensor {sid} V"),
            cost=entry["cost"],
        ))
    suite = SensorSuite(sensors=tuple(sensors), state_dim=system.state_dim)
    return Scenario(
        system=system,
        suite=suite,
        weights=weights,
        budget=data.get("budget"),
        kappa=data.get("kappa"),
    )


def _field(steps) -> list:
    """A per-step field as one matrix when its steps are bit-identical, else one per step."""
    return steps[0].tolist() if constant_over_time(steps) else [m.tolist() for m in steps]


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-data form of a scenario; a field whose steps are bit-identical is one matrix."""
    sys_ = scenario.system
    out = {
        "horizon": sys_.horizon,
        "state_dim": sys_.state_dim,
        "A": _field(sys_.A),
        "B": _field(sys_.B),
        "W": _field(sys_.W),
        "Q": _field(scenario.weights.Q),
        "R": _field(scenario.weights.R),
        "sigma_init": sys_.sigma_init.tolist(),
        "x1_mean": sys_.x1_mean.tolist(),
        "sensors": [
            {
                "id": s.id,
                "C": _field(s.C),
                "V": _field(s.V),
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
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting past the recursion limit
        raise ValidationError(f"{path}: malformed JSON: {exc}") from None
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario as deterministic, sorted-key JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")
