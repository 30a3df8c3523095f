"""Scenario schema: validation, round trips, sensor stacking, set costs."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqgcodesign as lq
from lqgcodesign import model

import support


def test_load_scalar_scenario(tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(support.scalar_scenario_dict()))
    scenario = lq.load_scenario(path)
    assert scenario.horizon == 1
    assert scenario.state_dim == 1
    assert len(scenario.suite) == 2
    assert scenario.budget == 2.0
    assert scenario.kappa == 2.0
    assert np.array_equal(scenario.system.x1_mean, np.zeros(1))


def test_single_matrix_broadcast():
    data = support.scalar_scenario_dict()
    data["horizon"] = 3
    scenario = lq.scenario_from_dict(data)
    assert len(scenario.system.A) == 3
    assert all(np.array_equal(a, [[1.0]]) for a in scenario.system.A)
    assert len(scenario.weights.Q) == 3
    assert scenario.suite.sensor(0).horizon == 3


def test_per_step_matrices_accepted():
    data = support.scalar_scenario_dict()
    data["horizon"] = 2
    data["A"] = [[[1.0]], [[0.5]]]
    scenario = lq.scenario_from_dict(data)
    assert np.array_equal(scenario.system.A[1], [[0.5]])


def test_round_trip_byte_identical(tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    for scenario in (lq.build_formation_scenario(agents=2, horizon=4, seed=3),
                     lq.build_uav_scenario(2, 5, "heterogeneous", 1),
                     support.per_step_sensor_scenario(0)):
        lq.save_scenario(scenario, first)
        lq.save_scenario(lq.load_scenario(first), second)
        assert first.read_bytes() == second.read_bytes()


def test_loading_converts_each_matrix_once(monkeypatch):
    scenario = support.per_step_sensor_scenario(0)
    data = json.loads(json.dumps(lq.scenario_to_dict(scenario)))
    # A, B, W, Q, R and the sensors' C and V per step, plus sigma_init
    matrices = scenario.horizon * (5 + 2 * len(scenario.suite)) + 1
    calls = []
    convert = model._as_matrix
    monkeypatch.setattr(model, "_as_matrix", lambda *args: calls.append(args) or convert(*args))
    checked = []
    eigenvalues = model._min_eigenvalues
    monkeypatch.setattr(model, "_min_eigenvalues",
                        lambda a: checked.append(a.size // a.shape[-1] ** 2) or eigenvalues(a))
    lq.scenario_from_dict(data)
    assert 0 < len(calls) <= matrices
    # a compact file gives each field once: one conversion and one eigen-check
    # of W, Q, R, sigma_init and each V, however long the horizon
    scenario = lq.build_formation_scenario(3, 20, "heterogeneous", 7)
    data = json.loads(json.dumps(lq.scenario_to_dict(scenario)))
    calls.clear()
    checked.clear()
    lq.scenario_from_dict(data)
    assert len(calls) <= 5 + 2 * len(scenario.suite) + 1
    assert sum(checked) == 4 + len(scenario.suite)


def _per_step_dict(scenario) -> dict:
    """The scenario in the older file format, every field written out for every step."""
    data = lq.scenario_to_dict(scenario)
    system, weights = scenario.system, scenario.weights
    for key, steps in (("A", system.A), ("B", system.B), ("W", system.W),
                       ("Q", weights.Q), ("R", weights.R)):
        data[key] = [m.tolist() for m in steps]
    for entry, sensor in zip(data["sensors"], scenario.suite):
        entry["C"], entry["V"] = sensor.C.tolist(), sensor.V.tolist()
    return json.loads(json.dumps(data))


def _arrays(scenario) -> list:
    """Every array of a scenario, as shape and bytes."""
    system, weights = scenario.system, scenario.weights
    arrays = [system.A, *system.B, system.W, system.sigma_init, system.x1_mean,
              weights.Q, *weights.R]
    arrays += [a for s in scenario.suite for a in (s.C, s.V, np.array(s.cost))]
    return [(a.shape, a.tobytes()) for a in arrays]


_FILE_SCENARIOS = {
    "formation-a3": lambda: lq.build_formation_scenario(3, 20, "heterogeneous", 7),
    "uav-a5": lambda: lq.build_uav_scenario(5, 20, "heterogeneous", 7),
    "per-step-sensors": lambda: support.per_step_sensor_scenario(0),
}


@pytest.mark.parametrize("name", list(_FILE_SCENARIOS))
def test_compact_and_per_step_files_load_to_equal_arrays(name):
    scenario = _FILE_SCENARIOS[name]()
    compact = json.loads(json.dumps(lq.scenario_to_dict(scenario)))
    per_step = _per_step_dict(scenario)
    assert compact != per_step
    # the older per-step format still loads, to the same bits as the compact file
    assert _arrays(lq.scenario_from_dict(compact)) == _arrays(scenario)
    assert _arrays(lq.scenario_from_dict(per_step)) == _arrays(scenario)
    assert lq.scenario_to_dict(lq.scenario_from_dict(per_step)) == compact


def test_bit_identical_fields_are_saved_once():
    data = lq.scenario_to_dict(lq.build_formation_scenario(3, 20, "heterogeneous", 7))
    assert all(np.ndim(data[key]) == 2 for key in ("A", "B", "W", "Q", "R"))
    assert all(np.ndim(entry["C"]) == np.ndim(entry["V"]) == 2 for entry in data["sensors"])
    data = lq.scenario_to_dict(support.per_step_sensor_scenario(0))
    assert all(np.ndim(entry["C"]) == np.ndim(entry["V"]) == 3 for entry in data["sensors"])
    # 0.0 and -0.0 differ in bits, so a field that holds both is saved per step
    data = support.scalar_scenario_dict()
    data.update(horizon=2, A=[[[0.0]], [[-0.0]]], W=[[-0.0]])
    saved = lq.scenario_to_dict(lq.scenario_from_dict(data))
    assert json.dumps(saved["A"]) == "[[[0.0]], [[-0.0]]]"
    assert json.dumps(saved["W"]) == "[[-0.0]]"


def test_round_trip_preserves_constraints(tmp_path):
    scenario = support.scalar_two_sensor_scenario(budget=1.5, kappa=0.9)
    path = tmp_path / "s.json"
    lq.save_scenario(scenario, path)
    again = lq.load_scenario(path)
    assert again.budget == 1.5
    assert again.kappa == 0.9


def test_optional_keys_omitted_when_unset(tmp_path):
    scenario = support.scalar_two_sensor_scenario(budget=None, kappa=None)
    data = lq.scenario_to_dict(scenario)
    assert "budget" not in data
    assert "kappa" not in data


def test_zero_noise_sensor_rejected():
    with pytest.raises(lq.ValidationError, match="sensor noise not positive definite"):
        lq.Sensor.time_invariant(0, [[1.0]], [[0.0]], 1.0, 1)


def test_asymmetric_noise_rejected():
    with pytest.raises(lq.ValidationError):
        lq.Sensor.time_invariant(0, [[1.0, 0.0]], [[1.0, 0.5], [0.0, 1.0]], 1.0, 1)


def test_negative_cost_rejected():
    with pytest.raises(lq.ValidationError):
        lq.Sensor.time_invariant(0, [[1.0]], [[1.0]], -0.5, 1)


def test_noncontiguous_ids_rejected():
    a = lq.Sensor.time_invariant(0, [[1.0]], [[1.0]], 1.0, 1)
    c = lq.Sensor.time_invariant(2, [[1.0]], [[1.0]], 1.0, 1)
    with pytest.raises(lq.ValidationError):
        lq.SensorSuite(sensors=(a, c), state_dim=1)


def test_unknown_sensor_lookup():
    scenario = support.scalar_two_sensor_scenario()
    with pytest.raises(lq.ValidationError, match="sensor id 5 not in suite"):
        scenario.suite.sensor(5)


def test_unknown_top_level_key_rejected():
    data = support.scalar_scenario_dict()
    data["extra"] = 1
    with pytest.raises(lq.ValidationError, match="extra"):
        lq.scenario_from_dict(data)


def test_unknown_sensor_key_rejected():
    data = support.scalar_scenario_dict()
    data["sensors"][0]["weight"] = 2
    with pytest.raises(lq.ValidationError, match="weight"):
        lq.scenario_from_dict(data)


def test_missing_required_key_rejected():
    data = support.scalar_scenario_dict()
    del data["R"]
    with pytest.raises(lq.ValidationError, match="R"):
        lq.scenario_from_dict(data)


def test_dimension_mismatch_rejected():
    data = support.scalar_scenario_dict()
    data["Q"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(lq.ValidationError, match="Q"):
        lq.scenario_from_dict(data)


def test_indefinite_q_rejected():
    data = support.scalar_scenario_dict()
    data["Q"] = [[-1.0]]
    with pytest.raises(lq.ValidationError, match="Q"):
        lq.scenario_from_dict(data)


def test_malformed_json_raises_validation_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(lq.ValidationError):
        lq.load_scenario(path)


def test_negative_budget_rejected():
    with pytest.raises(lq.ValidationError):
        support.scalar_two_sensor_scenario(budget=-1.0)


def test_time_varying_input_dims():
    system = lq.LtvSystem(horizon=2, state_dim=1, A=[[1.0]],
                          B=[[[1.0]], [[1.0, 0.0]]], W=[[0.0]], sigma_init=[[1.0]])
    weights = lq.LqgWeights(horizon=2, Q=[[1.0]],
                            R=[[[1.0]], [[1.0, 0.0], [0.0, 1.0]]])
    assert system.input_dims == (1, 2)
    scenario = lq.Scenario(system=system,
                           suite=lq.SensorSuite(sensors=(), state_dim=1),
                           weights=weights)
    assert scenario.horizon == 2


def test_input_dim_mismatch_rejected():
    system = lq.LtvSystem(horizon=2, state_dim=1, A=[[1.0]],
                          B=[[[1.0]], [[1.0, 0.0]]], W=[[0.0]], sigma_init=[[1.0]])
    weights = lq.LqgWeights(horizon=2, Q=[[1.0]], R=[[1.0]])
    with pytest.raises(lq.ValidationError):
        lq.Scenario(system=system,
                    suite=lq.SensorSuite(sensors=(), state_dim=1),
                    weights=weights)


def test_stack_sensors_empty():
    scenario = support.scalar_two_sensor_scenario()
    C, V = (a[0] for a in lq.stack_sensors(scenario, ()))
    assert C.shape == (0, 1)
    assert V.shape == (0, 0)


def test_stack_sensors_id_order():
    scenario = support.scalar_two_sensor_scenario()
    C, V = (a[0] for a in lq.stack_sensors(scenario, (1, 0)))
    assert np.array_equal(C, [[1.0], [1.0]])
    assert np.array_equal(V, [[1.0, 0.0], [0.0, 0.5]])


def test_stack_sensors_mixed_output_dims():
    wide = lq.Sensor.time_invariant(0, [[1.0, 0.0], [0.0, 1.0]], np.eye(2), 1.0, 1)
    narrow = lq.Sensor.time_invariant(1, [[1.0, 1.0]], [[2.0]], 1.0, 1)
    scenario = lq.Scenario(
        system=lq.LtvSystem(horizon=1, state_dim=2, A=np.eye(2), B=np.eye(2),
                            W=np.zeros((2, 2)), sigma_init=np.eye(2)),
        suite=lq.SensorSuite(sensors=(wide, narrow), state_dim=2),
        weights=lq.LqgWeights(horizon=1, Q=np.eye(2), R=np.eye(2)))
    C, V = (a[0] for a in lq.stack_sensors(scenario, (0, 1)))
    assert C.shape == (3, 2)
    assert V.shape == (3, 3)
    assert V[2, 2] == 2.0
    assert V[0, 2] == 0.0


def test_stack_sensors_matches_per_step_reference():
    for k, scenario in enumerate(support.differential_scenarios()):
        rng = np.random.default_rng(k)
        ids = scenario.suite.ids
        for chosen in ((), ids, tuple(i for i in ids if rng.random() < 0.5)):
            C, V = lq.stack_sensors(scenario, chosen)
            for t in range(scenario.horizon):
                want_c, want_v = support.stack_sensors(scenario.suite, chosen, t)
                assert np.array_equal(C[t], want_c) and np.array_equal(V[t], want_v)


def test_set_cost_values():
    scenario = support.scalar_two_sensor_scenario()
    assert lq.set_cost(scenario.suite, ()) == 0.0
    assert lq.set_cost(scenario.suite, (0,)) == 1.0
    assert lq.set_cost(scenario.suite, (0, 1)) == 3.0


@settings(max_examples=60, deadline=None)
@given(first=st.sets(st.integers(min_value=0, max_value=4)),
       second=st.sets(st.integers(min_value=0, max_value=4)))
def test_set_cost_modular(first, second):
    rng = np.random.default_rng(11)
    sensors = tuple(
        lq.Sensor.time_invariant(i, [[1.0]], [[1.0]], float(rng.uniform(0.1, 3.0)), 1)
        for i in range(5))
    suite = lq.SensorSuite(sensors=sensors, state_dim=1)
    lhs = lq.set_cost(suite, first) + lq.set_cost(suite, second)
    rhs = lq.set_cost(suite, first | second) + lq.set_cost(suite, first & second)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_frozen_arrays_read_only():
    scenario = support.scalar_two_sensor_scenario()
    with pytest.raises(ValueError):
        scenario.system.A[0][0, 0] = 2.0


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-3, max_value=50)
    | st.floats(min_value=-1e3, max_value=1e3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=8,
)
_FIELDS = ("horizon", "state_dim", "A", "B", "W", "Q", "R", "sigma_init", "x1_mean",
           "sensors", "budget", "kappa", "sensor id", "sensor C", "sensor V", "sensor cost")


@settings(max_examples=200)
@given(field=st.sampled_from(_FIELDS), value=_JSON)
def test_loader_returns_a_scenario_or_raises_validation_error(field, value):
    data = support.scalar_scenario_dict()
    if field.startswith("sensor "):
        data["sensors"][0][field.split()[1]] = value
    else:
        data[field] = value
    try:
        scenario = lq.scenario_from_dict(data)
    except lq.ValidationError:
        return
    assert isinstance(scenario, lq.Scenario)


@pytest.mark.parametrize("field, value, name", [
    ("kappa", [1], "kappa"),
    ("budget", {"a": 1}, "budget"),
    ("budget", "cheap", "budget"),
    ("horizon", 1.7, "horizon"),
    ("horizon", True, "horizon"),
    ("A", [[1.0, 2.0], [3.0]], "A"),
    ("sigma_init", [[None]], "sigma_init"),
    ("x1_mean", ["x"], "x1_mean"),
])
def test_malformed_scalar_names_the_field(field, value, name):
    data = support.scalar_scenario_dict()
    data[field] = value
    with pytest.raises(lq.ValidationError, match=f"^{name}: "):
        lq.scenario_from_dict(data)


@pytest.mark.parametrize("value", [2 ** 63, 1e308])
def test_horizon_past_the_index_range_is_rejected(value):
    # an integral value no sequence can be as long as; found by fuzzing the CLI
    data = support.scalar_scenario_dict()
    data["horizon"] = value
    with pytest.raises(lq.ValidationError, match="^horizon: expected an integer"):
        lq.scenario_from_dict(data)


def test_malformed_sensor_cost_names_the_sensor():
    data = support.scalar_scenario_dict()
    data["sensors"][1]["cost"] = None
    with pytest.raises(lq.ValidationError, match="^sensor 1 cost: expected a number"):
        lq.scenario_from_dict(data)


_ASYMMETRIC = [[1.0, 0.5], [0.0, 1.0]]


@pytest.mark.parametrize("fields, message", [
    ({"id": True}, "^sensor id must be a nonnegative integer, got True$"),
    ({"V": [[[1.0]], [[1.0]], [[0.0]], [[-1.0]]]},
     "^sensor 1 V at time index 2: sensor noise not positive definite$"),
    ({"C": [[1.0], [0.0]], "V": [np.eye(2).tolist(), _ASYMMETRIC] + [np.eye(2).tolist()] * 2},
     "^sensor 1 V at time index 1: not symmetric within "),
    ({"C": [[1.0, 0.0]]}, "^sensor 1 C.*: expected 1 columns, got 2$"),
    ({"C": [[[1.0]], [[1.0], [2.0, 3.0]], [[1.0]], [[1.0]]]}, "^sensor 1 C at time index 1: "),
    ({"C": [[[1.0]], [[1.0]], [[1.0], [2.0]], [[1.0]]]},
     r"^sensor 1 C at time index 2: expected shape \(1, 1\), got \(2, 1\)$"),
    ({"V": [[[1.0]], [[1.0]], [[1.0]], [[0.0]]]},
     "^sensor 1 V at time index 3: sensor noise not positive definite$"),
    # a matrix given once is checked once, with the message of its step 0
    ({"V": [[0.0]]}, "^sensor 1 V at time index 0: sensor noise not positive definite$"),
    ({"V": [[float("nan")]]}, "^sensor 1 V: entries must be finite$"),
], ids=["boolean-id", "V-not-pd", "V-asymmetric", "C-columns", "C-ragged", "C-step-shape",
        "V-not-pd-last-step", "V-once-not-pd", "V-once-not-finite"])
def test_malformed_sensor_field_names_the_sensor(fields, message):
    """Horizon 4; the message names the sensor, the field and the first failing step."""
    data = support.scalar_scenario_dict()
    data["horizon"] = 4
    data["sensors"][1].update(fields)
    with pytest.raises(lq.ValidationError, match=message):
        lq.scenario_from_dict(data)


def _two_state_dict() -> dict:
    """Horizon 3, two states, identity plant and weights, two scalar sensors."""
    eye = np.eye(2).tolist()
    data = support.scalar_scenario_dict()
    data.update(horizon=3, state_dim=2, A=eye, B=eye, W=eye, Q=eye, R=eye, sigma_init=eye)
    for entry in data["sensors"]:
        entry["C"] = [[1.0, 0.0]]
    return data


_EYE2 = np.eye(2).tolist()


@pytest.mark.parametrize("field, value, message", [
    ("A", [[[1.0]], _EYE2, _EYE2], r"^A at time index 0: expected shape \(2, 2\), got \(1, 1\)$"),
    ("A", [_EYE2, _EYE2, [[1.0]]], r"^A at time index 2: expected shape \(2, 2\), got \(1, 1\)$"),
    ("A", [[1.0]], r"^A at time index 0: expected shape \(2, 2\), got \(1, 1\)$"),
    ("W", [[[1.0]], _EYE2, _EYE2], r"^W at time index 0: expected shape \(2, 2\), got \(1, 1\)$"),
    ("W", [_EYE2, [[1.0, 2.0], [3.0, 1.0]], _EYE2],
     r"^W at time index 1: not symmetric within 1e-09$"),
    ("Q", [[[1.0]]] * 3, r"^Q at time index 0: expected shape \(2, 2\), got \(1, 1\)$"),
    ("Q", [[1.0, 0.0]], r"^Q at time index 0: expected a square matrix, got \(1, 2\)$"),
    ("Q", [_EYE2, _EYE2, [[1.0, 0.0], [0.0, -1.0]]],
     r"^Q at time index 2: not positive semidefinite$"),
    ("R", [_EYE2, _EYE2, [[1.0]]], r"^R at time index 2: expected shape \(2, 2\), got \(1, 1\)$"),
    ("B", [_EYE2, [[1.0, 0.0]], _EYE2],
     r"^B at time index 1: expected 2 rows and at least one column, got \(1, 2\)$"),
    ("sigma_init", [[1.0]], r"^sigma_init: expected shape \(2, 2\), got \(1, 1\)$"),
    ("W", [[1.0, 0.0], [0.0, -1.0]], r"^W at time index 0: not positive semidefinite$"),
    ("R", [[1.0, 0.0], [0.0, 0.0]], r"^R at time index 0: not positive definite$"),
], ids=["A-step-0", "A-step-2", "A-broadcast", "W-step-0", "W-asymmetric", "Q-every-step",
        "Q-not-square", "Q-indefinite", "R-step-2", "B-rows", "sigma_init", "W-once-indefinite",
        "R-once-singular"])
def test_plant_and_weight_messages_name_the_step(field, value, message):
    data = _two_state_dict()
    data[field] = value
    with pytest.raises(lq.ValidationError, match=message):
        lq.scenario_from_dict(data)


def test_q_step_shapes_must_agree():
    # the weights know no state dimension, so a step that differs from step 0 names both
    data = _two_state_dict()
    data["Q"] = [[[1.0]], _EYE2, _EYE2]
    with pytest.raises(lq.ValidationError,
                       match=r"^Q at time index 1: expected shape \(1, 1\) as at time index 0, "
                             r"got \(2, 2\)$"):
        lq.scenario_from_dict(data)


def test_sensor_c_and_v_lengths_must_match():
    with pytest.raises(lq.ValidationError,
                       match="^sensor 0: C and V must be nonempty sequences of equal length$"):
        lq.Sensor(id=0, C=[[[1.0]]] * 2, V=[[[1.0]]] * 3, cost=1.0)
