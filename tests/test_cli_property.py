"""Property test of the CLI contract over generated configs.

Each example takes a small valid config of one scenario and replaces one
key with a generated JSON value.  Whatever the value, ``qoctl run`` must
exit 0, 2, 3 or 4, print one ``{"error": ...}`` object on failure, and
write byte-identical artifacts when run twice: ``summary.json``, the plot
data its ``outputs`` request and every other file of the output
directory.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qoctl import cli
from qoctl.scenarios import SCENARIOS, SCHEMA

# Small valid configs: at most 101 grid points and 2 iterations, each
# requesting its scenario's plot data.
BASES = {
    "rabi": {"grid": {"t0": 0.0, "tf": 1.0, "nt": 101},
             "outputs": ["population_vs_time"]},
    "landau_zener": {"grid": {"t0": -5.0, "tf": 5.0, "nt": 101},
                     "outputs": ["probability_vs_sweep_rate"]},
    "stirap": {"grid": {"t0": 0.0, "tf": 20.0, "nt": 101},
               "outputs": ["population_vs_time"]},
    "bichromatic": {"grid": {"t0": 0.0, "tf": 60.0, "nt": 101},
                    "system": {"n_phases": 3},
                    "outputs": ["population_vs_phase"]},
    "qubit_reset": {"system": {"duration_fractions": [1.0], "nt": 21},
                    "optimizer": {"max_iters": 2},
                    "outputs": ["probability_vs_sweep_rate"]},
    "gate_opt": {"grid": {"t0": 0.0, "tf": 2.0, "nt": 41},
                 "optimizer": {"max_iters": 2, "budget": 2},
                 "outputs": ["j_vs_iteration"]},
    "controllability": {"system": {"name": "ladder", "levels": 3}},
}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)

# Keys that set the work of a run draw only small valid or invalid values;
# sections are replaced only by values that are not JSON objects.
INVALID = st.text(max_size=3) | st.sampled_from(
    [None, True, [], {}, 2.5, -1.0, float("nan"), float("inf"), 1e9,
     10 ** 12])
NOT_OBJECT = st.none() | st.booleans() | st.integers() | st.floats() \
    | st.text(max_size=6) | st.lists(st.integers(), max_size=2)
WORK = {
    ("grid", "nt"): st.integers(-3, 101),
    ("system", "nt"): st.integers(-3, 31),
    ("system", "n_phases"): st.integers(-3, 6),
    ("system", "levels"): st.integers(-3, 5),
    ("optimizer", "max_iters"): st.integers(-3, 2),
    ("optimizer", "budget"): st.integers(-3, 2),
    ("optimizer", "n_fourier"): st.integers(-3, 3),
}


def _paths(scenario):
    rows = SCHEMA[scenario]
    paths = [(key,) for key in rows]
    for section, row in rows.items():
        if isinstance(row.kind, dict):
            paths += [(section, key) for key in row.kind]
    if scenario == "controllability":
        paths += [("system", "name"), ("system", "levels"),
                  ("system", "anharmonicity")]
    return paths


PATHS = [(scenario, path) for scenario in SCENARIOS
         for path in _paths(scenario)]


def _value_for(path):
    if path == ("scenario",):
        return (st.text(max_size=8) | st.integers() | st.none()).filter(
            lambda v: v not in SCENARIOS)
    if len(path) == 1 and path[0] in ("grid", "system", "optimizer"):
        return NOT_OBJECT
    if path in WORK:
        return WORK[path] | INVALID
    return JSON


CASES = st.sampled_from(PATHS).flatmap(
    lambda case: st.tuples(st.just(case), _value_for(case[1])))


def _files(out_dir):
    """``relative path -> bytes`` of every file a run wrote."""
    return {path.relative_to(out_dir): path.read_bytes()
            for path in out_dir.rglob("*") if path.is_file()}


def _run(config_path, out_dir):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["run", str(config_path), "--out", str(out_dir)])
    return code, stdout.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(CASES)
def test_cli_contract_holds_for_generated_configs(case):
    (scenario, path), value = case
    config = json.loads(json.dumps({"scenario": scenario,
                                    **BASES[scenario]}))
    section = config
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config_path = tmp / "config.json"
        config_path.write_text(json.dumps(config))
        code, stdout = _run(config_path, tmp / "a")
        assert code in (0, 2, 3, 4), (config, code, stdout)
        if code != 0:
            payload = json.loads(stdout)
            assert set(payload) == {"error"}, payload
            return
        assert _run(config_path, tmp / "b")[0] == 0
        first = _files(tmp / "a")
        assert Path("summary.json") in first
        assert first == _files(tmp / "b")
