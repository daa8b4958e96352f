"""Property tests of the CLI contract over generated configs.

Each example of the first test takes a small valid config of one scenario
and replaces one key with a generated JSON value.  Whatever the value,
``qoctl run`` must exit 0, 2, 3 or 4, print one ``{"error": ...}`` object
on failure, and write byte-identical artifacts when run twice:
``summary.json``, the plot data its ``outputs`` request and every other
file of the output directory.

The second test draws whole configs that the schema accepts, each number
from its own ``SCHEMA`` row.  Such a config must run, or abort with a
named numerics error (``ScenarioError``); nothing else may escape.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qoctl import cli, scenarios
from qoctl.dynamics import TimeGrid
from qoctl.scenarios import SCENARIOS, SCHEMA, ScenarioError, run_scenario

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
CAPS = {
    ("grid", "nt"): 101,
    ("system", "nt"): 31,
    ("system", "n_phases"): 6,
    ("system", "levels"): 5,
    ("optimizer", "max_iters"): 2,
    ("optimizer", "budget"): 2,
    ("optimizer", "n_fourier"): 3,
}
WORK = {path: st.integers(-3, cap) for path, cap in CAPS.items()}


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


# Valid configs --------------------------------------------------------------

def _number(row, cap=None):
    """A number that ``row`` accepts, an int at most ``cap``."""
    if row.kind is int:  # every int row has a finite lo
        hi = row.hi if cap is None else min(row.hi, cap)
        return st.integers(int(row.lo), None if hi == np.inf else int(hi))
    lo = max(row.lo, 0.0) if row.positive else row.lo
    return st.floats(None if lo == -np.inf else lo,
                     None if row.hi == np.inf else row.hi,
                     exclude_min=row.positive, allow_nan=False,
                     allow_infinity=False)


def _is_grid(grid) -> bool:
    try:
        TimeGrid(**grid)
    except ValueError:
        return False
    return True


def _grid(row):
    """``t0 < tf``, at most the capped number of points, and a step and
    midpoints that the floats resolve, as ``TimeGrid`` requires."""
    span = st.lists(_number(row.kind["t0"]), min_size=2, max_size=2,
                    unique=True).map(sorted)
    return st.builds(lambda ts, nt: {"t0": ts[0], "tf": ts[1], "nt": nt},
                     span, _number(row.kind["nt"], CAPS[("grid", "nt")])
                     ).filter(_is_grid)


@st.composite
def _hermitian(draw, dim):
    """An operator dict of a Hermitian matrix: the upper triangle drawn,
    the lower its exact mirror."""
    entry = st.floats(allow_nan=False, allow_infinity=False)
    m = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            re, im = draw(entry), 0.0 if i == j else draw(entry)
            m[i][j], m[j][i] = [re, im], [re, -im]
    return {"dim": dim, "entries": m}


@st.composite
def _inline_system(draw):
    """Drift and couplings of one dimension; control indices contiguous."""
    dim = draw(st.integers(1, CAPS[("system", "levels")]))
    couplings, n_controls = [], 0
    for i in range(draw(st.integers(0, 2))):
        index = draw(st.none() | st.integers(0, n_controls))
        n_controls = max(n_controls, (i if index is None else index) + 1)
        couplings.append({"operator": draw(_hermitian(dim)),
                          "control_index": index})
    return {"drift": draw(_hermitian(dim)), "couplings": couplings}


def _named_system(name):
    rows = scenarios._SYSTEMS[name][1]
    return st.fixed_dictionaries({"name": st.just(name)}, optional={
        key: _valid(row, ("system", key)) for key, row in rows.items()})


def _sets_work(path) -> bool:
    """Whether a key at ``path``, or one inside it, sets the work of a run:
    such keys are always given, since their defaults are not capped."""
    return path == ("system", "duration_fractions") \
        or any(cap[:len(path)] == path for cap in CAPS)


def _valid(row, path):
    """Values that the schema row at ``path`` accepts."""
    if path == ("grid",):
        values = _grid(row)
    elif isinstance(row.kind, dict):
        rows = {k: (r, path + (k,)) for k, r in row.kind.items()}
        values = st.fixed_dictionaries(
            {k: _valid(r, p) for k, (r, p) in rows.items()
             if r.default is scenarios.REQUIRED or _sets_work(p)},
            optional={k: _valid(r, p) for k, (r, p) in rows.items()
                      if r.default is not scenarios.REQUIRED
                      and not _sets_work(p)})
    elif isinstance(row.kind, list):
        values = st.lists(_valid(row.kind[0], path), min_size=int(row.lo),
                          max_size=3, unique=path[-1] == "duration_fractions")
        if path[-1] == "duration_fractions":  # strictly increasing
            values = values.map(sorted)
    elif isinstance(row.kind, tuple):
        values = st.sampled_from(row.kind)
    else:
        values = _number(row, CAPS.get(path))
    return st.none() | values if row.nullable and not _sets_work(path) \
        else values


def _valid_config(scenario):
    rows = dict(SCHEMA[scenario])
    del rows["scenario"]
    if scenario == "controllability":
        del rows["outputs"]  # it has no plot kind to name
        del rows["system"]
    config = _valid(scenarios.Key(scenarios.REQUIRED, rows), ())
    if scenario == "controllability":
        system = st.sampled_from(list(scenarios._SYSTEMS)).flatmap(
            lambda name: _inline_system() if name is None
            else _named_system(name))
        config = st.tuples(config, system).map(
            lambda cs: {**cs[0], "system": cs[1]})
    return config.map(lambda c: {"scenario": scenario, **c})


VALID = st.sampled_from(SCENARIOS).flatmap(_valid_config)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(VALID)
# the deep adiabatic limit, where the Landau-Zener formula underflows
@example({"scenario": "landau_zener", "system": {"gap": 30.0},
          "grid": {"t0": -5.0, "tf": 5.0, "nt": 101}})
def test_valid_configs_run_or_name_their_numerics_failure(config):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config_path = tmp / "config.json"
        config_path.write_text(json.dumps(config))
        scenarios.load_config(config_path)  # the generator draws valid ones
        try:
            run_scenario(config_path, out_dir=tmp / "out")
        except ScenarioError:
            pass
