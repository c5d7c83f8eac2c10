"""Property tests of the configuration schema: every document is refused
with a ConfigError or resolves to a config that round-trips."""

import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekin import ConfigError, parse_config
from phasekin.cli import build_parser
from phasekin.config import DEFAULT_CONFIG, SCHEMA

JUNK = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**309, -(10**400)]),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(), max_size=2),
)

REPO = Path(__file__).resolve().parents[1]
ROOTS = {"config"} | {row[0].split(".")[0] for row in SCHEMA}


def _valid(kind, default):
    """Values the row would accept, most of the time."""
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if kind is str:
        return st.text(min_size=1, max_size=8)
    if kind is int:
        return st.sampled_from([16, 32, 64, 128, 16.0, 10**400])
    return st.one_of(st.just(default if default is not None else 1.0), st.floats(0.01, 100.0), st.integers(1, 9))


def _documents(junk):
    """Nested documents over the schema paths, with junk values and
    unknown keys mixed in when ``junk`` is set."""
    top, sections = {}, {}
    for path, _, kind, default, _, _ in SCHEMA:
        name, _, key = path.rpartition(".")
        value = st.one_of(_valid(kind, default), JUNK) if junk else _valid(kind, default)
        if name:
            sections.setdefault(name, {})[key] = value
        else:
            top[key] = value
    for name, keys in sections.items():
        if junk:
            keys["unknown_key"] = JUNK
        section = st.fixed_dictionaries({}, optional=keys)
        top[name] = st.one_of(section, section, JUNK) if junk else section
    if junk:
        top["seed"] = JUNK
    return st.fixed_dictionaries({}, optional=top)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(_documents(junk=False), _documents(junk=True)))
def test_document_is_refused_or_round_trips(doc):
    try:
        config = parse_config(doc)
    except ConfigError as exc:
        # messages start with the dotted path of the offending key
        assert str(exc).split(":")[0].split(".")[0] in ROOTS
        return
    assert parse_config(json.loads(json.dumps(config.to_dict()))) == config


def test_every_schema_path_is_in_the_help():
    epilog = build_parser().epilog
    for row in SCHEMA:
        assert f"  {row[0]} " in epilog


def test_readme_defaults_block_is_the_default_config():
    readme = (REPO / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == DEFAULT_CONFIG


def _bench_workloads():
    """``bench/workloads.py``, loaded from its file so that no bench module
    name lands on the import path."""
    spec = importlib.util.spec_from_file_location("bench_workloads", REPO / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _bench_workloads()


@pytest.mark.parametrize("small", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_every_benchmark_config_is_accepted(workload, seed, small):
    # a key the schema drops but the benchmark still sends would fail
    # every operation of that workload with exit 2
    parse_config(WORKLOADS.make_config(workload, seed, small))
