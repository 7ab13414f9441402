"""Fuzz the scenario loader with mutated copies of the recorded scenarios.

One mutation per document, at a node chosen anywhere below its root: the
node is dropped, replaced by a random JSON value, or wrapped in another
type. The
loader must reject what it cannot run with exit 2: `validate` exits 0 or 2,
and `run` 0, 2 or 3 (a verdict of the experiment), never 1.
"""

import contextlib
import copy
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = sorted((REPO / "scenarios").glob("*.json")) + sorted(
    p for p in (REPO / "tests" / "data").glob("*.json") if not p.name.startswith("run_")
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=6,
)
# wrap a value in another type: the type changes, the content stays
RETYPES = (str, lambda v: [v], lambda v: {"value": v},
           lambda v: float(v) if isinstance(v, int) and not isinstance(v, bool) else repr(v))


def _draw_path(data, doc):
    """A node of doc, as a path of keys: a random walk down from the root.

    Each step stops with probability 1/2, so a node at depth n is drawn
    with probability 2^-n spread over its siblings; the top-level fields
    are hit about as often as all the matrix entries together.
    """
    path, node = (), doc
    while True:
        if isinstance(node, dict):
            keys = list(node)
        elif isinstance(node, list):
            keys = list(range(len(node)))
        else:
            keys = []
        if not keys or (path and data.draw(st.booleans(), label="stop")):
            return path
        key = data.draw(st.sampled_from(keys), label="key")
        path, node = path + (key,), node[key]


def _mutated(doc, path, action, value, retype):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if action == "drop":
        del parent[key]
    elif action == "replace":
        parent[key] = value
    else:
        parent[key] = retype(parent[key])
    return doc


def _exit_code(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_mutated_scenario_exits_0_2_or_3(workdir, scenario, data):
    doc = json.loads(scenario.read_text())
    path = _draw_path(data, doc)
    action = data.draw(st.sampled_from(["drop", "replace", "retype"]), label="action")
    value = data.draw(JSON_VALUES, label="value") if action == "replace" else None
    retype = data.draw(st.sampled_from(RETYPES)) if action == "retype" else None
    mutated = _mutated(doc, path, action, value, retype)
    target = workdir / f"{scenario.stem}.json"
    # NaN and infinities are written as JSON's usual extensions, which json.load reads back
    target.write_text(json.dumps(mutated))
    assert _exit_code("validate", target) in (0, 2)
    assert _exit_code("run", target) in (0, 2, 3)
