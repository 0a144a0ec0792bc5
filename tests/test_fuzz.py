"""Fuzzed model files and FIMI text through the CLI: every input ends in a
documented exit code (0, 2, 3 or 4), never in an escaping exception."""

import copy
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tbmlearn.cli import main

EXIT_CODES = {0, 2, 3, 4}
DATA_TEXT = "0 1\n0 1\n0\n1\n0 1\n0\n2 0\n\n"

# Small numbers keep a mutated bm's n_variables, and so its 2^n cube, cheap;
# the huge ones reach the range and type checks.
NUMBERS = (
    st.integers(-2, 8)
    | st.sampled_from([2**63, 10**30])
    | st.floats(allow_nan=True, allow_infinity=True)
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data.fimi"
    data.write_text(DATA_TEXT)
    models = {}
    for kind, extra in (
        ("tbm", ("fit-tbm", "--sigma", "0.1", "--k", "2")),
        ("bm", ("fit-bm", "--sigma", "0.1", "--k", "2")),
        ("rbm", ("fit-rbm", "--hidden", "2", "--updates", "20", "--chains", "4")),
    ):
        path = root / f"{kind}.json"
        assert run(extra[0], "--input", data, *extra[1:], "--out", path) == 0
        models[kind] = json.loads(path.read_text())
    return root, data, models


def _mutate(data, node):
    """One mutation at a drawn place inside ``node``, a non-empty container:
    replace, delete, wrap, unwrap, repeat or poison with NaN."""
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or data.draw(st.booleans()):
            op = data.draw(st.sampled_from(["replace", "delete", "wrap", "unwrap", "repeat", "nan"]))
            if op == "replace":
                node[key] = data.draw(JSON_VALUES)
            elif op == "delete":
                del node[key]
            elif op == "wrap":
                node[key] = [child]
            elif op == "unwrap" and isinstance(child, list) and child:
                node[key] = child[0]
            elif op == "repeat" and isinstance(child, list):
                child.extend(child[:2])
            elif op == "nan":
                node[key] = math.nan
            return
        node = child


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(kind=st.sampled_from(["tbm", "bm", "rbm"]), data=st.data())
def test_mutated_model_files(files, kind, data):
    root, fimi, models = files
    obj = copy.deepcopy(models[kind])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, obj)
    path = root / "mutated.json"
    path.write_text(json.dumps(obj))
    assert run("eval", "--model", path, "--input", fimi, "--out", root / "eval.json") in EXIT_CODES


TOKENS = st.sampled_from(["0", "1", "2", "3", "5", "7", "10", "-1", "x", "1.5", "+2", "1000000000"])
LINES = st.lists(TOKENS, max_size=5).map(" ".join)
FIMI = st.lists(LINES, max_size=10).map("\n".join) | st.text(
    alphabet="0123 \n\t-x.", max_size=30
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=FIMI, empties=st.sampled_from(["skip", "bottom"]))
def test_generated_fimi_text(files, text, empties):
    root, _, _ = files
    fimi = root / "generated.fimi"
    fimi.write_text(text)
    model = root / "generated.json"
    common = ("--input", fimi, "--empty-transactions", empties)
    assert run("mine", *common, "--sigma", "0.2", "--k", "2", "--out", root / "domain.txt") in EXIT_CODES
    code = run("fit-tbm", *common, "--sigma", "0.2", "--k", "2", "--max-iters", "200", "--out", model)
    assert code in EXIT_CODES
    if code == 0:
        assert run("eval", "--model", model, *common, "--out", root / "eval.json") in EXIT_CODES
    assert run("fit-bm", *common, "--sigma", "0.2", "--k", "2", "--max-iters", "200",
               "--out", root / "bm.json") in EXIT_CODES
