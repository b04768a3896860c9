"""Byte-level fuzzing of the files the CLI reads.

Each example mangles the bytes of a valid model, tree, observation, SACT
table or weight-profile file and runs commands on it through
``sact.cli.main`` in this process.  Every run must return a documented exit
code (0-4) and raise nothing.  The examples are derandomized, so every run
tests the same inputs.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import sact.cli
from sact import build_tree, compile_table, export_tree, model_to_json, write_table

from helpers import make_model

EXIT_CODES = {0, 1, 2, 3, 4}

# Bytes that keep a mangled file close to JSON, so that some mutants parse
# and reach the checks behind the parser.
JSON_BYTES = b'0123456789.-+eE"{}[],: \\tnfaluTrsNI'

FUZZ = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def mangled(draw, valid: bytes) -> bytes:
    """``valid`` with up to four byte ranges replaced, or random bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=48))
    blob = bytearray(valid)
    patch = st.one_of(st.binary(max_size=4), st.lists(st.sampled_from(JSON_BYTES), max_size=4))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(blob)))
        end = draw(st.integers(start, min(len(blob), start + 8)))
        blob[start:end] = bytes(draw(patch))
    return bytes(blob)


MODEL = make_model([(0.8, 0.2), (0.7, 0.35), (0.6, 0.3)], p_h=0.4)
IDS = [item.id for item in MODEL.evidence]
VALID = {
    "model.json": model_to_json(MODEL).encode(),
    "tree.json": export_tree(build_tree(MODEL)[0]).encode(),
    "obs.json": json.dumps({evidence_id: True for evidence_id in IDS}).encode(),
    "table.sact": write_table(compile_table(MODEL, IDS)),
}
PROFILES = [
    json.dumps({"name": "tri", "kind": "linear-decay", "intercept": 1.0, "slope": 0.25,
                "w_max": 4.0, "count": 12}).encode(),
    json.dumps({"name": "w", "kind": "explicit", "weights": [0.4, 1.5, 0.9, 2.2]}).encode(),
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """The valid files; the table covers every item."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, blob in VALID.items():
        (root / name).write_bytes(blob)
    return root


def run_main(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return sact.cli.main(list(argv))


@FUZZ
@given(blob=mangled(VALID["model.json"]))
def test_mangled_model(workspace, blob):
    model, out = str(workspace / "fuzzed.json"), str(workspace / "out")
    (workspace / "fuzzed.json").write_bytes(blob)
    for argv in (
        ["validate", model],
        ["analyze", model],
        ["analyze", model, "--method", "gaussian"],
        ["select", model, "--lookahead", "1"],
        ["select", model, "--exhaustive"],
        ["compile", model, "--out", out],
        ["tree", model, "--out", out],
    ):
        assert run_main(*argv) in EXIT_CODES


@FUZZ
@given(blob=mangled(VALID["tree.json"]))
def test_mangled_tree(workspace, blob):
    (workspace / "fuzzed.json").write_bytes(blob)
    model, tree, obs = (str(workspace / name) for name in ("model.json", "fuzzed.json", "obs.json"))
    assert run_main("lookup", model, "--tree", tree, "--obs", obs) in EXIT_CODES


@FUZZ
@given(blob=mangled(VALID["obs.json"]))
def test_mangled_observation(workspace, blob):
    (workspace / "fuzzed.json").write_bytes(blob)
    model, obs = str(workspace / "model.json"), str(workspace / "fuzzed.json")
    for artifact in (["--tree", str(workspace / "tree.json")],
                     ["--table", str(workspace / "table.sact")]):
        assert run_main("lookup", model, *artifact, "--obs", obs) in EXIT_CODES


@FUZZ
@given(blob=mangled(VALID["table.sact"]))
def test_mangled_table(workspace, blob):
    (workspace / "fuzzed.sact").write_bytes(blob)
    model, table, obs = (str(workspace / name) for name in ("model.json", "fuzzed.sact", "obs.json"))
    assert run_main("lookup", model, "--table", table, "--obs", obs) in EXIT_CODES


@FUZZ
@given(blob=st.sampled_from(PROFILES).flatmap(mangled))
def test_mangled_profile(workspace, blob):
    (workspace / "fuzzed.json").write_bytes(blob)
    profile, out = str(workspace / "fuzzed.json"), str(workspace / "out")
    for argv in (
        ["proto", "--profile-file", profile],
        ["proto", "--profile-file", profile, "--method", "exact", "--moments-out", out],
    ):
        assert run_main(*argv) in EXIT_CODES
