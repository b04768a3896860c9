"""Fuzzing of the files the CLI reads, and of the values a valid model may hold.

Each example mangles the bytes of a valid model, tree, observation, SACT
table or weight-profile file and runs commands on it through
``sact.cli.main`` in this process.  Every run must return a documented exit
code (0-4) and raise nothing.  The examples are derandomized, so every run
tests the same inputs.

The last test draws models from extreme values with a seeded generator and
runs every design and lookup command on each one ``validate`` accepts: if
``validate`` exits 0, no other command may raise.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import sact.cli
from sact import (
    CostModel,
    DiagnosisModel,
    EvidenceVariable,
    UtilityTable,
    build_tree,
    compile_table,
    export_tree,
    model_to_json,
    validate_model,
    write_table,
)

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


# The extremes of each field: subnormal and near-one probabilities, utilities
# at the float's range, costs from zero to near overflow.
PROBABILITIES = (5e-324, 1e-300, 1e-16, 0.1, 0.5, 0.9, 1.0 - 2.0**-53)
UTILITIES = (1e308, -1e308, 1.0, -1.0, 0.0, 1e-300)
COSTS = (0.0, 1e-300, 1.0, 1e300, 1.7e308)


def extreme_model(rng: random.Random) -> DiagnosisModel:
    evidence = tuple(
        EvidenceVariable(f"e{i}", rng.choice(PROBABILITIES), rng.choice(PROBABILITIES))
        for i in range(rng.randint(0, 7))
    )
    return DiagnosisModel(
        rng.choice(PROBABILITIES),
        evidence,
        UtilityTable(*(rng.choice(UTILITIES) for _ in range(4))),
        CostModel(*(rng.choice(COSTS) for _ in range(7))),
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_command_runs_on_a_model_validate_accepts(tmp_path, seed):
    rng = random.Random(seed)
    models = [model for model in (extreme_model(rng) for _ in range(1500))
              if not validate_model(model)]
    assert len(models) > 40
    model, table, tree, obs, out = (
        str(tmp_path / name) for name in ("model.json", "table.sact", "tree.json", "obs.json", "out")
    )
    for drawn in models:
        ids = [item.id for item in drawn.evidence]
        (tmp_path / "model.json").write_text(model_to_json(drawn))
        (tmp_path / "obs.json").write_text(json.dumps({i: rng.random() < 0.5 for i in ids}))
        # A lookup must not read the artifacts of an earlier model.
        for name in ("table.sact", "tree.json"):
            (tmp_path / name).unlink(missing_ok=True)
        assert run_main("validate", model) == 0
        for argv in (
            ["analyze", model],
            ["analyze", model, "--method", "gaussian"],
            ["select", model, "--lookahead", "2"],
            ["select", model, "--method", "gaussian"],
            ["select", model, "--exhaustive"],
            ["compile", model, "--out", out],
            ["compile", model, "--subset", ",".join(ids), "--out", table],
            ["tree", model, "--out", tree],
            ["tree", model, "--format", "dot", "--lookahead", "1"],
            ["lookup", model, "--table", table, "--obs", obs],
            ["lookup", model, "--tree", tree, "--obs", obs],
        ):
            assert run_main(*argv) in EXIT_CODES, argv
