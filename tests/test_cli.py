import argparse
import json
import math

import pytest

from sact import CompiledTable, model_digest, model_from_json, threshold, write_table
from sact import cli
from sact.cli import build_parser, main
from sact.exact import DEFAULT_ENUMERATION_CAP
from sact.table import DEFAULT_SEARCH_CAP, DEFAULT_TABLE_CAP
from sact.tree import DEFAULT_TREE_CAP

from helpers import run_sact

M1 = {
    "p_h": 0.5,
    "evidence": [{"id": "e1", "alpha": 0.8, "beta": 0.2}],
    "utilities": {"u_h_d": 1, "u_h_nd": 0, "u_nh_d": 0, "u_nh_nd": 1},
    "costs": {"k1": 0, "k2": 0, "k3": 0, "k4": 0, "k5": 0, "k6": 0, "r": 1},
}


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "m1.json").write_text(json.dumps(M1))
    return tmp_path


def test_validate_clean_model(workspace):
    result = run_sact("validate", "m1.json", cwd=workspace)
    assert result.returncode == 0
    assert json.loads(result.stdout) == []


def test_validate_reports_violations_with_exit_one(workspace):
    bad = json.loads(json.dumps(M1))
    bad["evidence"][0]["alpha"] = 1.0
    (workspace / "bad.json").write_text(json.dumps(bad))
    result = run_sact("validate", "bad.json", cwd=workspace)
    assert result.returncode == 1
    report = json.loads(result.stdout)
    assert len(report) == 1
    assert report[0]["code"] == "alpha_out_of_range"


def test_unsolvable_threshold_fails_validation_not_analyze(workspace):
    huge = json.loads(json.dumps(M1))
    huge["utilities"] = {"u_h_d": 1e308, "u_h_nd": 0, "u_nh_d": 0, "u_nh_nd": 1e308}
    (workspace / "huge.json").write_text(json.dumps(huge))
    result = run_sact("validate", "huge.json", cwd=workspace)
    assert result.returncode == 1
    assert [v["code"] for v in json.loads(result.stdout)] == ["degenerate_threshold"]
    result = run_sact("analyze", "huge.json", cwd=workspace)  # fails on a traceback
    assert result.returncode == 1
    assert b"degenerate_threshold" in result.stderr


def write_overflow_model(workspace):
    """A valid model whose utilities and r overflow every NIV to inf."""
    overflow = json.loads(json.dumps(M1))
    overflow["utilities"] = {"u_h_d": 1e300, "u_h_nd": 0, "u_nh_d": 0, "u_nh_nd": 1e300}
    overflow["costs"]["r"] = 1e308
    (workspace / "overflow.json").write_text(json.dumps(overflow))
    assert run_sact("validate", "overflow.json", cwd=workspace).returncode == 0


# analyze refuses in greedy selection, before its NaN margin reaches the JSON.
@pytest.mark.parametrize("command,message", [
    (("analyze",), b"invalid input: the net inferential value of the empty table is inf"),
    (("select", "--exhaustive"),
     b"invalid input: the result cannot be written as JSON: Out of range float values"),
], ids=["analyze", "select-exhaustive"])
def test_result_json_cannot_hold_exits_one_and_writes_nothing(workspace, command, message):
    write_overflow_model(workspace)
    for out in ((), ("--out", "result.json")):
        result = run_sact(command[0], "overflow.json", *command[1:], *out, cwd=workspace)
        assert result.returncode == 1
        assert result.stdout == b""
        assert result.stderr.startswith(message)
        assert not (workspace / "result.json").exists()


@pytest.mark.parametrize("command,refused", [
    ("select", b"the empty table"), ("compile", b"the empty table"), ("tree", b"the null tree"),
], ids=["select", "compile", "tree"])
def test_searches_refuse_an_overflowing_niv(workspace, command, refused):
    write_overflow_model(workspace)
    result = run_sact(command, "overflow.json", "--out", "result", cwd=workspace)
    assert result.returncode == 1
    assert result.stdout == b""
    assert result.stderr == (
        b"invalid input: the net inferential value of " + refused + b" is inf, not a finite "
        b"number: the model's utilities, costs or r overflow a float\n"
    )
    assert not (workspace / "result").exists()


def test_non_finite_number_exits_two(workspace):
    text = json.dumps(M1).replace('"p_h": 0.5', '"p_h": NaN')
    (workspace / "nan.json").write_text(text)
    result = run_sact("validate", "nan.json", cwd=workspace)
    assert result.returncode == 2
    assert b"p_h: expected a finite number, got nan" in result.stderr


def test_malformed_json_exits_two(workspace):
    (workspace / "broken.json").write_text("{oops")
    result = run_sact("validate", "broken.json", cwd=workspace)
    assert result.returncode == 2


def test_missing_file_exits_two(workspace):
    result = run_sact("validate", "missing.json", cwd=workspace)
    assert result.returncode == 2


def test_non_utf8_file_exits_two(workspace):
    (workspace / "bom.json").write_bytes(b"\xff\xfe{}")
    result = run_sact("validate", "bom.json", cwd=workspace)
    assert result.returncode == 2
    assert result.stderr.startswith(b"error: bom.json is not valid UTF-8: ")


def test_integer_over_the_digit_limit_exits_two(workspace):
    text = json.dumps(M1).replace('"r": 1', '"r": ' + "9" * 5000)
    (workspace / "long.json").write_text(text)
    result = run_sact("validate", "long.json", cwd=workspace)
    assert result.returncode == 2
    assert result.stderr.startswith(b"error: model file is not valid JSON: ")


def test_deeply_nested_tree_exits_two(workspace):
    node = '{"action": "D"}'
    for _ in range(3000):
        node = f'{{"test": "e1", "if_true": {node}, "if_false": {{"action": "D"}}}}'
    (workspace / "deep.json").write_text(
        f'{{"format": "sact-tree", "version": 1, "model_digest": "{"00" * 32}", '
        f'"node_count": 6001, "root": {node}}}'
    )
    (workspace / "obs.json").write_text(json.dumps({"e1": True}))
    result = run_sact("lookup", "m1.json", "--tree", "deep.json", "--obs", "obs.json",
                      cwd=workspace)
    assert result.returncode == 2
    assert result.stderr.startswith(b"error: tree file is not valid JSON: ")


@pytest.mark.parametrize(
    "command",
    [
        ("validate", "lone.json"),
        ("compile", "lone.json", "--out", "lone.sact"),
        ("tree", "lone.json", "--format", "dot"),
        ("proto", "--profile-file", "lone-profile.json"),
    ],
    ids=["validate", "compile", "tree-dot", "proto"],
)
def test_string_not_writable_as_utf8_exits_two(workspace, command):
    # json.loads turns the escape "\ud800" into a lone surrogate, which no
    # output can encode.
    lone = json.loads(json.dumps(M1))
    lone["evidence"][0]["id"] = "\ud800"
    (workspace / "lone.json").write_text(json.dumps(lone))
    profile = {"name": "\ud800", "kind": "explicit", "weights": [1.0]}
    (workspace / "lone-profile.json").write_text(json.dumps(profile))
    result = run_sact(*command, cwd=workspace)
    assert result.returncode == 2
    assert result.stderr.startswith(b"error: ")
    assert b"cannot be written as UTF-8" in result.stderr


def test_analyze_structure_and_tie(workspace):
    result = run_sact("analyze", "m1.json", cwd=workspace)
    assert result.returncode == 0
    document = json.loads(result.stdout)
    assert document["decision"] == "compute"
    assert document["margin"] == 0.0
    assert document["compute"]["ev"] == pytest.approx(0.8, abs=1e-12)
    assert document["compile_table"]["policy"]["subset"] == ["e1"]
    assert document["compile_tree"]["policy"]["node_count"] == 3


def test_analyze_gaussian_skips_tree(workspace):
    result = run_sact("analyze", "m1.json", "--method", "gaussian", cwd=workspace)
    assert result.returncode == 0
    document = json.loads(result.stdout)
    assert document["compile_tree"] is None
    assert document["best_compile"] == "table"


def test_analyze_astronomical_memory_cost_keeps_computing(workspace):
    pricey = json.loads(json.dumps(M1))
    pricey["costs"]["k5"] = 1e9
    pricey["costs"]["k6"] = 1.0
    (workspace / "pricey.json").write_text(json.dumps(pricey))
    result = run_sact("analyze", "pricey.json", cwd=workspace)
    assert result.returncode == 0
    assert json.loads(result.stdout)["decision"] == "compute"


def test_analyze_cap_refusal_exits_three(workspace):
    two = json.loads(json.dumps(M1))
    two["evidence"].append({"id": "e2", "alpha": 0.7, "beta": 0.3})
    (workspace / "two.json").write_text(json.dumps(two))
    result = run_sact("analyze", "two.json", "--cap-enum", "1", cwd=workspace)
    assert result.returncode == 3


def test_select_reports_trace(workspace):
    result = run_sact("select", "m1.json", cwd=workspace)
    assert result.returncode == 0
    document = json.loads(result.stdout)
    assert document["subset"] == ["e1"]
    assert document["stopped_reason"] == "all-selected"
    assert document["steps"][0]["id"] == "e1"


def test_select_exhaustive(workspace):
    result = run_sact("select", "m1.json", "--exhaustive", cwd=workspace)
    assert result.returncode == 0
    document = json.loads(result.stdout)
    assert document["subset"] == ["e1"]
    assert document["report"]["niv"] == pytest.approx(0.8, abs=1e-12)


def test_select_refuses_an_exhaustive_gaussian_search(workspace):
    # Exhaustive search values subsets exactly; it must not run under a Gaussian label.
    result = run_sact("select", "m1.json", "--exhaustive", "--method", "gaussian",
                      cwd=workspace)
    assert result.returncode == 3
    assert result.stdout == b""
    assert result.stderr == (
        b"refused: exhaustive search values subsets exactly; use --method exact\n"
    )


def test_compile_then_lookup_round_trip(workspace):
    result = run_sact("compile", "m1.json", "--subset", "e1", "--out", "m1.sact", cwd=workspace)
    assert result.returncode == 0
    (workspace / "obs.json").write_text(json.dumps({"e1": True}))
    result = run_sact("lookup", "m1.json", "--table", "m1.sact", "--obs", "obs.json",
                      cwd=workspace)
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"action": "D", "consulted": ["e1"]}
    (workspace / "obs0.json").write_text(json.dumps({"e1": False}))
    result = run_sact("lookup", "m1.json", "--table", "m1.sact", "--obs", "obs0.json",
                      cwd=workspace)
    assert json.loads(result.stdout)["action"] == "notD"


def test_lookup_against_wrong_model_exits_four(workspace):
    run_sact("compile", "m1.json", "--subset", "e1", "--out", "m1.sact", cwd=workspace)
    other = json.loads(json.dumps(M1))
    other["p_h"] = 0.6
    (workspace / "other.json").write_text(json.dumps(other))
    (workspace / "obs.json").write_text(json.dumps({"e1": True}))
    result = run_sact("lookup", "other.json", "--table", "m1.sact", "--obs", "obs.json",
                      cwd=workspace)
    assert result.returncode == 4


def test_lookup_rejects_non_boolean_observation(workspace):
    run_sact("compile", "m1.json", "--subset", "e1", "--out", "m1.sact", cwd=workspace)
    (workspace / "obs.json").write_text(json.dumps({"e1": "yes"}))
    result = run_sact("lookup", "m1.json", "--table", "m1.sact", "--obs", "obs.json",
                      cwd=workspace)
    assert result.returncode == 2


def test_lookup_rejects_a_table_that_repeats_an_id(workspace):
    # compile never writes such a table; it carries the model's digest, so
    # only the repeated id is wrong.
    model = model_from_json(json.dumps(M1))
    table = CompiledTable(("e1", "e1"), b"\x0f", threshold(model.utilities, model.p_h).w_star,
                          model_digest(model))
    (workspace / "twice.sact").write_bytes(write_table(table))
    (workspace / "obs.json").write_text(json.dumps({"e1": True}))
    result = run_sact("lookup", "m1.json", "--table", "twice.sact", "--obs", "obs.json",
                      cwd=workspace)
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr.decode().startswith("error:")
    assert "repeats 'e1'" in result.stderr.decode()


def test_compile_with_unknown_id_exits_one(workspace):
    result = run_sact("compile", "m1.json", "--subset", "zz", "--out", "x.sact", cwd=workspace)
    assert result.returncode == 1
    assert "unknown evidence id 'zz'" in result.stderr.decode()


def test_tree_export_and_lookup(workspace):
    result = run_sact("tree", "m1.json", "--out", "m1.tree.json", cwd=workspace)
    assert result.returncode == 0
    (workspace / "obs.json").write_text(json.dumps({"e1": True}))
    result = run_sact("lookup", "m1.json", "--tree", "m1.tree.json", "--obs", "obs.json",
                      cwd=workspace)
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"action": "D", "consulted": ["e1"]}


@pytest.mark.parametrize(
    "old,new",
    [
        ('"version": 1', '"version": true'),
        ('"version": 1', '"version": 1.0'),
        ('"node_count": 3', '"node_count": 3.0'),
        ('"node_count": 1', '"node_count": true'),
    ],
)
def test_tree_header_fields_must_be_integers(workspace, old, new):
    m1_tree = json.loads(json.dumps(M1))
    if old.startswith('"node_count": 1'):
        # A one-leaf tree, so that node_count is 1 and true == 1.
        m1_tree["costs"]["k5"] = m1_tree["costs"]["k6"] = 1
    (workspace / "model.json").write_text(json.dumps(m1_tree))
    result = run_sact("tree", "model.json", "--out", "t.json", cwd=workspace)
    assert result.returncode == 0
    text = (workspace / "t.json").read_text()
    assert old in text
    (workspace / "t.json").write_text(text.replace(old, new))
    (workspace / "obs.json").write_text(json.dumps({"e1": True}))
    result = run_sact("lookup", "model.json", "--tree", "t.json", "--obs", "obs.json",
                      cwd=workspace)
    assert result.returncode == 2
    assert result.stderr.startswith(b"error: ")


def test_gaussian_method_refuses_moments_it_cannot_compute(workspace):
    tiny = json.loads(json.dumps(M1))
    tiny["evidence"].append({"id": "e2", "alpha": 5e-324, "beta": 0.5})
    (workspace / "tiny.json").write_text(json.dumps(tiny))
    assert run_sact("validate", "tiny.json", cwd=workspace).returncode == 0
    assert run_sact("analyze", "tiny.json", cwd=workspace).returncode == 0
    result = run_sact("analyze", "tiny.json", "--method", "gaussian", cwd=workspace)
    assert result.returncode == 1
    assert result.stderr.endswith(b"invalid input: variance nan must be nonnegative\n")


def test_tree_dot_output(workspace):
    result = run_sact("tree", "m1.json", "--format", "dot", cwd=workspace)
    assert result.returncode == 0
    text = result.stdout.decode()
    assert text.startswith("digraph")
    assert text.count("->") == 2


def test_proto_single_weight_profile(workspace):
    profile = {"name": "unit", "kind": "explicit", "weights": [math.log(4.0)]}
    (workspace / "unit.json").write_text(json.dumps(profile))
    result = run_sact("proto", "--profile-file", "unit.json", "--method", "exact", cwd=workspace)
    assert result.returncode == 0
    lines = result.stdout.decode().splitlines()
    assert lines[0] == "profile,n,ev_compile,ev_compute,fractional_loss"
    assert lines[1].startswith("unit,0,0.5,0.8,0.375")
    assert lines[2].startswith("unit,1,0.8,0.8,0")


def test_proto_refuses_a_profile_over_the_cap(workspace):
    profile = {"name": "wide", "kind": "linear-decay", "intercept": 1.0, "slope": 0.25,
               "w_max": 4.0, "count": 10**9}
    (workspace / "wide.json").write_text(json.dumps(profile))
    result = run_sact("proto", "--profile-file", "wide.json", cwd=workspace)
    assert result.returncode == 3
    assert result.stdout == b""
    assert result.stderr == (
        b"refused: profile 'wide' has 1000000000 items, above the profile cap of 65536\n"
    )


def test_proto_exact_over_the_memory_budget_exits_three(workspace):
    # The 60-item preset's prefix would reserve 3 * 8 * 2^59 bytes.
    result = run_sact("proto", "--method", "exact", "--profile", "high", "--cap-enum", "60",
                      cwd=workspace)
    assert result.returncode == 3
    assert result.stdout == b""
    assert result.stderr == (
        b"refused: a prefix of 59 items would reserve 13835058055282163712 bytes, "
        b"above the memory budget of 1073741824 bytes\n"
    )


CAP_FLAGS = [
    (["analyze", "m1.json"], "--cap-enum"),
    (["analyze", "m1.json"], "--cap-table"),
    (["analyze", "m1.json"], "--cap-tree"),
    (["analyze", "m1.json"], "--lookahead"),
    (["select", "m1.json"], "--cap-enum"),
    (["select", "m1.json"], "--cap-table"),
    (["select", "m1.json"], "--lookahead"),
    (["select", "m1.json", "--exhaustive"], "--cap-exhaustive"),
    (["compile", "m1.json", "--out", "m1.sact"], "--cap-enum"),
    (["compile", "m1.json", "--out", "m1.sact"], "--cap-table"),
    (["compile", "m1.json", "--out", "m1.sact"], "--lookahead"),
    (["tree", "m1.json"], "--cap-tree"),
    (["tree", "m1.json"], "--lookahead"),
    (["proto"], "--cap-enum"),
]


@pytest.mark.parametrize("command,flag", CAP_FLAGS, ids=[f"{c[0]}{f}" for c, f in CAP_FLAGS])
def test_every_cap_flag_refuses_a_negative_value(command, flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*command, flag, "-1"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument {flag}: must be 0 or more, got -1\n"
    )
    args = build_parser().parse_args([*command, flag, "0"])
    assert getattr(args, flag[2:].replace("-", "_")) == 0


DESIGN_DEFAULTS = {"model": "m1.json", "method": "exact", "lookahead": 0,
                   "cap_enum": DEFAULT_ENUMERATION_CAP, "cap_table": DEFAULT_TABLE_CAP}
PARSED_DEFAULTS = [
    (["validate", "m1.json"], {"model": "m1.json", "out": None, "func": cli.cmd_validate}),
    (["analyze", "m1.json"], {**DESIGN_DEFAULTS, "cap_tree": DEFAULT_TREE_CAP, "out": None,
                              "func": cli.cmd_analyze}),
    (["select", "m1.json"], {**DESIGN_DEFAULTS, "exhaustive": False,
                             "cap_exhaustive": DEFAULT_SEARCH_CAP, "out": None,
                             "func": cli.cmd_select}),
    (["compile", "m1.json", "--out", "m1.sact"], {**DESIGN_DEFAULTS, "subset": None,
                                                  "out": "m1.sact", "func": cli.cmd_compile}),
    (["tree", "m1.json"], {"model": "m1.json", "lookahead": 0, "cap_tree": DEFAULT_TREE_CAP,
                           "format": "json", "out": None, "func": cli.cmd_tree}),
    (["lookup", "m1.json", "--tree", "t.json", "--obs", "obs.json"],
     {"model": "m1.json", "table": None, "tree": "t.json", "obs": "obs.json", "out": None,
      "func": cli.cmd_lookup}),
    (["proto"], {"profile": None, "profile_file": None, "p_h": 0.5, "utilities": "1,0,0,1",
                 "method": "gaussian", "normalization": "relative-to-compute",
                 "cap_enum": DEFAULT_ENUMERATION_CAP, "out": None, "moments_out": None,
                 "func": cli.cmd_proto}),
]


@pytest.mark.parametrize("argv,expected", PARSED_DEFAULTS, ids=[a[0] for a, _ in PARSED_DEFAULTS])
def test_parsed_defaults_are_pinned(argv, expected):
    assert vars(build_parser().parse_args(argv)) == {"command": argv[0], **expected}


def test_main_builds_the_parser_once(workspace, monkeypatch, capsys):
    main(["validate", str(workspace / "m1.json")])
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["select", str(workspace / "m1.json")]) == 0
    assert main(["validate", str(workspace / "m1.json")]) == 0
    assert built == []
    assert build_parser() is build_parser()


def test_parsing_leaves_no_state_behind():
    parser = build_parser()
    assert parser.parse_args(["proto", "--profile", "high"]).profile == ["high"]
    assert parser.parse_args(["proto"]).profile is None
    table = parser.parse_args(["lookup", "m.json", "--table", "t.sact", "--obs", "o.json"])
    assert (table.table, table.tree) == ("t.sact", None)
    tree = parser.parse_args(["lookup", "m.json", "--tree", "t.json", "--obs", "o.json"])
    assert (tree.table, tree.tree) == (None, "t.json")


def help_text(parse, argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        parse(argv)
    assert excinfo.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]], ids=["sact", "analyze"])
def test_help_follows_the_width_at_call_time(argv, monkeypatch, capsys):
    build_parser()
    texts = {}
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        fresh = build_parser.__wrapped__()
        texts[columns] = help_text(main, argv, capsys)
        assert texts[columns] == help_text(fresh.parse_args, argv, capsys)
    assert texts["60"] != texts["120"]


def test_analyze_with_a_negative_table_cap_exits_two(workspace):
    result = run_sact("analyze", "m1.json", "--cap-table", "-1", cwd=workspace)
    assert result.returncode == 2
    assert result.stdout == b""


def test_proto_profile_integer_too_large_for_a_float_exits_two(workspace):
    (workspace / "huge.json").write_text(
        '{"name": "w", "kind": "explicit", "weights": [1' + "0" * 400 + "]}"
    )
    result = run_sact("proto", "--profile-file", "huge.json", cwd=workspace)
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr == b"error: profile.weights[0]: integer too large for a float\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"name": "d", "kind": "linear-decay", "intercept": NaN, "slope": 0.25, '
            '"w_max": 4.0, "count": 10}',
            b"error: profile.intercept: expected a finite number, got nan\n",
        ),
        (
            '{"name": "w", "kind": "explicit", "weights": [1.0, Infinity]}',
            b"error: profile.weights[1]: expected a finite number, got inf\n",
        ),
    ],
)
def test_proto_profile_non_finite_number_exits_two(workspace, text, message):
    (workspace / "nonfinite.json").write_text(text)
    result = run_sact("proto", "--profile-file", "nonfinite.json", cwd=workspace)
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr == message


def test_proto_presets_with_moments(workspace):
    result = run_sact("proto", "--moments-out", "moments.csv", cwd=workspace)
    assert result.returncode == 0
    lines = result.stdout.decode().splitlines()
    assert len(lines) == 1 + 3 * 61  # header + three curves of n = 0 .. 60
    moments = (workspace / "moments.csv").read_text().splitlines()
    assert moments[0] == "profile,n,mean_h,var_h"
    assert len(moments) == 1 + 3 * 61


def test_every_command_is_byte_deterministic(workspace):
    profile = {"name": "unit", "kind": "explicit", "weights": [math.log(4.0)]}
    (workspace / "unit.json").write_text(json.dumps(profile))
    (workspace / "obs.json").write_text(json.dumps({"e1": True}))
    run_sact("compile", "m1.json", "--subset", "e1", "--out", "m1.sact", cwd=workspace)
    commands = [
        ("validate", "m1.json"),
        ("analyze", "m1.json"),
        ("analyze", "m1.json", "--method", "gaussian"),
        ("select", "m1.json"),
        ("select", "m1.json", "--exhaustive"),
        ("tree", "m1.json"),
        ("tree", "m1.json", "--format", "dot"),
        ("lookup", "m1.json", "--table", "m1.sact", "--obs", "obs.json"),
        ("proto", "--profile-file", "unit.json", "--method", "exact"),
        ("proto", "--profile", "high", "--normalization", "range-normalized"),
    ]
    for command in commands:
        first = run_sact(*command, cwd=workspace)
        second = run_sact(*command, cwd=workspace)
        assert first.returncode == 0, command
        assert first.stdout == second.stdout, command


def test_compiled_artifacts_are_byte_deterministic(workspace):
    run_sact("compile", "m1.json", "--subset", "e1", "--out", "a.sact", cwd=workspace)
    run_sact("compile", "m1.json", "--subset", "e1", "--out", "b.sact", cwd=workspace)
    assert (workspace / "a.sact").read_bytes() == (workspace / "b.sact").read_bytes()
