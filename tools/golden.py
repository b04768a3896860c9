"""Write the golden manifest: a fingerprint of every output sact computes.

One line per (case, quantity): ``CASE QUANTITY VALUE``, where VALUE is the
``float.hex`` of a float, the SHA-256 of bytes, or the SHA-256 of a
structured result rendered with every float as its ``float.hex``.  The first
line records the Python and numpy versions, because a numpy upgrade may
legitimately change the rounding of a pairwise sum.

The corpus is built by ``tests/helpers.py``: ``m1``, ``identity_models(211)``
(which hold the ``tie_models``), seeded random models and benchmark-style
models.  The quantities: ``model_digest`` and the model's JSON, exact and
Gaussian valuations of every prefix, greedy traces of both methods at
lookahead 0, 1 and 2, exhaustive search (m <= 11), tables, trees (JSON, DOT,
``tree_ev``), loss curves, ``export_moments``, and the exit code, stdout,
stderr and written file (or ``absent``) of each command on good and bad inputs
and of every ``--help``.

Usage: python3 tools/golden.py > tests/golden.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import sact.cli  # noqa: E402
from sact import (  # noqa: E402
    PRESETS,
    CostModel,
    SactError,
    UtilityTable,
    WeightProfile,
    build_tree,
    compile_table,
    exact_ev_subset,
    exhaustive_subset_search,
    export_analysis,
    export_moments,
    export_tree,
    gaussian_ev_subset,
    greedy_select,
    loss_curve,
    model_digest,
    model_to_json,
    tree_ev,
    write_table,
)

from helpers import design_model, identity_models, m1, random_model  # noqa: E402


def header() -> str:
    return f"# sact golden manifest: python {platform.python_version()}, numpy {np.__version__}"


def render(value) -> str:
    """A structured value as text, every float as its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return "{" + ",".join(f"{render(k)}:{render(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(render(v) for v in value) + "]"
    if hasattr(value, "__dataclass_fields__"):
        return type(value).__name__ + render(vars(value))
    return repr(value)


def fingerprint(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        value = value.encode("utf-8")
    if not isinstance(value, bytes):
        value = render(value).encode("utf-8")
    return hashlib.sha256(value).hexdigest()


def attempt(compute):
    """``compute()``, or the name of the sact error it raised."""
    try:
        return compute()
    except SactError as exc:
        return f"raises {type(exc).__name__}: {exc}"


def corpus() -> list[tuple[str, object]]:
    cases = [("m1", m1())]
    cases += [(f"id{i}", model) for i, model in enumerate(identity_models(211))]
    rng = random.Random(5)
    cases += [(f"random{m}", random_model(rng, m)) for m in (12, 13, 14)]
    rng = random.Random(7)
    cases += [
        (f"design{m}", design_model(rng, m, alpha=(0.55, 0.8), beta=(0.2, 0.45),
                                    k5=10 ** rng.uniform(-11, -10), k6=10 ** rng.uniform(7, 8)))
        for m in (12, 14, 17, 20)
    ]
    cases += [
        (f"search{m}", design_model(rng, m, alpha=(0.05, 0.95), beta=(0.05, 0.95),
                                    k5=10 ** rng.uniform(-4, -3), k6=1.0))
        for m in (10, 11)
    ]
    return cases


def model_lines(case: str, model) -> list[str]:
    lines = [
        f"{case} model_digest {model_digest(model).hex()}",
        f"{case} model_json {fingerprint(model_to_json(model))}",
    ]
    ids = [item.id for item in model.evidence]
    for n in range(len(ids) + 1):
        exact = exact_ev_subset(model, ids[:n])
        lines.append(f"{case} exact[:{n}] {fingerprint(exact)}")
        gaussian = gaussian_ev_subset(model, ids[:n])
        lines.append(f"{case} gaussian[:{n}] {fingerprint(gaussian)}")
    for method in ("exact", "gaussian"):
        for lookahead in (0, 1, 2):
            selected = greedy_select(model, method=method, lookahead=lookahead)
            lines.append(f"{case} greedy.{method}.{lookahead} {fingerprint(selected)}")
    subset, _ = greedy_select(model)
    lines.append(f"{case} table {fingerprint(write_table(compile_table(model, subset)))}")
    lines.append(f"{case} table.all {fingerprint(write_table(compile_table(model, ids)))}")
    if len(ids) <= 11:
        lines.append(f"{case} exhaustive {fingerprint(exhaustive_subset_search(model))}")
    for lookahead in (0, 1):
        tree, trace = build_tree(model, lookahead=lookahead)
        name = f"{case} tree.{lookahead}"
        lines += [
            f"{name}.trace {fingerprint(trace)}",
            f"{name}.json {fingerprint(export_tree(tree, 'json'))}",
            f"{name}.dot {fingerprint(export_tree(tree, 'dot'))}",
            f"{name}.ev {fingerprint(tree_ev(model, tree))}",
        ]
    return lines


SMALL_PROFILES = [
    WeightProfile.explicit("even", [0.25 * (i + 1) for i in range(12)]),
    WeightProfile.explicit("ties", [1.0, 1.0, 0.5, 0.5, 0.5, 2.0, 0.1, 0.1]),
    WeightProfile.linear_decay("decay", intercept=1.0, slope=0.25, w_max=4.0, count=14),
]


def profile_lines() -> list[str]:
    lines = []
    skewed = UtilityTable(2.0, -1.0, 0.0, 1.0)
    for profile, methods in [(p, ("gaussian",)) for p in PRESETS.values()] + [
        (p, ("exact", "gaussian")) for p in SMALL_PROFILES
    ]:
        for method in methods:
            for normalization in ("relative-to-compute", "range-normalized"):
                for p_h, utilities in ((0.5, UtilityTable(1.0, 0.0, 0.0, 1.0)), (0.3, skewed)):
                    name = f"curve.{profile.name}.{method}.{normalization}.{p_h}"
                    curve = attempt(lambda: export_analysis([loss_curve(
                        profile, p_h, utilities, method=method, normalization=normalization)]))
                    lines.append(f"{name} {fingerprint(curve)}")
    profiles = [*PRESETS.values(), *SMALL_PROFILES]
    lines += [f"moments.{p.name} {fingerprint(export_moments([p]))}" for p in profiles]
    return lines


def cli_runs(work: Path) -> list[tuple[str, list[str], str | None]]:
    """(case, argv, file it may write) of each command, on good and bad inputs.

    A file the command did not write is fingerprinted as ``absent``.
    """
    rng = random.Random(11)
    model = design_model(rng, 12, alpha=(0.55, 0.8), beta=(0.2, 0.45), k5=1e-10, k6=1e7)
    search = design_model(rng, 10, alpha=(0.05, 0.95), beta=(0.05, 0.95), k5=1e-4, k6=1.0)
    bad = json.loads(model_to_json(model))
    bad["evidence"][0]["alpha"] = 1.0
    # Valid, but its utilities and lifetime factor overflow every NIV to inf.
    overflow = m1(utilities=UtilityTable(1e300, 0.0, 0.0, 1e300),
                  costs=CostModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e308))
    ids = [item.id for item in model.evidence]
    files = {
        "a.json": model_to_json(model),
        "b.json": model_to_json(search),
        "m1.json": model_to_json(m1()),
        "bad.json": json.dumps(bad),
        "overflow.json": model_to_json(overflow),
        "notjson.json": "{not json",
        "obs.json": json.dumps({i: k % 3 == 0 for k, i in enumerate(ids)}),
        "obs_table.json": json.dumps({i: k % 2 == 0 for k, i in enumerate(ids[:6])}),
        "obs_bad.json": json.dumps({ids[0]: 1}),
        "even.json": json.dumps({"name": "even", "kind": "explicit",
                                 "weights": [0.25 * (i + 1) for i in range(10)]}),
    }
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    a, b = str(work / "a.json"), str(work / "b.json")
    out = lambda name: str(work / name)  # noqa: E731
    return [
        ("validate", ["validate", a], None),
        ("validate.bad", ["validate", out("bad.json")], None),
        ("validate.notjson", ["validate", out("notjson.json")], None),
        ("validate.missing", ["validate", out("missing.json")], None),
        ("analyze", ["analyze", a], None),
        ("analyze.m1", ["analyze", out("m1.json")], None),
        ("analyze.lookahead", ["analyze", a, "--lookahead", "1"], None),
        ("analyze.gaussian", ["analyze", a, "--method", "gaussian"], None),
        ("analyze.bad", ["analyze", out("bad.json")], None),
        ("analyze.cap_enum", ["analyze", a, "--cap-enum", "4"], None),
        ("select", ["select", a], None),
        ("select.gaussian", ["select", a, "--method", "gaussian", "--lookahead", "1"], None),
        ("select.exhaustive", ["select", b, "--exhaustive"], None),
        ("select.cap_exhaustive", ["select", b, "--exhaustive", "--cap-exhaustive", "5"], None),
        ("compile", ["compile", a, "--out", out("a.sact")], "a.sact"),
        ("compile.subset", ["compile", a, "--subset", ",".join(ids[:6]), "--out", out("s.sact")],
         "s.sact"),
        ("compile.unknown", ["compile", a, "--subset", "nope", "--out", out("u.sact")], None),
        ("compile.cap_table", ["compile", a, "--cap-table", "2", "--subset", ",".join(ids[:6]),
                               "--out", out("c.sact")], None),
        ("tree", ["tree", a, "--out", out("a.tree.json")], "a.tree.json"),
        ("tree.lookahead", ["tree", a, "--lookahead", "1"], None),
        ("tree.dot", ["tree", b, "--format", "dot"], None),
        ("lookup.table", ["lookup", a, "--table", out("s.sact"), "--obs", out("obs_table.json")],
         None),
        ("lookup.tree", ["lookup", a, "--tree", out("a.tree.json"), "--obs", out("obs.json")],
         None),
        ("lookup.stale", ["lookup", b, "--tree", out("a.tree.json"), "--obs", out("obs.json")],
         None),
        ("lookup.obs_bad", ["lookup", a, "--tree", out("a.tree.json"), "--obs",
                            out("obs_bad.json")], None),
        ("lookup.obs_partial", ["lookup", a, "--table", out("s.sact"), "--obs", out("obs.json")],
         None),
        ("proto", ["proto", "--moments-out", out("moments.csv")], "moments.csv"),
        ("proto.exact", ["proto", "--method", "exact", "--profile-file", out("even.json"),
                         "--normalization", "range-normalized", "--p-h", "0.4"], None),
        ("proto.exact_preset", ["proto", "--method", "exact", "--profile", "high"], None),
        ("proto.utilities", ["proto", "--utilities", "1,2"], None),
        # A negative cap, and a cap that admits an impossible reservation.
        ("analyze.cap_table_negative", ["analyze", a, "--cap-table", "-1"], None),
        ("analyze.cap_enum_negative", ["analyze", a, "--cap-enum", "-1"], None),
        ("analyze.cap_tree_negative", ["analyze", a, "--cap-tree", "-1"], None),
        ("select.cap_exhaustive_negative", ["select", b, "--exhaustive", "--cap-exhaustive", "-1"],
         None),
        ("proto.cap_enum_huge", ["proto", "--method", "exact", "--profile", "high",
                                 "--cap-enum", "60"], None),
        # The parser itself: every help text, a negative count, an exact-only search.
        ("help", ["--help"], None),
        *[(f"{command}.help", [command, "--help"], None) for command in
          ("validate", "analyze", "select", "compile", "tree", "lookup", "proto")],
        ("tree.lookahead_negative", ["tree", a, "--lookahead", "-1"], None),
        ("select.exhaustive_gaussian", ["select", b, "--exhaustive", "--method", "gaussian"],
         None),
        # A valid model whose NIVs overflow: the searches refuse it, and the
        # exhaustive result (an infinite NIV) cannot be written as JSON.
        ("analyze.overflow", ["analyze", out("overflow.json")], None),
        ("select.exhaustive_overflow", ["select", out("overflow.json"), "--exhaustive"], None),
        ("select.overflow", ["select", out("overflow.json")], None),
        ("compile.overflow", ["compile", out("overflow.json"), "--out", out("overflow.sact")],
         "overflow.sact"),
        ("tree.overflow", ["tree", out("overflow.json")], None),
    ]


def run_cli(argv: list[str], work: Path) -> tuple[str, str, str]:
    """Exit code (or the exception that escaped), stdout and stderr of one command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    # argparse wraps its usage text to the terminal's width.
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = str(sact.cli.main(argv))
        except SystemExit as exc:
            code = str(exc.code)
        except Exception as exc:  # noqa: BLE001 - a crash is an output too
            code = f"raises {type(exc).__name__}"
    strip = lambda text: text.replace(str(work), "<dir>")  # noqa: E731
    return code, strip(stdout.getvalue()), strip(stderr.getvalue())


def cli_lines() -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as directory:
        work = Path(directory)
        for case, argv, writes in cli_runs(work):
            code, stdout, stderr = run_cli(argv, work)
            lines += [
                f"cli.{case} exit {code}",
                f"cli.{case} stdout {fingerprint(stdout)}",
                f"cli.{case} stderr {fingerprint(stderr)}",
            ]
            if writes is not None:
                written = work / writes
                value = fingerprint(written.read_bytes()) if written.exists() else "absent"
                lines.append(f"cli.{case} file {value}")
    return lines


def manifest() -> list[str]:
    """Every line of the manifest, header first."""
    lines = [header()]
    for case, model in corpus():
        lines += model_lines(case, model)
    return lines + profile_lines() + cli_lines()


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in manifest()))
