"""Command-line surface: validate, analyze, select, compile, tree, lookup, proto.

Machine output (JSON, CSV, or table bytes) goes to stdout or ``--out``;
human-readable notes go to stderr so pipelines stay clean.  Exit codes:
0 success, 1 validation failure, 2 I/O or parse error, 3 computation refusal
(caps or method), 4 artifact/model digest mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Sequence

from .errors import (
    CapExceededError,
    DigestMismatchError,
    DomainError,
    FormatError,
    MethodError,
    ObservationError,
    UnknownEvidenceError,
)
from .exact import DEFAULT_ENUMERATION_CAP
from .gaussian import LOW_N_THRESHOLD, low_n
from .model import (
    DiagnosisModel,
    UtilityTable,
    model_digest,
    model_from_json,
    parse_json,
    validate_model,
)
from .niv import ComputePolicy, NivReport, Policy, TablePolicy, compare_policies, niv
from .profiles import (
    PRESETS,
    export_analysis,
    export_moments,
    loss_curve,
    profile_from_dict,
)
from .table import (
    DEFAULT_SEARCH_CAP,
    DEFAULT_TABLE_CAP,
    SelectionTrace,
    compile_table,
    exact_ev_subset,
    exhaustive_subset_search,
    gaussian_ev_subset,
    greedy_select,
    read_table,
    table_lookup,
    write_table,
)
from .tree import DEFAULT_TREE_CAP, build_tree, export_tree, tree_from_json, tree_lookup, tree_niv

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_REFUSED = 3
EXIT_DIGEST = 4


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _emit_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit_json(document: object, out: str | None) -> None:
    """Write ``document`` as JSON, or nothing if it holds an infinity or a NaN."""
    try:
        text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"the result cannot be written as JSON: {exc}") from None
    _emit_text(text + "\n", out)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not valid UTF-8: {exc}") from None


def _load_valid_model(path: str) -> DiagnosisModel:
    model = model_from_json(_read_text(path))
    violations = validate_model(model)
    if violations:
        _note(f"model {path} is invalid:")
        for violation in violations:
            _note(f"  [{violation.code}] {violation.field}: {violation.message}")
        raise _Invalid()
    return model


class _Invalid(Exception):
    """Internal: model failed validation; diagnostics already printed."""


def _load_observation(path: str) -> dict[str, bool]:
    data = parse_json(_read_text(path), "observation file")
    if not isinstance(data, dict):
        raise FormatError("observation must be a JSON object of booleans")
    for key, value in data.items():
        if not isinstance(value, bool):
            raise FormatError(f"observation[{key!r}] must be true or false")
    return data


def cmd_validate(args: argparse.Namespace) -> int:
    model = model_from_json(_read_text(args.model))
    violations = validate_model(model)
    _emit_json([v.to_dict() for v in violations], args.out)
    return EXIT_OK if not violations else EXIT_INVALID


def _warn_low_n(model: DiagnosisModel, method: str) -> None:
    if method == "gaussian" and low_n(len(model.evidence)):
        _note(
            f"note: the normal approximation is unreliable below {LOW_N_THRESHOLD} "
            "summed items; prefer --method exact at this size"
        )


def _policy_report(
    model: DiagnosisModel, policy: Policy, subset: Sequence[str], args: argparse.Namespace
) -> NivReport:
    """The report of a policy that acts on ``subset``, valued by ``--method``."""
    if args.method == "exact":
        ev = exact_ev_subset(model, subset, cap=args.cap_enum).ev
    else:
        ev = gaussian_ev_subset(model, subset).ev
    return niv(model, policy, ev, method=args.method)


def _greedy_select(
    model: DiagnosisModel, args: argparse.Namespace
) -> tuple[tuple[str, ...], SelectionTrace]:
    return greedy_select(
        model,
        method=args.method,
        lookahead=args.lookahead,
        enum_cap=args.cap_enum,
        table_cap=args.cap_table,
    )


def cmd_analyze(args: argparse.Namespace) -> int:
    model = _load_valid_model(args.model)
    _warn_low_n(model, args.method)
    ids = [item.id for item in model.evidence]
    compute_report = _policy_report(model, ComputePolicy(len(ids)), ids, args)
    subset, _ = _greedy_select(model, args)
    table_report = _policy_report(model, TablePolicy(subset), subset, args)

    tree_report = None
    if args.method == "exact":
        tree, _ = build_tree(model, lookahead=args.lookahead, cap=args.cap_tree)
        tree_report = tree_niv(model, tree)

    if tree_report is not None and tree_report.niv > table_report.niv:
        best_name, best_report = "tree", tree_report
    else:
        best_name, best_report = "table", table_report
    choice = compare_policies(model, best_report, compute_report)
    document = {
        "compute": compute_report.to_dict(),
        "compile_table": table_report.to_dict(),
        "compile_tree": tree_report.to_dict() if tree_report is not None else None,
        "best_compile": best_name,
        "decision": choice.decision,
        "margin": choice.margin,
    }
    _emit_json(document, args.out)
    _note(f"decision: {choice.decision} (margin {choice.margin:.6g})")
    return EXIT_OK


def cmd_select(args: argparse.Namespace) -> int:
    if args.exhaustive and args.method == "gaussian":
        raise MethodError("exhaustive search values subsets exactly; use --method exact")
    model = _load_valid_model(args.model)
    _warn_low_n(model, args.method)
    if args.exhaustive:
        subset, report = exhaustive_subset_search(
            model, cap=args.cap_exhaustive, eval_cap=args.cap_enum
        )
        _emit_json({"subset": list(subset), "report": report.to_dict()}, args.out)
        return EXIT_OK
    subset, trace = _greedy_select(model, args)
    document = {
        "subset": list(subset),
        "stopped_reason": trace.stopped_reason,
        "kept": trace.kept,
        "steps": [
            {"id": s.evidence_id, "niv_before": s.niv_before, "niv_after": s.niv_after}
            for s in trace.steps
        ],
    }
    _emit_json(document, args.out)
    return EXIT_OK


def cmd_compile(args: argparse.Namespace) -> int:
    model = _load_valid_model(args.model)
    if args.subset is not None:
        subset = [s for s in args.subset.split(",") if s]
    else:
        subset, _ = _greedy_select(model, args)
        _note(f"selected subset: {list(subset)}")
    table = compile_table(model, subset, cap=args.cap_table)
    Path(args.out).write_bytes(write_table(table))
    _note(f"wrote {table.entries}-entry table over {len(table.subset)} items to {args.out}")
    return EXIT_OK


def cmd_tree(args: argparse.Namespace) -> int:
    model = _load_valid_model(args.model)
    tree, trace = build_tree(model, lookahead=args.lookahead, cap=args.cap_tree)
    _emit_text(export_tree(tree, format=args.format), args.out)
    _note(
        f"built tree with {tree.node_count} nodes in {len(trace.steps)} expansions "
        f"(niv {trace.initial_niv:.6g} -> {trace.final_niv:.6g})"
    )
    return EXIT_OK


def cmd_lookup(args: argparse.Namespace) -> int:
    model = _load_valid_model(args.model)
    observation = _load_observation(args.obs)
    digest = model_digest(model)
    if args.table is not None:
        table = read_table(Path(args.table).read_bytes())
        if table.model_digest != digest:
            raise DigestMismatchError(
                f"table {args.table} was compiled from a different model"
            )
        action = table_lookup(table, observation)
        consulted = list(table.subset)
    else:
        tree = tree_from_json(_read_text(args.tree))
        if tree.model_digest != digest:
            raise DigestMismatchError(f"tree {args.tree} was built from a different model")
        action, consulted = tree_lookup(tree, observation)
    _emit_json({"action": action.value, "consulted": consulted}, args.out)
    return EXIT_OK


def _parse_utilities(text: str) -> UtilityTable:
    parts = text.split(",")
    if len(parts) != 4:
        raise FormatError("--utilities expects four comma-separated numbers")
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise FormatError(f"--utilities could not parse {text!r}") from None
    return UtilityTable(*numbers)


def cmd_proto(args: argparse.Namespace) -> int:
    profiles = [PRESETS[name] for name in args.profile or ()]
    for path in args.profile_file or ():
        data = parse_json(_read_text(path), f"profile file {path}")
        profiles.append(profile_from_dict(data))
    if not profiles:
        profiles = [PRESETS["high"], PRESETS["moderate"], PRESETS["low"]]
    utilities = _parse_utilities(args.utilities)
    curves = [
        loss_curve(
            profile,
            args.p_h,
            utilities,
            method=args.method,
            normalization=args.normalization,
            enum_cap=args.cap_enum,
        )
        for profile in profiles
    ]
    _emit_text(export_analysis(curves), args.out)
    if args.moments_out is not None:
        Path(args.moments_out).write_text(export_moments(profiles), encoding="utf-8")
        _note(f"wrote moment table to {args.moments_out}")
    return EXIT_OK


def count(text: str) -> int:
    """The type of every count flag (``--cap-*`` and ``--lookahead``): an integer, 0 or more.

    argparse exits 2 on a negative count, and names this function in its
    message for a value that is not an integer ("invalid count value").
    """
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


# The flags several subcommands share, each declared once.
SHARED = {
    "model": {"help": "path to the model JSON file"},
    "--method": {"choices": ["exact", "gaussian"], "default": "exact"},
    "--lookahead": {"type": count, "default": 0,
                    "help": "tolerated run of non-improving hill-climb steps"},
    "--cap-enum": {"type": count, "default": DEFAULT_ENUMERATION_CAP,
                   "help": "largest subset the exact oracle will enumerate"},
    "--cap-table": {"type": count, "default": DEFAULT_TABLE_CAP,
                    "help": "largest subset a table may be compiled over"},
    "--cap-tree": {"type": count, "default": DEFAULT_TREE_CAP},
    "--out": {},
}
# The leading flags of the design commands: analyze, select and compile.
DESIGN = ("model", "--method", "--lookahead", "--cap-enum", "--cap-table")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``sact`` argument parser, built on the first call and shared by every later one.

    Parsing leaves the parser as it was: an append flag copies its default,
    and usage, help and error text are formatted when they are printed, for
    the ``sys.stdout``, ``sys.stderr`` and ``COLUMNS`` of that moment.  So
    :func:`main` parses every command line of a process with one parser.
    """
    parser = argparse.ArgumentParser(
        prog="sact",
        description="Compile binary diagnosis models into situation-action tables and trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *flags, **defaults) -> argparse.ArgumentParser:
        """Subcommand ``name`` with ``flags`` in help order: each is the name of
        a shared flag or a ``(name, keyword arguments)`` pair of its own."""
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            flag, kwargs = (flag, SHARED[flag]) if isinstance(flag, str) else flag
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func, **defaults)
        return p

    command("validate", cmd_validate, "check model invariants; print violations as JSON",
            "model", "--out")
    command("analyze", cmd_analyze, "compare computing against the best found compilation",
            *DESIGN, "--cap-tree", "--out")
    command("select", cmd_select, "choose the evidence subset to compile", *DESIGN,
            ("--exhaustive", {"action": "store_true",
                              "help": "search all subsets instead of hill-climbing"}),
            ("--cap-exhaustive", {"type": count, "default": DEFAULT_SEARCH_CAP}), "--out")
    command("compile", cmd_compile, "write a compiled lookup table (SACT binary)", *DESIGN,
            ("--subset", {"help": "comma-separated evidence ids (default: greedy selection)"}),
            ("--out", {"required": True}))
    command("tree", cmd_tree, "build a situation-action tree and export it",
            "model", "--lookahead", "--cap-tree",
            ("--format", {"choices": ["json", "dot"], "default": "json"}), "--out")

    p = command("lookup", cmd_lookup, "run one observation through a compiled artifact", "model")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--table", help="path to a SACT table")
    group.add_argument("--tree", help="path to a JSON tree")
    p.add_argument("--obs", required=True, help="path to an observation JSON object")
    p.add_argument("--out", **SHARED["--out"])

    command("proto", cmd_proto, "export loss curves for prototypical weight profiles",
            ("--profile", {"action": "append", "choices": sorted(PRESETS),
                           "help": "named preset (repeatable; default: all)"}),
            ("--profile-file", {"action": "append",
                                "help": "path to a profile JSON file (repeatable)"}),
            ("--p-h", {"type": float, "default": 0.5}),
            ("--utilities", {"default": "1,0,0,1", "help": "u_h_d,u_h_nd,u_nh_d,u_nh_nd"}),
            "--method",
            ("--normalization", {"choices": ["relative-to-compute", "range-normalized"],
                                 "default": "relative-to-compute"}),
            "--cap-enum", "--out", ("--moments-out", {}), method="gaussian")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Invalid:
        return EXIT_INVALID
    except (FormatError, OSError) as exc:
        _note(f"error: {exc}")
        return EXIT_IO
    except (CapExceededError, MethodError) as exc:
        _note(f"refused: {exc}")
        return EXIT_REFUSED
    except DigestMismatchError as exc:
        _note(f"stale artifact: {exc}")
        return EXIT_DIGEST
    except (DomainError, UnknownEvidenceError, ObservationError) as exc:
        _note(f"invalid input: {exc}")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
