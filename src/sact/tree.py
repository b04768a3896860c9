"""Asymmetric situation-action trees: construction, valuation, execution, export.

A tree tests one evidence variable per internal node and prescribes an action
at each leaf.  Root-to-leaf paths are mutually exclusive and exhaustive
situations, so the tree's expected value is a sum over leaves of path
probability times the leaf action's utility.  Unlike a lookup table, branches
stop as soon as further evidence stops paying for its storage, so the tree
can be much smaller than 2^n cells.

Construction is recursive hill-climbing: starting from the single-leaf tree,
each leaf considers testing one evidence variable unused on its path, with
both children's actions set by the threshold rule on their extended paths.
The best strictly improving expansion (by net inferential value, counting two
extra nodes of memory) is accepted and the procedure recurses into each
branch independently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Union

from .errors import (
    CapExceededError,
    DomainError,
    FormatError,
    MethodError,
    ObservationError,
    UnknownEvidenceError,
)
from .model import (
    Action,
    DiagnosisModel,
    Observation,
    model_digest,
    optimal_action,
    parse_json,
    threshold,
)
from .niv import NivReport, TreePolicy, niv, outranks

DEFAULT_TREE_CAP = 20

TREE_FORMAT = "sact-tree"
TREE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Leaf:
    action: Action


@dataclass(frozen=True)
class Internal:
    evidence_id: str
    if_true: "Node"
    if_false: "Node"


Node = Union[Leaf, Internal]


def count_nodes(node: Node) -> int:
    if isinstance(node, Leaf):
        return 1
    return 1 + count_nodes(node.if_true) + count_nodes(node.if_false)


@dataclass(frozen=True)
class SituationActionTree:
    root: Node
    model_digest: bytes

    @cached_property
    def node_count(self) -> int:
        return count_nodes(self.root)


@dataclass(frozen=True)
class ExpansionStep:
    """One committed leaf expansion during tree construction."""

    evidence_id: str
    niv_before: float
    niv_after: float


@dataclass(frozen=True)
class BuildTrace:
    steps: tuple[ExpansionStep, ...]
    initial_niv: float
    final_niv: float


def _leaf_value(model: DiagnosisModel, p_path_h: float, p_path_nh: float, action: Action) -> float:
    """A leaf's share of the expected value: path probability times utility, by hypothesis."""
    # Not exact.compose_ev over the tree's (P(act | H), P(act | not-H)): that
    # sums the leaves' path probabilities before weighting them by utility,
    # which rounds differently.  It differed from tree_ev by float.hex on 56
    # of 190 trees (build_tree at lookahead 0 and 1 on the identity, tie and
    # random test models), so the values analyze reports would change.
    u = model.utilities
    p_h = model.p_h
    if action is Action.ACT:
        return p_h * p_path_h * u.u_h_d + (1.0 - p_h) * p_path_nh * u.u_nh_d
    return p_h * p_path_h * u.u_h_nd + (1.0 - p_h) * p_path_nh * u.u_nh_nd


def tree_ev(model: DiagnosisModel, tree: SituationActionTree) -> float:
    """Expected value of the actions the tree prescribes.

    Sums, over all root-to-leaf paths, the path probability under each
    hypothesis (a product of per-branch conditional probabilities) times the
    leaf action's utility, weighted by the prior.  Walks the true branch
    first.  Rejects trees that retest an id along a path or test ids the
    model does not define, and models holding an item outside (0, 1).
    """
    branches = {item.id: item.record.branches for item in model.evidence}

    def walk(node: Node, p_path_h: float, p_path_nh: float, used: frozenset[str]) -> float:
        if isinstance(node, Leaf):
            return _leaf_value(model, p_path_h, p_path_nh, node.action)
        if node.evidence_id in used:
            raise DomainError(f"evidence id {node.evidence_id!r} repeats along a path")
        try:
            (a1, b1, _), (a0, b0, _) = branches[node.evidence_id]
        except KeyError:
            raise UnknownEvidenceError(f"unknown evidence id {node.evidence_id!r}") from None
        used = used | {node.evidence_id}
        return walk(node.if_true, p_path_h * a1, p_path_nh * b1, used) + walk(
            node.if_false, p_path_h * a0, p_path_nh * b0, used
        )

    return walk(tree.root, 1.0, 1.0, frozenset())


def tree_niv(model: DiagnosisModel, tree: SituationActionTree) -> NivReport:
    """Net inferential value of the tree: lifetime value minus node storage."""
    return niv(model, TreePolicy(tree.node_count), tree_ev(model, tree), method="exact")


def build_tree(
    model: DiagnosisModel,
    *,
    lookahead: int = 0,
    cap: int = DEFAULT_TREE_CAP,
) -> tuple[SituationActionTree, BuildTrace]:
    """Grow a situation-action tree by per-leaf hill-climbing.

    Starts from the null tree (one leaf holding the prior-only optimal
    action).  A leaf expansion replaces it with a test plus two leaves whose
    actions come from the threshold rule on the extended paths; it is
    accepted when the value gain ``r * dEV`` beats the two added nodes'
    storage cost.  Ties break toward the larger expected-value gain, then the
    smaller id.  With ``lookahead = L``, a chain of up to L non-improving
    expansions is explored and committed only if the subtree ends up ahead,
    in which case the whole subtree is recorded as a single step.

    Path probabilities are cheap running products, so valuation is exact;
    there is no Gaussian variant for asymmetric paths.
    """
    if lookahead < 0:
        raise MethodError("lookahead depth must be >= 0")
    if len(model.evidence) > cap:
        raise CapExceededError(
            f"model has {len(model.evidence)} evidence items, above the tree cap of {cap}"
        )
    thr = threshold(model.utilities, model.p_h)
    node_cost = model.costs.k5 * model.costs.k6
    r = model.costs.r
    candidates = [(item.id, item.record.branches) for item in model.evidence]

    def grow(
        p_path_h: float,
        p_path_nh: float,
        w_path: float,
        used: frozenset[str],
        tolerance: int,
    ) -> tuple[Node, float, list[tuple[str, float]]]:
        action = optimal_action(w_path, thr)
        base = _leaf_value(model, p_path_h, p_path_nh, action)
        # (dniv, dev, id, branches)
        best: tuple[float, float, str, tuple] | None = None
        for evidence_id, branches in candidates:
            if evidence_id in used:
                continue
            (a1, b1, w1), (a0, b0, w0) = branches
            dev = _leaf_value(
                model, p_path_h * a1, p_path_nh * b1, optimal_action(w_path + w1, thr)
            ) + _leaf_value(
                model, p_path_h * a0, p_path_nh * b0, optimal_action(w_path + w0, thr)
            ) - base
            dniv = r * dev - 2.0 * node_cost
            if outranks(dniv, dev, evidence_id, best):
                best = (dniv, dev, evidence_id, branches)
        if best is None:
            return Leaf(action), 0.0, []
        dniv, _, evidence_id, branches = best

        def children(child_tolerance: int):
            used_below = used | {evidence_id}
            (a1, b1, w1), (a0, b0, w0) = branches
            if_true = grow(p_path_h * a1, p_path_nh * b1, w_path + w1, used_below, child_tolerance)
            if_false = grow(p_path_h * a0, p_path_nh * b0, w_path + w0, used_below, child_tolerance)
            # (true node, false node, their NIV gain, their expansion events)
            return if_true[0], if_false[0], if_true[1] + if_false[1], if_true[2] + if_false[2]

        if dniv > 0.0:
            true_node, false_node, child_gain, child_events = children(lookahead)
            events = [(evidence_id, dniv)] + child_events
            return Internal(evidence_id, true_node, false_node), dniv + child_gain, events
        if tolerance > 0:
            true_node, false_node, child_gain, _ = children(tolerance - 1)
            total = dniv + child_gain
            if total > 0.0:
                # Committed as one step: the dip is only acceptable as part of
                # this subtree, so it is traced as a unit.
                return Internal(evidence_id, true_node, false_node), total, [(evidence_id, total)]
        return Leaf(action), 0.0, []

    null_action = optimal_action(0.0, thr)
    initial_niv = r * _leaf_value(model, 1.0, 1.0, null_action) - node_cost
    root, _, events = grow(1.0, 1.0, 0.0, frozenset(), lookahead)

    steps = []
    running = initial_niv
    for evidence_id, gain in events:
        steps.append(ExpansionStep(evidence_id, running, running + gain))
        running += gain
    tree = SituationActionTree(root, model_digest(model))
    return tree, BuildTrace(steps=tuple(steps), initial_niv=initial_niv, final_niv=running)


def tree_lookup(tree: SituationActionTree, observation: Observation) -> tuple[Action, list[str]]:
    """Walk the tree under an observation; return the action and consulted ids.

    The observation must supply every id on the realized path (other ids are
    never read), supporting later accounting of asymmetric observation costs.
    """
    node = tree.root
    consulted: list[str] = []
    while isinstance(node, Internal):
        if node.evidence_id not in observation:
            raise ObservationError(
                f"observation is missing {node.evidence_id!r}, needed on the walked path"
            )
        consulted.append(node.evidence_id)
        node = node.if_true if observation[node.evidence_id] else node.if_false
    return node.action, consulted


# ---------------------------------------------------------------------------
# Export formats.  JSON is the persistence format; DOT is for rendering.
# ---------------------------------------------------------------------------


def _node_to_dict(node: Node) -> dict:
    if isinstance(node, Leaf):
        return {"action": node.action.value}
    return {
        "test": node.evidence_id,
        "if_true": _node_to_dict(node.if_true),
        "if_false": _node_to_dict(node.if_false),
    }


def _node_from_dict(data: object, where: str) -> Node:
    if not isinstance(data, dict):
        raise FormatError(f"{where}: expected an object")
    if set(data) == {"action"}:
        try:
            return Leaf(Action(data["action"]))
        except ValueError:
            raise FormatError(f"{where}: unknown action {data['action']!r}") from None
    if set(data) == {"test", "if_true", "if_false"}:
        if not isinstance(data["test"], str):
            raise FormatError(f"{where}.test: expected a string")
        return Internal(
            data["test"],
            _node_from_dict(data["if_true"], f"{where}.if_true"),
            _node_from_dict(data["if_false"], f"{where}.if_false"),
        )
    raise FormatError(f"{where}: node must have key 'action' or keys 'test'/'if_true'/'if_false'")


def export_tree(tree: SituationActionTree, format: Literal["json", "dot"] = "json") -> str:
    """Render the tree as JSON (round-trippable) or DOT (for graphviz).

    Both outputs are deterministic: nodes are numbered in preorder with the
    true branch first.
    """
    if format == "json":
        document = {
            "format": TREE_FORMAT,
            "version": TREE_FORMAT_VERSION,
            "model_digest": tree.model_digest.hex(),
            "node_count": tree.node_count,
            "root": _node_to_dict(tree.root),
        }
        return json.dumps(document, indent=2, sort_keys=True) + "\n"
    if format == "dot":
        lines = ["digraph situation_action_tree {"]
        edges: list[str] = []
        counter = 0

        def emit(node: Node) -> int:
            nonlocal counter
            name = counter
            counter += 1
            if isinstance(node, Leaf):
                label = "D" if node.action is Action.ACT else "¬D"
                lines.append(f'  n{name} [label="{label}" shape=box];')
            else:
                label = node.evidence_id.replace("\\", "\\\\").replace('"', '\\"')
                lines.append(f'  n{name} [label="{label}" shape=ellipse];')
                true_name = emit(node.if_true)
                edges.append(f'  n{name} -> n{true_name} [label="T"];')
                false_name = emit(node.if_false)
                edges.append(f'  n{name} -> n{false_name} [label="F"];')
            return name

        emit(tree.root)
        lines.extend(edges)
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise FormatError(f"unknown tree export format {format!r}")


def tree_from_json(text: str) -> SituationActionTree:
    """Parse a JSON tree document, verifying structure and node count."""
    data = parse_json(text, "tree file")
    if not isinstance(data, dict):
        raise FormatError("tree document must be an object")
    if data.get("format") != TREE_FORMAT:
        raise FormatError("not a situation-action tree document")
    # type() rather than ==: true and 1.0 both equal 1.
    version = data.get("version")
    if type(version) is not int or version != TREE_FORMAT_VERSION:
        raise FormatError(f"unsupported tree format version {version!r}")
    expected = {"format", "version", "model_digest", "node_count", "root"}
    if set(data) != expected:
        raise FormatError(f"tree document keys must be exactly {sorted(expected)}")
    try:
        digest = bytes.fromhex(data["model_digest"])
    except (TypeError, ValueError):
        raise FormatError("model_digest must be a hex string") from None
    if len(digest) != 32:
        raise FormatError("model_digest must encode exactly 32 bytes")
    tree = SituationActionTree(_node_from_dict(data["root"], "root"), digest)
    if type(data["node_count"]) is not int or data["node_count"] != tree.node_count:
        raise FormatError(
            f"node_count is {data['node_count']!r} but the tree has {tree.node_count} nodes"
        )
    return tree
