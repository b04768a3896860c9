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
The expansion of largest expected-value gain is accepted if it strictly
improves net inferential value, counting two extra nodes of memory, and the
procedure recurses into each branch independently.
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
from .niv import NivReport, TreePolicy, finite, niv, outranks, policy_costs

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
    # Not niv.compose_ev over the tree's (P(act | H), P(act | not-H)): that
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
    actions come from the threshold rule on the extended paths.  Each leaf
    considers the expansion of largest expected-value gain, ties to the
    smaller id (:func:`~sact.niv.outranks`), and accepts it when the value
    gain ``r * dEV`` beats the two added nodes' storage cost.  For r > 0,
    which ``validate_model`` enforces, ``r * dEV - 2 * node cost`` is
    non-decreasing in dEV, so this is the expansion of largest NIV gain
    whatever the costs: they decide only where growth stops, and each leaf
    prices only the expansion it considers.  With ``lookahead = L``, a chain
    of up to L non-improving expansions is explored and committed only if
    the subtree ends up ahead, in which case the whole subtree is recorded
    as a single step.

    Each node is priced as :func:`tree_niv` prices it, by the memory cost
    :func:`~sact.niv.policy_costs` gives a one-node tree: the rule that also
    prices a table by its size.  Path probabilities are cheap running
    products, so valuation is exact; there is no Gaussian variant for
    asymmetric paths.  A NIV or gain that is not finite is refused with
    :class:`DomainError`.
    """
    if lookahead < 0:
        raise MethodError("lookahead depth must be >= 0")
    if len(model.evidence) > cap:
        raise CapExceededError(
            f"model has {len(model.evidence)} evidence items, above the tree cap of {cap}"
        )
    thr = threshold(model.utilities, model.p_h)
    node_cost = policy_costs(model.costs, TreePolicy(1))[2]
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
        # (dev, id, branches)
        best: tuple[float, str, tuple] | None = None
        for evidence_id, branches in candidates:
            if evidence_id in used:
                continue
            (a1, b1, w1), (a0, b0, w0) = branches
            dev = _leaf_value(
                model, p_path_h * a1, p_path_nh * b1, optimal_action(w_path + w1, thr)
            ) + _leaf_value(
                model, p_path_h * a0, p_path_nh * b0, optimal_action(w_path + w0, thr)
            ) - base
            if outranks(dev, evidence_id, best):
                best = (dev, evidence_id, branches)
        if best is None:
            return Leaf(action), 0.0, []
        dev, evidence_id, branches = best
        dniv = finite(r * dev - 2.0 * node_cost,
                      "the net inferential value gain of the best expansion")
        if dniv <= 0.0 and tolerance == 0:
            return Leaf(action), 0.0, []
        # An improving expansion gives its children the full lookahead again;
        # a tolerated dip spends one level of it.
        child_tolerance = lookahead if dniv > 0.0 else tolerance - 1
        used_below = used | {evidence_id}
        (if_true, true_gain, true_events), (if_false, false_gain, false_events) = [
            grow(p_path_h * a, p_path_nh * b, w_path + w, used_below, child_tolerance)
            for a, b, w in branches
        ]
        total = dniv + (true_gain + false_gain)
        node = Internal(evidence_id, if_true, if_false)
        if dniv > 0.0:
            return node, total, [(evidence_id, dniv)] + true_events + false_events
        if total > 0.0:
            # Committed as one step: the dip is only acceptable as part of
            # this subtree, so it is traced as a unit.
            return node, total, [(evidence_id, total)]
        return Leaf(action), 0.0, []

    null_action = optimal_action(0.0, thr)
    initial_niv = finite(r * _leaf_value(model, 1.0, 1.0, null_action) - node_cost,
                         "the net inferential value of the null tree")
    root, _, events = grow(1.0, 1.0, 0.0, frozenset(), lookahead)

    steps = []
    running = initial_niv
    for evidence_id, gain in events:
        after = finite(running + gain, "the net inferential value of the grown tree")
        steps.append(ExpansionStep(evidence_id, running, after))
        running = after
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
