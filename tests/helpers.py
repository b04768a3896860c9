"""Shared builders for the test suite."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

import sact
from sact import (
    Action,
    CostModel,
    DiagnosisModel,
    EvidenceVariable,
    Internal,
    Leaf,
    SituationActionTree,
    UtilityTable,
    model_digest,
    optimal_action,
    threshold,
)
from sact.exact import compose_ev
from sact.gaussian import gaussian_tail

ZERO_COSTS = CostModel(k1=0.0, k2=0.0, k3=0.0, k4=0.0, k5=0.0, k6=0.0, r=1.0)
UNIT_COSTS = CostModel(k1=1.0, k2=1.0, k3=1.0, k4=1.0, k5=1.0, k6=1.0, r=1.0)
SYMMETRIC_UTILITIES = UtilityTable(u_h_d=1.0, u_h_nd=0.0, u_nh_d=0.0, u_nh_nd=1.0)

# The directory holding the ``sact`` package this test process imported.
SACT_ROOT = str(Path(sact.__file__).resolve().parents[1])

# Stderr text that means the child crashed or never found the package, so
# its exit code says nothing about the CLI's contract (exit 1 is also the
# "validation failure" code).
CRASH_MARKERS = ("Traceback", "No module named sact")


def run_sact(*args, cwd):
    """Run ``python -m sact ARGS`` in ``cwd`` on the package under test.

    The child's ``PYTHONPATH`` starts with ``SACT_ROOT``, followed by the
    inherited entries made absolute, so a relative entry such as ``src``
    still resolves from a temporary ``cwd`` and the child runs the same code
    as the library tests, whether or not sact is installed.  Fails the test
    if the child's stderr shows a traceback or a missing package.
    """
    inherited = os.environ.get("PYTHONPATH")
    entries = inherited.split(os.pathsep) if inherited else []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SACT_ROOT, *map(os.path.abspath, entries)])
    result = subprocess.run(
        [sys.executable, "-m", "sact", *args],
        cwd=cwd, env=env, capture_output=True, timeout=120,
    )
    stderr = result.stderr.decode(errors="replace")
    for marker in CRASH_MARKERS:
        if marker in stderr:
            raise AssertionError(f"sact {' '.join(args)} wrote {marker!r} to stderr:\n{stderr}")
    return result


def make_model(evidence_params, *, p_h=0.5, utilities=SYMMETRIC_UTILITIES, costs=ZERO_COSTS,
               ids=None):
    if ids is None:
        ids = [f"e{i + 1}" for i in range(len(evidence_params))]
    evidence = tuple(
        EvidenceVariable(ids[i], alpha, beta)
        for i, (alpha, beta) in enumerate(evidence_params)
    )
    return DiagnosisModel(p_h, evidence, utilities, costs)


def m1(**kwargs):
    """One strong evidence item (0.8, 0.2), even prior, symmetric utilities."""
    return make_model([(0.8, 0.2)], **kwargs)


def random_model(rng: random.Random, m: int, *, p_h=None, costs=None) -> DiagnosisModel:
    evidence = tuple(
        EvidenceVariable(f"e{i:02d}", rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        for i in range(m)
    )
    if p_h is None:
        p_h = rng.uniform(0.1, 0.9)
    u_h_nd = rng.uniform(-5.0, 5.0)
    u_nh_d = rng.uniform(-5.0, 5.0)
    utilities = UtilityTable(
        u_h_d=u_h_nd + rng.uniform(0.1, 10.0),
        u_h_nd=u_h_nd,
        u_nh_d=u_nh_d,
        u_nh_nd=u_nh_d + rng.uniform(0.1, 10.0),
    )
    if costs is None:
        costs = CostModel(
            k1=rng.uniform(0.0, 2.0),
            k2=rng.uniform(0.0, 2.0),
            k3=rng.uniform(0.0, 2.0),
            k4=rng.uniform(0.0, 2.0),
            k5=rng.uniform(0.0, 2.0),
            k6=rng.uniform(0.0, 2.0),
            r=rng.uniform(0.2, 5.0),
        )
    return DiagnosisModel(p_h, evidence, utilities, costs)


def design_model(rng: random.Random, m: int, *, alpha, beta, k5: float, k6: float,
                 k34: float = 1e-5) -> DiagnosisModel:
    """A benchmark-style model: its threshold p* lies within 0.02 of the
    prior p(H), so single items move the decision and selection and tree
    growth go deep.  ``alpha`` and ``beta`` are the (low, high) ranges the
    likelihoods are drawn from."""
    p_h = rng.uniform(0.3, 0.7)
    p_star = p_h + rng.uniform(-0.02, 0.02)
    scale = rng.uniform(1.0, 10.0)
    u_h_nd = rng.uniform(-5.0, 5.0)
    u_nh_d = rng.uniform(-5.0, 5.0)
    evidence = tuple(
        EvidenceVariable(f"e{i:03d}", rng.uniform(*alpha), rng.uniform(*beta)) for i in range(m)
    )
    utilities = UtilityTable(
        u_h_nd + scale * (1.0 - p_star), u_h_nd, u_nh_d, u_nh_d + scale * p_star
    )
    costs = CostModel(
        k1=rng.uniform(0.0, 0.01),
        k2=rng.uniform(0.0, 0.01),
        k3=rng.uniform(0.0, k34),
        k4=rng.uniform(0.0, k34),
        k5=k5,
        k6=k6,
        r=rng.uniform(0.5, 2.0),
    )
    return DiagnosisModel(p_h, evidence, utilities, costs)


class ItemFormulas(NamedTuple):
    w_pos: float
    w_neg: float
    mean_h: float
    var_h: float
    mean_nh: float
    var_nh: float


def item_formulas(alpha: float, beta: float) -> ItemFormulas:
    """One item's weights and weight moments, written out here so that the
    oracle shares no code with what it checks.

    w_pos = ln(alpha/beta) and w_neg = ln((1-alpha)/(1-beta)).  Given H the
    weight is w_pos with probability alpha: E[w|H] = alpha*w_pos +
    (1-alpha)*w_neg and Var[w|H] = alpha*(1-alpha)*(w_pos - w_neg)^2, with
    w_pos - w_neg taken as the one log ln(alpha*(1-beta) / (beta*(1-alpha)));
    the same with beta given not-H.  Each is the IEEE expression the package
    uses, so results compare exactly.
    """
    w_pos, w_neg = math.log(alpha / beta), math.log((1.0 - alpha) / (1.0 - beta))
    spread = math.log(alpha * (1.0 - beta) / (beta * (1.0 - alpha)))
    return ItemFormulas(
        w_pos,
        w_neg,
        alpha * w_pos + (1.0 - alpha) * w_neg,
        alpha * (1.0 - alpha) * spread * spread,
        beta * w_pos + (1.0 - beta) * w_neg,
        beta * (1.0 - beta) * spread * spread,
    )


def brute_force_evaluation(model: DiagnosisModel, subset):
    """Independent oracle: per-assignment Python loops, no shared kernel.

    Enumerates assignments in the package's index convention but recomputes
    every weight sum and probability product from scratch.
    """
    lookup = model.evidence_map()
    items = [lookup[evidence_id] for evidence_id in subset]
    thr = threshold(model.utilities, model.p_h)
    p_act_h = 0.0
    p_act_nh = 0.0
    for index in range(1 << len(items)):
        weight = 0.0
        p_h = 1.0
        p_nh = 1.0
        for i, item in enumerate(items):
            pair = item_formulas(item.alpha, item.beta)
            if (index >> i) & 1:
                weight += pair.w_pos
                p_h *= item.alpha
                p_nh *= item.beta
            else:
                weight += pair.w_neg
                p_h *= 1.0 - item.alpha
                p_nh *= 1.0 - item.beta
        if weight >= thr.w_star:
            p_act_h += p_h
            p_act_nh += p_nh
    u = model.utilities
    ev = (p_act_h * u.u_h_d + (1.0 - p_act_h) * u.u_h_nd) * model.p_h + (
        p_act_nh * u.u_nh_d + (1.0 - p_act_nh) * u.u_nh_nd
    ) * (1.0 - model.p_h)
    return ev, p_act_h, p_act_nh


def concatenated_arrays(model: DiagnosisModel, subset):
    """The 2^n weight-sum and probability arrays of a subset, from scratch.

    The plain loop the exact kernel must reproduce bit for bit: each item
    doubles the arrays, its false half first.
    """
    lookup = model.evidence_map()
    weights, p_given_h, p_given_nh = np.zeros(1), np.ones(1), np.ones(1)
    for evidence_id in subset:
        item = lookup[evidence_id]
        pair = item_formulas(item.alpha, item.beta)
        weights = np.concatenate([weights + pair.w_neg, weights + pair.w_pos])
        p_given_h = np.concatenate([p_given_h * (1.0 - item.alpha), p_given_h * item.alpha])
        p_given_nh = np.concatenate([p_given_nh * (1.0 - item.beta), p_given_nh * item.beta])
    return weights, p_given_h, p_given_nh


def from_scratch_evaluation(model: DiagnosisModel, subset):
    """(ev, P(act|H), P(act|not-H)) summed over the subset's full 2^n arrays."""
    weights, p_given_h, p_given_nh = concatenated_arrays(model, subset)
    acts = weights >= threshold(model.utilities, model.p_h).w_star
    p_act_h = float(p_given_h[acts].sum())
    p_act_nh = float(p_given_nh[acts].sum())
    return compose_ev(model, p_act_h, p_act_nh), p_act_h, p_act_nh


def from_scratch_gaussian(model: DiagnosisModel, subset):
    """(ev, P(act|H), P(act|not-H)) of the normal approximation, from scratch:
    each item's moments summed left to right over the subset, then the two
    tails."""
    lookup = model.evidence_map()
    mean_h = var_h = mean_nh = var_nh = 0.0
    for evidence_id in subset:
        item = lookup[evidence_id]
        f = item_formulas(item.alpha, item.beta)
        mean_h, var_h = mean_h + f.mean_h, var_h + f.var_h
        mean_nh, var_nh = mean_nh + f.mean_nh, var_nh + f.var_nh
    w_star = threshold(model.utilities, model.p_h).w_star
    p_act_h = gaussian_tail(mean_h, var_h, w_star)
    p_act_nh = gaussian_tail(mean_nh, var_nh, w_star)
    return compose_ev(model, p_act_h, p_act_nh), p_act_h, p_act_nh


def tie_models() -> list[DiagnosisModel]:
    """Models with weight-sum atoms within 1e-12 of w_star, where the rounding
    of each sum decides the action.

    (0.7, 0.3) items at an even prior and even n: w_star = 0, and the
    assignments with as many true as false items sum to about 0.  (0.8, 0.2)
    items at prior 0.8 and odd n: w_star = -ln 4, one more false item than
    true ones.  Comparing ``w >= w_star - w_neg`` in place of
    ``w + w_neg >= w_star`` changes the result on the second family.
    """
    return [make_model([(0.7, 0.3)] * n) for n in (2, 4, 6, 8, 10)] + [
        make_model([(0.8, 0.2)] * n, p_h=0.8) for n in (3, 5, 7, 9)
    ]


def identity_models(seed: int) -> list[DiagnosisModel]:
    """Random models, half with free compilation so that selection goes deep,
    and the :func:`tie_models`."""
    rng = random.Random(seed)
    return [
        random_model(rng, rng.randint(0, 10), costs=ZERO_COSTS if i % 2 else None)
        for i in range(24)
    ] + tie_models()


def complete_tree(model: DiagnosisModel, subset) -> SituationActionTree:
    """Full depth-n tree over a subset, leaf actions by the threshold rule."""
    thr = threshold(model.utilities, model.p_h)
    lookup = model.evidence_map()

    def build(i: int, w_path: float):
        if i == len(subset):
            return Leaf(optimal_action(w_path, thr))
        item = lookup[subset[i]]
        pair = item_formulas(item.alpha, item.beta)
        return Internal(
            subset[i],
            build(i + 1, w_path + pair.w_pos),
            build(i + 1, w_path + pair.w_neg),
        )

    return SituationActionTree(build(0, 0.0), model_digest(model))


def optimal_tree(model: DiagnosisModel) -> tuple[SituationActionTree, float]:
    """The tree of greatest net inferential value, and the NIV the search summed for it.

    A tree's NIV, r * EV - c * nodes with c = k5 * k6, is a sum over its
    nodes, and a subtree's share depends only on the partial assignment of
    its path.  So the best tree is a dynamic program over the 3^m partial
    assignments s (Garey 1972):

        V(s) = max(r * leaf(s) - c, max over unused e of V(s, e true) + V(s, e false) - c)

    where leaf(s) is the larger of the two actions' shares of the expected
    value, acting on a tie, written out here rather than read from the
    threshold rule.  The returned NIV adds in the search's order; value the
    tree with ``tree_niv`` to compare it with another tree.
    """
    u, p_h = model.utilities, model.p_h
    c, r = model.costs.k5 * model.costs.k6, model.costs.r
    memo: dict[frozenset, tuple[float, object]] = {}

    def best(path: frozenset, p_path_h: float, p_path_nh: float) -> tuple[float, object]:
        if path not in memo:
            act = p_h * p_path_h * u.u_h_d + (1.0 - p_h) * p_path_nh * u.u_nh_d
            wait = p_h * p_path_h * u.u_h_nd + (1.0 - p_h) * p_path_nh * u.u_nh_nd
            found = (r * max(act, wait) - c, Leaf(Action.ACT if act >= wait else Action.NO_ACT))
            used = {evidence_id for evidence_id, _ in path}
            for item in model.evidence:
                if item.id in used:
                    continue
                value_true, if_true = best(
                    path | {(item.id, True)}, p_path_h * item.alpha, p_path_nh * item.beta
                )
                value_false, if_false = best(
                    path | {(item.id, False)},
                    p_path_h * (1.0 - item.alpha),
                    p_path_nh * (1.0 - item.beta),
                )
                if value_true + value_false - c > found[0]:
                    found = (value_true + value_false - c, Internal(item.id, if_true, if_false))
            memo[path] = found
        return memo[path]

    value, root = best(frozenset(), 1.0, 1.0)
    return SituationActionTree(root, model_digest(model)), value


def example_action_tree() -> Internal:
    """The worked three-test tree: act if e7, else if e3 and e6."""
    return Internal(
        "e7",
        Leaf(Action.ACT),
        Internal(
            "e3",
            Internal("e6", Leaf(Action.ACT), Leaf(Action.NO_ACT)),
            Leaf(Action.NO_ACT),
        ),
    )
