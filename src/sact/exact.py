"""Ground-truth policy evaluation by exhaustive enumeration of evidence assignments.

Everything here enumerates all 2^n truth assignments of a chosen evidence
subset, so results are exact up to floating-point rounding.  The Gaussian
approximation and both compilers are tested against this module.

Index convention (shared with the table compiler): assignments are numbered
0 .. 2^n - 1 and bit i of the index, least significant first, is the truth
value of ``subset[i]``.

One kernel does all the enumeration.  :func:`extend` appends one item to a
prefix's arrays, and :func:`act_probabilities` values the prefix plus one
more item without building that item's arrays.  A subset is valued from the
prefix without its last item, greedy selection keeps the prefix it has
chosen, and exhaustive search walks subsets depth first, each child
extending its parent's prefix.  Every weight sum is still accumulated left
to right over the subset, so all results are bit-identical to enumerating
each subset from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapExceededError, DomainError, UnknownEvidenceError
from .model import DiagnosisModel, EvidenceVariable, Side, threshold, weight_pair
from .niv import NivReport, TablePolicy, niv

DEFAULT_ENUMERATION_CAP = 25
DEFAULT_SEARCH_CAP = 15


@dataclass(frozen=True)
class ExactEvaluation:
    """Expected value and action probabilities of a committed policy.

    ``ev`` recomposes from the other fields as
    ``(p_act_given_h*u_h_d + (1-p_act_given_h)*u_h_nd) * p_h
    + (p_act_given_nh*u_nh_d + (1-p_act_given_nh)*u_nh_nd) * (1-p_h)``.
    """

    ev: float
    p_act_given_h: float
    p_act_given_nh: float
    enumerated_count: int


def resolve_subset(model: DiagnosisModel, subset: Sequence[str]) -> list[EvidenceVariable]:
    """Map subset ids to evidence variables, rejecting unknowns and duplicates."""
    lookup = model.evidence_map()
    seen: set[str] = set()
    out = []
    for evidence_id in subset:
        if evidence_id not in lookup:
            raise UnknownEvidenceError(f"unknown evidence id {evidence_id!r}")
        if evidence_id in seen:
            raise UnknownEvidenceError(f"duplicate evidence id {evidence_id!r} in subset")
        seen.add(evidence_id)
        out.append(lookup[evidence_id])
    return out


def _check_enumeration_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceededError(
            f"subset of {n} items exceeds the enumeration cap of {cap} "
            f"(would require 2^{n} assignments)"
        )


# A prefix's arrays, indexed by the assignment convention above: the weight
# sums, then P(assignment | H) and P(assignment | not-H).  A prefix that
# holds the weight sums alone extends just those.
Prefix = list[np.ndarray]


def empty_prefix() -> Prefix:
    """Arrays of the empty subset: one assignment, weight 0, probability 1."""
    return [np.zeros(1), np.ones(1), np.ones(1)]


def extend(prefix: Prefix, item: EvidenceVariable) -> None:
    """Append one trailing item to a prefix's arrays, in place.

    The assignments with the item false fill the first half and those with
    it true the second.  Each array is replaced in turn, so unless the caller
    holds another reference, an old array is freed before the next new one
    is built.
    """
    pair = weight_pair(item.alpha, item.beta)
    prefix[0] = np.concatenate([prefix[0] + pair.w_neg, prefix[0] + pair.w_pos])
    if len(prefix) > 1:
        prefix[1] = np.concatenate([prefix[1] * (1.0 - item.alpha), prefix[1] * item.alpha])
        prefix[2] = np.concatenate([prefix[2] * (1.0 - item.beta), prefix[2] * item.beta])


def act_probabilities(
    prefix: Prefix, item: EvidenceVariable, w_star: float
) -> tuple[float, float]:
    """P(act | H) and P(act | not-H) of the prefix plus one trailing item.

    The probabilities of the acting assignments are gathered into one array
    in index order, which holds the same values in the same order as the
    extended probability array masked by ``weights >= w_star``.  numpy's
    pairwise sum therefore rounds exactly as it would on the extended
    arrays, which are never built.  The decision compares
    ``weights + w >= w_star``, the extended weight itself: at a sum that sits
    on the threshold, ``weights >= w_star - w`` can round the other way.
    """
    weights, p_given_h, p_given_nh = prefix
    pair = weight_pair(item.alpha, item.beta)
    low = weights + pair.w_neg >= w_star
    high = weights + pair.w_pos >= w_star
    split = int(np.count_nonzero(low))
    size = split + int(np.count_nonzero(high))

    def acting_mass(p: np.ndarray, q: float) -> float:
        acting = np.empty(size)
        np.multiply(p[low], 1.0 - q, out=acting[:split])
        np.multiply(p[high], q, out=acting[split:])
        return float(acting.sum())

    return acting_mass(p_given_h, item.alpha), acting_mass(p_given_nh, item.beta)


def assignment_arrays(
    model: DiagnosisModel, subset: Sequence[str], *, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-assignment weight sums and probabilities for a subset.

    Returns three arrays of length 2^n indexed by the assignment convention
    above: the summed evidence weight, the assignment probability given H,
    and the assignment probability given not-H.

    Entries are built by extending the arrays one evidence item at a time, so
    every entry is bit-identical to a sequential left-to-right accumulation
    over the subset; probabilities are running products in linear space.
    """
    weights, p_given_h, p_given_nh = _enumerate(model, subset, cap, empty_prefix())
    return weights, p_given_h, p_given_nh


def weight_sums(
    model: DiagnosisModel, subset: Sequence[str], *, cap: int = DEFAULT_ENUMERATION_CAP
) -> np.ndarray:
    """The weight-sum array of :func:`assignment_arrays`, without the probabilities."""
    return _enumerate(model, subset, cap, [np.zeros(1)])[0]


def _enumerate(model: DiagnosisModel, subset: Sequence[str], cap: int, prefix: Prefix) -> Prefix:
    items = resolve_subset(model, subset)
    _check_enumeration_cap(len(items), cap)
    for item in items:
        extend(prefix, item)
    return prefix


def compose_ev(model: DiagnosisModel, p_act_given_h: float, p_act_given_nh: float) -> float:
    """Expected utility of acting with the given per-hypothesis probabilities."""
    u = model.utilities
    return (p_act_given_h * u.u_h_d + (1.0 - p_act_given_h) * u.u_h_nd) * model.p_h + (
        p_act_given_nh * u.u_nh_d + (1.0 - p_act_given_nh) * u.u_nh_nd
    ) * (1.0 - model.p_h)


def exact_ev_subset(
    model: DiagnosisModel, subset: Sequence[str], *, cap: int = DEFAULT_ENUMERATION_CAP
) -> ExactEvaluation:
    """Exact expected value of acting on a compiled evidence subset.

    Enumerates every assignment of the subset, decides each by the threshold
    rule, and accumulates the probability of acting under each hypothesis.
    Only the arrays of the subset without its last item are built.
    """
    items = resolve_subset(model, subset)
    _check_enumeration_cap(len(items), cap)
    prefix = empty_prefix()
    for item in items[:-1]:
        extend(prefix, item)
    w_star = threshold(model.utilities, model.p_h).w_star
    if items:
        p_act_h, p_act_nh = act_probabilities(prefix, items[-1], w_star)
    else:
        # The lone empty assignment sums to 0 with probability 1.
        p_act_h = p_act_nh = float(0.0 >= w_star)
    return ExactEvaluation(
        ev=compose_ev(model, p_act_h, p_act_nh),
        p_act_given_h=p_act_h,
        p_act_given_nh=p_act_nh,
        enumerated_count=1 << len(items),
    )


def exact_ev_compute(model: DiagnosisModel, *, cap: int = DEFAULT_ENUMERATION_CAP) -> ExactEvaluation:
    """Exact expected value of the run-time compute policy (all evidence)."""
    return exact_ev_subset(model, [item.id for item in model.evidence], cap=cap)


def exact_tail(
    model: DiagnosisModel,
    subset: Sequence[str],
    w_star: float,
    given: Side,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Exact probability that the subset's weight sum reaches ``w_star``.

    The boundary is inclusive, matching the action convention.
    """
    if given not in ("H", "notH"):
        raise DomainError(f"given must be 'H' or 'notH', not {given!r}")
    weights, p_given_h, p_given_nh = assignment_arrays(model, subset, cap=cap)
    probabilities = p_given_h if given == "H" else p_given_nh
    return float(probabilities[weights >= w_star].sum())


def exhaustive_subset_search(
    model: DiagnosisModel,
    *,
    cap: int = DEFAULT_SEARCH_CAP,
    eval_cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[tuple[str, ...], NivReport]:
    """Best evidence subset to compile, by net inferential value, over all 2^m subsets.

    Ties are broken toward the smaller subset, then lexicographically by the
    id tuple.  Candidate subsets keep the model's evidence order.

    Subsets are walked depth first: each child is its parent plus one later
    item, valued on the parent's arrays.  The winner is the maximum of a
    total order on (NIV, then smaller (size, ids)), so it does not depend on
    the walk order.
    """
    ids = [item.id for item in model.evidence]
    if len(ids) > cap:
        raise CapExceededError(
            f"model has {len(ids)} evidence items, above the exhaustive search cap of {cap}"
        )
    # Rejects a model that repeats an id, as valuing a subset of it would.
    items = resolve_subset(model, ids)
    best: tuple[tuple[str, ...], NivReport] | None = None

    def consider(subset: tuple[str, ...], ev: float) -> None:
        nonlocal best
        report = niv(model, TablePolicy(subset), ev, method="exact")
        if (
            best is None
            or report.niv > best[1].niv
            or (report.niv == best[1].niv and (len(subset), subset) < (len(best[0]), best[0]))
        ):
            best = (subset, report)

    def visit(parent: tuple[str, ...], prefix: Prefix, start: int) -> None:
        for j in range(start, len(items)):
            subset = parent + (items[j].id,)
            _check_enumeration_cap(len(subset), eval_cap)
            consider(subset, compose_ev(model, *act_probabilities(prefix, items[j], w_star)))
            if j + 1 < len(items):
                child = list(prefix)
                extend(child, items[j])
                visit(subset, child, j + 1)

    consider((), exact_ev_subset(model, (), cap=eval_cap).ev)
    w_star = threshold(model.utilities, model.p_h).w_star
    visit((), empty_prefix(), 0)
    assert best is not None
    return best
