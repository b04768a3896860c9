"""Exact prefix kernel: enumeration of every truth assignment of an evidence subset.

Results are exact up to floating-point rounding; the Gaussian approximation
and both compilers are tested against them.

Index convention (shared with the table compiler): assignments are numbered
0 .. 2^n - 1 and bit i of the index, least significant first, is the truth
value of ``subset[i]``.

:func:`extend` appends one item to a prefix's arrays, and
:func:`act_probabilities` values the prefix plus one more item without
building that item's arrays.  :mod:`sact.table` values every subset through
this kernel, extending one prefix.  Every weight sum is still accumulated
left to right over the subset, so all results are bit-identical to
enumerating each subset from scratch.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import CapExceededError, UnknownEvidenceError
from .model import DiagnosisModel, EvidenceVariable, weight_pair

DEFAULT_ENUMERATION_CAP = 25


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


def check_enumeration_cap(n: int, cap: int) -> None:
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


def weight_sums(
    model: DiagnosisModel, subset: Sequence[str], *, cap: int = DEFAULT_ENUMERATION_CAP
) -> np.ndarray:
    """Summed evidence weight of every assignment of a subset, in index order."""
    items = resolve_subset(model, subset)
    check_enumeration_cap(len(items), cap)
    prefix = [np.zeros(1)]
    for item in items:
        extend(prefix, item)
    return prefix[0]


def compose_ev(model: DiagnosisModel, p_act_given_h: float, p_act_given_nh: float) -> float:
    """Expected utility of acting with the given per-hypothesis probabilities."""
    u = model.utilities
    return (p_act_given_h * u.u_h_d + (1.0 - p_act_given_h) * u.u_h_nd) * model.p_h + (
        p_act_given_nh * u.u_nh_d + (1.0 - p_act_given_nh) * u.u_nh_nd
    ) * (1.0 - model.p_h)
