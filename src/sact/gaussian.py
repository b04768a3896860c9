"""Central-limit approximation of the distribution of summed evidence weights.

Each evidence item's weight is a two-point random variable; under conditional
independence the weight sum's mean and variance are the sums of the per-item
moments, and for enough items the sum is approximately normal.  Tail
probabilities against the decision threshold then come from the normal CDF
instead of exhaustive enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError
from .model import DiagnosisModel, EvidenceVariable, Side, item_record
from .exact import resolve_subset

# Below this many summed items the normal approximation is considered poor;
# results carry an advisory flag recommending the exact oracle.
LOW_N_THRESHOLD = 10

_SQRT2 = math.sqrt(2.0)


def low_n(n: int) -> bool:
    """Whether a sum of ``n`` items is too short for the normal approximation."""
    return n < LOW_N_THRESHOLD


@dataclass(frozen=True)
class MomentSummary:
    """Mean and variance of the summed weight under each hypothesis."""

    mean_h: float
    var_h: float
    mean_nh: float
    var_nh: float
    n: int


def evidence_moments(alpha: float, beta: float) -> MomentSummary:
    """Per-item moments of the weight of one evidence variable.

    Given H the weight is w_pos with probability alpha and w_neg otherwise:

        E[w|H]   = alpha*ln(alpha/beta) + (1-alpha)*ln((1-alpha)/(1-beta))
        Var[w|H] = alpha*(1-alpha) * ln^2[ alpha*(1-beta) / (beta*(1-alpha)) ]

    and symmetrically with beta given not-H: the moments of
    :func:`~sact.model.item_record`, which every item holds in its record.
    """
    return MomentSummary(*item_record(alpha, beta).moments, n=1)


# A prefix's running sums of the fields of :class:`MomentSummary`, in order,
# accumulated left to right over its items.
Prefix = list[float]


def empty_prefix() -> Prefix:
    """Moment sums of the empty subset."""
    return [0.0, 0.0, 0.0, 0.0, 0]


def _plus(prefix: Prefix, item: EvidenceVariable) -> Prefix:
    """The prefix's sums with one trailing item's moments added."""
    return [s + x for s, x in zip(prefix, (*item.record.moments, 1))]


def extend(prefix: Prefix, item: EvidenceVariable) -> None:
    """Add one trailing item's moments to a prefix's sums, in place."""
    prefix[:] = _plus(prefix, item)


def act_probabilities(prefix: Prefix, item: EvidenceVariable, w_star: float) -> tuple[float, float]:
    """Gaussian P(act | H) and P(act | not-H) of the prefix plus one trailing item."""
    moments = MomentSummary(*_plus(prefix, item))
    return gaussian_tail(moments, w_star, "H"), gaussian_tail(moments, w_star, "notH")


def sum_moments(model: DiagnosisModel, subset: Sequence[str]) -> MomentSummary:
    """Componentwise sums of per-item moments over a subset."""
    prefix = empty_prefix()
    for item in resolve_subset(model, subset):
        extend(prefix, item)
    return MomentSummary(*prefix)


def normal_cdf(x: float) -> float:
    """Standard normal CDF, computed as erfc(-x/sqrt(2))/2.

    The platform complementary error function is accurate to within a few
    ulp, so the absolute error is far below 1e-7 everywhere and deep tails
    keep full relative precision (no cancellation against 1).
    """
    return 0.5 * math.erfc(-x / _SQRT2)


def gaussian_tail(moments: MomentSummary, w_star: float, given: Side) -> float:
    """Approximate probability that the summed weight reaches ``w_star``.

    Computed as Phi((mean - w_star)/sd), the mirror of 1 - Phi((w_star -
    mean)/sd), so small tails stay precise.  A zero-variance summary is a
    point mass and degenerates to a step that honours the inclusive boundary:
    1 if mean >= w_star else 0.
    """
    if given == "H":
        mean, var = moments.mean_h, moments.var_h
    elif given == "notH":
        mean, var = moments.mean_nh, moments.var_nh
    else:
        raise DomainError(f"given must be 'H' or 'notH', not {given!r}")
    if var < 0.0 or math.isnan(var):
        raise DomainError(f"variance {var!r} must be nonnegative")
    if var == 0.0:
        return 1.0 if mean >= w_star else 0.0
    return normal_cdf((mean - w_star) / math.sqrt(var))
