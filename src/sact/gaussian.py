"""Central-limit approximation of the distribution of summed evidence weights.

Each evidence item's weight is a two-point random variable; under conditional
independence the weight sum's mean and variance are the sums of the per-item
moments, and for enough items the sum is approximately normal.  Tail
probabilities against the decision threshold then come from the normal CDF
instead of exhaustive enumeration.

This is the Gaussian prefix kernel.  A prefix is the four running sums of
its items' weight moments, each read from the item's record
(:attr:`~sact.model.EvidenceVariable.record`, derived by
:func:`~sact.model.item_record`).  :func:`child_probabilities` values the
prefix plus each of several items, one :func:`gaussian_tail` per item and
hypothesis.  :mod:`sact.table` values every subset through this kernel.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from .errors import DomainError
from .model import EvidenceVariable

# Below this many summed items the normal approximation is considered poor;
# results carry an advisory flag recommending the exact oracle.
LOW_N_THRESHOLD = 10

_SQRT2 = math.sqrt(2.0)


def low_n(n: int) -> bool:
    """Whether a sum of ``n`` items is too short for the normal approximation."""
    return n < LOW_N_THRESHOLD


# A prefix's running sums of its items' weight moments, in the order of
# ``ItemRecord.moments`` (mean and variance under H, then under not-H),
# accumulated left to right over its items.
Prefix = list[float]


def empty_prefix(size: int = 0) -> Prefix:
    """Moment sums of the empty subset, for a prefix of up to ``size`` items
    (four sums whatever the size)."""
    return [0.0, 0.0, 0.0, 0.0]


def extend(prefix: Prefix, item: EvidenceVariable) -> None:
    """Add one trailing item's moments to a prefix's sums, in place."""
    prefix[:] = [s + x for s, x in zip(prefix, item.record.moments)]


def child_probabilities(
    prefix: Prefix, items: Sequence[EvidenceVariable], w_star: float
) -> Iterator[tuple[float, float]]:
    """Gaussian P(act | H) and P(act | not-H) of the prefix plus each of
    ``items``, in order."""
    for item in items:
        mean_h, var_h, mean_nh, var_nh = (s + x for s, x in zip(prefix, item.record.moments))
        yield gaussian_tail(mean_h, var_h, w_star), gaussian_tail(mean_nh, var_nh, w_star)


def normal_cdf(x: float) -> float:
    """Standard normal CDF, computed as erfc(-x/sqrt(2))/2.

    The platform complementary error function is accurate to within a few
    ulp, so the absolute error is far below 1e-7 everywhere and deep tails
    keep full relative precision (no cancellation against 1).
    """
    return 0.5 * math.erfc(-x / _SQRT2)


def gaussian_tail(mean: float, var: float, w_star: float) -> float:
    """Approximate probability that a summed weight of this mean and
    variance reaches ``w_star``.

    Computed as Phi((mean - w_star)/sd), the mirror of 1 - Phi((w_star -
    mean)/sd), so small tails stay precise.  A zero variance is a point mass
    and degenerates to a step that honours the inclusive boundary: 1 if
    mean >= w_star else 0.
    """
    if var < 0.0 or math.isnan(var):
        raise DomainError(f"variance {var!r} must be nonnegative")
    if var == 0.0:
        return 1.0 if mean >= w_star else 0.0
    return normal_cdf((mean - w_star) / math.sqrt(var))
