"""Weight-frequency profiles under the symmetric-evidence assumption.

Instead of a fully specified model, a domain can be summarized by a frequency
distribution over evidence weights.  Imposing the symmetry
``p(E|H) = 1 - p(E|not-H)`` pins each item's probabilities from its weight
alone (``alpha`` is the logistic of the weight), and makes stronger evidence
also more likely to be observed, so subset selection reduces to ranking by
weight.  This module realizes such profiles into evidence lists and produces
fractional-loss-versus-n curves as tabular data.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Literal, Sequence

from .errors import CapExceededError, DomainError, FormatError
from .exact import DEFAULT_ENUMERATION_CAP, compose_ev
from .gaussian import empty_prefix, extend
from .model import (
    CostModel,
    DiagnosisModel,
    EvidenceVariable,
    UtilityTable,
    finite_number,
    utf8_string,
)
from .niv import Method
from .table import _evaluator

Normalization = Literal["relative-to-compute", "range-normalized"]

_ZERO_COSTS = CostModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)

# The most items a profile may hold.  A Gaussian loss curve over this many
# takes about two seconds on a 2-vCPU VM; the presets hold 60.
PROFILE_CAP = 1 << 16


def _refuse_above_cap(name: str, size: int) -> None:
    if size > PROFILE_CAP:
        raise CapExceededError(
            f"profile {name!r} has {size} items, above the profile cap of {PROFILE_CAP}"
        )


def _decay_weights(a: float, b: float, w_max: float, m: int) -> list[float]:
    if m < 1:
        raise DomainError("linear-decay profile needs count >= 1")
    if not (w_max > 0.0) or a < 0.0 or b < 0.0:
        raise DomainError("linear-decay profile needs w_max > 0, intercept >= 0, slope >= 0")
    support = min(w_max, a / b) if b > 0.0 else w_max
    total = a * support - 0.5 * b * support * support
    if not (total > 0.0):
        raise DomainError("profile density integrates to zero on (0, w_max]")
    weights = []
    for i in range(1, m + 1):
        q = (i - 0.5) / m
        if b == 0.0:
            weights.append(q * support)
        else:
            # Solve (a*w - b*w^2/2) / total = q for w on (0, support].
            discriminant = max(a * a - 2.0 * b * q * total, 0.0)
            weights.append((a - math.sqrt(discriminant)) / b)
    return weights


@dataclass(frozen=True)
class WeightProfile:
    """A named frequency distribution over strictly positive evidence weights.

    A profile is its list of weights.  ``linear_decay`` samples ``count``
    weights from the density ``max(0, intercept - slope*w)`` on
    ``(0, w_max]`` at the midpoint quantiles of the normalized density
    (deterministic, no RNG); it refuses a count above ``PROFILE_CAP`` before
    it samples.  ``explicit`` lists the weights directly.
    """

    name: str
    weights: tuple[float, ...]

    @classmethod
    def linear_decay(
        cls, name: str, *, intercept: float, slope: float, w_max: float, count: int
    ) -> "WeightProfile":
        _refuse_above_cap(name, count)
        return cls(name, tuple(_decay_weights(intercept, slope, w_max, count)))

    @classmethod
    def explicit(cls, name: str, weights: Sequence[float]) -> "WeightProfile":
        return cls(name, tuple(weights))


# Shipped reconstructions of three uncertainty levels.  All three use the same
# triangular decay shape; only the weight scale differs ("high" uncertainty =
# weights nearest zero).  Scales are chosen so that each profile's fully
# compiled policy saturates decision quality: the loss curves then start from
# a common point and differ in how fast they decay, which keeps the
# high >= moderate >= low loss ordering meaningful at every n.
PRESETS: dict[str, WeightProfile] = {
    "high": WeightProfile.linear_decay(
        "high", intercept=1.0, slope=1.0 / 3.5, w_max=3.5, count=60
    ),
    "moderate": WeightProfile.linear_decay(
        "moderate", intercept=1.0, slope=1.0 / 4.5, w_max=4.5, count=60
    ),
    "low": WeightProfile.linear_decay(
        "low", intercept=1.0, slope=1.0 / 5.0, w_max=5.0, count=60
    ),
}


# The keys of each profile kind's JSON object, besides name and kind.
_PROFILE_KEYS = {"linear-decay": ("intercept", "slope", "w_max", "count"), "explicit": ("weights",)}


def profile_from_dict(data: object) -> WeightProfile:
    """Load a profile from its JSON object form: {name, kind, params...}."""
    if not isinstance(data, dict):
        raise FormatError("profile: expected an object")
    kind = data.get("kind")
    # Compared with ==, not looked up: a JSON kind may be an unhashable list.
    if kind not in ("linear-decay", "explicit"):
        raise FormatError(f"profile.kind must be 'linear-decay' or 'explicit', got {kind!r}")
    expected = {"name", "kind", *_PROFILE_KEYS[kind]}
    if set(data) != expected:
        raise FormatError(f"{kind} profile keys must be exactly {sorted(expected)}")
    name = utf8_string(data["name"], "profile.name")
    if kind == "explicit":
        if not isinstance(data["weights"], list):
            raise FormatError("profile.weights: expected an array")
        weights = [
            finite_number(value, f"profile.weights[{i}]") for i, value in enumerate(data["weights"])
        ]
        return WeightProfile.explicit(name, weights)
    if isinstance(data["count"], bool) or not isinstance(data["count"], int):
        raise FormatError("profile.count: expected an integer")
    numbers = {
        key: finite_number(data[key], f"profile.{key}")
        for key in ("intercept", "slope", "w_max")
    }
    return WeightProfile.linear_decay(name, count=data["count"], **numbers)


def realize_profile(profile: WeightProfile) -> list[EvidenceVariable]:
    """Turn a profile into concrete evidence variables under symmetry.

    Each weight w becomes an item with ``alpha = e^w / (1 + e^w)`` and
    ``beta = 1 - alpha``, so the true-branch weight is w and the
    false-branch weight is -w up to the rounding of alpha: each is within
    ``2^-52 * (1 + e^w)`` of its target.  A tiny weight is realized as 0.0
    (w = 1e-300 is), w = 30 as 30.00102, and above about 36 distinct weights
    become one item (36, 36.5 and 36.7 are all realized as 36.04365); a
    weight whose alpha rounds to 1 is refused.  Ids are sequential in
    sampling order and zero-padded so lexicographic order matches index
    order.  A profile of more than ``PROFILE_CAP`` items is refused before
    any is made.
    """
    weights = profile.weights
    _refuse_above_cap(profile.name, len(weights))
    if not weights:
        raise DomainError("explicit profile has no weights")
    width = len(str(len(weights)))
    out = []
    for i, w in enumerate(weights, start=1):
        if not (w > 0.0) or math.isinf(w):
            raise DomainError(f"profile weight {w!r} must be strictly positive and finite")
        alpha = 1.0 / (1.0 + math.exp(-w))
        beta = 1.0 - alpha
        if not (0.0 < alpha < 1.0) or not (0.0 < beta < 1.0):
            raise DomainError(f"profile weight {w!r} is too large to realize as probabilities")
        out.append(EvidenceVariable(f"e{i:0{width}d}", alpha, beta))
    return out


def topn_subset(evidence: Sequence[EvidenceVariable], n: int) -> list[str]:
    """Ids of the n items with the largest true-branch weights (ties by id)."""
    if not (0 <= n <= len(evidence)):
        raise DomainError(f"n = {n} out of range for {len(evidence)} evidence items")
    # The true branch's weight, w_pos.
    ranked = sorted(evidence, key=lambda item: (-item.record.branches[0][2], item.id))
    return [item.id for item in ranked[:n]]


@dataclass(frozen=True)
class LossRow:
    n: int
    ev_compile: float
    ev_compute: float
    fractional_loss: float


@dataclass(frozen=True)
class LossCurve:
    profile: str
    normalization: Normalization
    method: Method
    rows: tuple[LossRow, ...] = ()


def loss_curve(
    profile: WeightProfile,
    p_h: float,
    utilities: UtilityTable,
    *,
    method: Method = "gaussian",
    normalization: Normalization = "relative-to-compute",
    enum_cap: int = DEFAULT_ENUMERATION_CAP,
) -> LossCurve:
    """Fractional loss of compiling the top-n items, for n = 0 .. m.

    The compute baseline is evaluated with the same method and the same
    item ordering as the n = m row, so the loss at full compilation is
    exactly zero.  ``relative-to-compute`` divides the EV gap by the compute
    EV (which must be positive); ``range-normalized`` divides by the gap at
    n = 0 (which must be positive).
    """
    realized = realize_profile(profile)
    model = DiagnosisModel(p_h, tuple(realized), utilities, _ZERO_COSTS)
    ranking = topn_subset(realized, len(realized))
    if method == "exact" and len(realized) > enum_cap:
        raise CapExceededError(
            f"profile has {len(realized)} items, above the enumeration cap of "
            f"{enum_cap}; use method='gaussian'"
        )
    evaluate, _ = _evaluator(model, method, len(ranking), enum_cap)
    values = [compose_ev(model, *evaluate(ranking, n)) for n in range(len(ranking) + 1)]
    ev_compute = values[-1]
    if normalization == "relative-to-compute":
        if not (ev_compute > 0.0):
            raise DomainError(
                f"relative-to-compute normalization needs ev_compute > 0, got {ev_compute!r}"
            )
        denominator = ev_compute
    elif normalization == "range-normalized":
        denominator = ev_compute - values[0]
        if not (denominator > 0.0):
            raise DomainError(
                "range-normalized normalization needs ev_compute > ev_compile at n = 0, "
                f"got a range of {denominator!r}"
            )
    else:
        raise DomainError(f"unknown normalization {normalization!r}")
    rows = tuple(
        LossRow(n, values[n], ev_compute, (ev_compute - values[n]) / denominator)
        for n in range(len(values))
    )
    return LossCurve(profile=profile.name, normalization=normalization, method=method, rows=rows)


def _format(value: float) -> str:
    return f"{value:.12g}"


def export_analysis(curves: Sequence[LossCurve]) -> str:
    """Deterministic CSV of loss curves: profile,n,ev_compile,ev_compute,fractional_loss."""
    if not curves:
        raise DomainError("no curves to export")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["profile", "n", "ev_compile", "ev_compute", "fractional_loss"])
    for curve in curves:
        for row in curve.rows:
            writer.writerow(
                [curve.profile, row.n, _format(row.ev_compile), _format(row.ev_compute),
                 _format(row.fractional_loss)]
            )
    return buffer.getvalue()


def export_moments(profiles: Sequence[WeightProfile]) -> str:
    """Companion CSV of summed-weight moments over the top-n items.

    Columns: profile,n,mean_h,var_h for n = 0 .. m, suitable for plotting the
    family of weight-sum distributions as compilation deepens.
    """
    if not profiles:
        raise DomainError("no profiles to export")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["profile", "n", "mean_h", "var_h"])
    for profile in profiles:
        realized = {item.id: item for item in realize_profile(profile)}
        ranking = topn_subset(list(realized.values()), len(realized))
        prefix = empty_prefix()
        writer.writerow([profile.name, 0, _format(0.0), _format(0.0)])
        for n, evidence_id in enumerate(ranking, start=1):
            extend(prefix, realized[evidence_id])
            writer.writerow([profile.name, n, _format(prefix[0]), _format(prefix[1])])
    return buffer.getvalue()
