"""Binary diagnosis models: weight-of-evidence updating and act/no-act thresholds.

A model consists of a prior p(H), a list of conditionally independent binary
evidence variables with likelihoods p(E|H) and p(E|not-H), a 2x2 utility table
over (hypothesis, action), and cost constants used by the policy analysis.

Belief updating is done in odds form: observing evidence multiplies the prior
odds by the likelihood ratio, or equivalently adds the log-likelihood ratio
("weight of evidence") in log space.  The decision rule reduces to a single
threshold: act if and only if the summed weight reaches ``w_star``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cache, cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import DomainError, FormatError, UnknownEvidenceError


class Action(Enum):
    """The two possible prescriptions for a case."""

    ACT = "D"
    NO_ACT = "notD"

    def __str__(self) -> str:
        return self.value


# An observation assigns a truth value to each evidence id it covers.
Observation = Mapping[str, bool]


@dataclass(frozen=True)
class EvidenceVariable:
    """A binary finding with likelihoods under the hypothesis and its negation.

    ``alpha`` is p(E|H) and ``beta`` is p(E|not-H).  Both must lie strictly
    inside (0, 1) so that both log-likelihood weights are finite.
    """

    id: str
    alpha: float
    beta: float

    @cached_property
    def record(self) -> ItemRecord:
        """The item's :func:`item_record`, computed on first read.

        An item outside (0, 1) still parses, and raises its
        :class:`DomainError` on every read; ``validate_model`` reports it.
        """
        return item_record(self.alpha, self.beta)


class ItemRecord(NamedTuple):
    """Everything a kernel reads of one evidence item.

    ``branches`` holds (P(E | H), P(E | not-H), weight) for the item observed
    true, then for it observed false: a path or an assignment multiplies the
    probabilities and sums the weights.  ``moments`` holds the mean and the
    variance of the item's weight under H, then under not-H.
    """

    branches: tuple[tuple[float, float, float], tuple[float, float, float]]
    moments: tuple[float, float, float, float]


@dataclass(frozen=True)
class UtilityTable:
    """Utilities of the four (hypothesis, action) outcomes.

    Acting must be strictly better than not acting when H holds
    (``u_h_d > u_h_nd``) and strictly worse when it does not
    (``u_nh_nd > u_nh_d``); together these keep the threshold probability
    strictly inside (0, 1).
    """

    u_h_d: float
    u_h_nd: float
    u_nh_d: float
    u_nh_nd: float


@dataclass(frozen=True)
class CostModel:
    """Linear processing/memory cost constants and the lifetime factor.

    k1, k2: run-time processing cost per evidence item when H is true / false.
    k3, k4: lookup processing cost per compiled item when H is true / false.
    k5:     memory cost per stored cell.
    k6:     cost of a tree node relative to an array cell.
    r:      converts one episode's expected value into a lifetime value.
    """

    k1: float
    k2: float
    k3: float
    k4: float
    k5: float
    k6: float
    r: float


@dataclass(frozen=True)
class DiagnosisModel:
    """The single input artifact: prior, evidence list, utilities, costs."""

    p_h: float
    evidence: tuple[EvidenceVariable, ...]
    utilities: UtilityTable
    costs: CostModel

    @cached_property
    def _evidence_by_id(self) -> dict[str, EvidenceVariable]:
        return {item.id: item for item in self.evidence}

    def evidence_map(self) -> Mapping[str, EvidenceVariable]:
        """Read-only id -> item map, built once per model; a repeated id maps
        to its last item."""
        # The proxy is made per call: a cached one would make the model
        # unpicklable.
        return MappingProxyType(self._evidence_by_id)

    @cached_property
    def digest(self) -> bytes:
        """The model's :func:`model_digest`, computed on first read."""
        canonical = json.dumps(model_to_dict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).digest()

    @cached_property
    def valuation_record(self) -> dict[tuple[str, tuple[str, ...]], tuple[float, float]]:
        """(P(act | H), P(act | not-H)) of the subsets greedy selection
        accepted on this model, keyed by (method, subset).

        :func:`sact.table.greedy_select` writes it and the ``*_ev_subset``
        valuations read it, so the subset selection returns is not valued a
        second time.  A method's accepted steps extend one fixed sequence
        whatever the caps and lookahead, so the record holds at most m
        entries per method.
        """
        return {}


@dataclass(frozen=True)
class Threshold:
    """The act/don't-act boundary.

    ``p_star`` is the posterior probability of H at which acting and not
    acting have equal expected utility; ``w_star`` is the same boundary
    expressed as a required sum of evidence weights:
    ``w_star = ln(p_star/(1-p_star)) - ln(p_h/(1-p_h))``.
    """

    p_star: float
    w_star: float


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by :func:`validate_model`."""

    code: str
    field: str
    message: str

    def to_dict(self) -> dict[str, str]:
        return fields_dict(self)


# The open-interval rule's message, shared by p_h, alpha and beta.
_OUTSIDE_UNIT_INTERVAL = "{field} = {value!r} is outside the open interval (0, 1)"


def validate_model(model: DiagnosisModel) -> list[Violation]:
    """Check every model invariant and report violations as data.

    Returns an empty list for a valid model.  Violations carry a
    machine-readable ``code`` and the offending ``field``.
    """
    out: list[Violation] = []

    def report(holds, code: str, field: str, message: str, value=None, key=None):
        """Record a violation of rule ``code`` unless ``holds``, and return ``holds``.

        Only a violation is formatted: ``key`` into ``field``, then ``field``
        and ``value`` into ``message``.  NaN fails every comparison, so a NaN
        is reported like any other out-of-range value.
        """
        if not holds:
            field = field.format(key)
            out.append(Violation(code, field, message.format(field=field, value=value)))
        return holds

    prior = report(0.0 < model.p_h < 1.0, "prior_out_of_range", "p_h", _OUTSIDE_UNIT_INTERVAL,
                   model.p_h)
    seen: set[str] = set()
    for i, item in enumerate(model.evidence):
        # An empty id, or None from a library call, never enters the duplicate check.
        if report(item.id, "empty_evidence_id", "evidence[{}].id", "evidence id must be nonempty",
                  key=i):
            report(item.id not in seen, "duplicate_evidence_id", "evidence[{}].id",
                   "evidence id {value!r} appears more than once", item.id, i)
            seen.add(item.id)
        report(0.0 < item.alpha < 1.0, "alpha_out_of_range", "evidence[{}].alpha",
               _OUTSIDE_UNIT_INTERVAL, item.alpha, i)
        report(0.0 < item.beta < 1.0, "beta_out_of_range", "evidence[{}].beta",
               _OUTSIDE_UNIT_INTERVAL, item.beta, i)

    u = model.utilities
    acts = report(u.u_h_d > u.u_h_nd, "degenerate_utility_ordering", "utilities.u_h_d",
                  "acting must be strictly better than not acting when H is true")
    waits = report(u.u_nh_nd > u.u_nh_d, "degenerate_utility_ordering", "utilities.u_nh_nd",
                   "not acting must be strictly better than acting when H is false")
    # The threshold is solved only when its inputs passed the checks above,
    # so each fault is reported once.
    if prior and acts and waits:
        try:
            threshold(u, model.p_h)
        except DomainError as exc:
            out.append(Violation("degenerate_threshold", "utilities", str(exc)))

    c = model.costs
    for name in ("k1", "k2", "k3", "k4", "k5", "k6"):
        value = getattr(c, name)
        report(value >= 0.0, "negative_cost", "costs.{}", "{field} = {value!r} must be >= 0",
               value, name)
    report(c.r > 0.0, "nonpositive_rate", "costs.r", "{field} = {value!r} must be > 0", c.r)
    return out


def item_record(alpha: float, beta: float) -> ItemRecord:
    """The branches and weight moments of one evidence variable.

    The weights are w_pos = ln(alpha/beta) and w_neg = ln((1-alpha)/(1-beta)).
    Given H the weight is w_pos with probability alpha and w_neg otherwise:

        E[w|H]   = alpha*w_pos + (1-alpha)*w_neg
        Var[w|H] = alpha*(1-alpha) * ln^2[ alpha*(1-beta) / (beta*(1-alpha)) ]

    and symmetrically with beta given not-H.  Raises :class:`DomainError`
    for alpha or beta outside (0, 1).  When alpha or beta sits so near 0 or
    1 that the spread's ratio rounds to 0 or divides by 0, the variances are
    NaN, which the Gaussian tail refuses.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha = {alpha!r} must lie strictly inside (0, 1)")
    if not (0.0 < beta < 1.0):
        raise DomainError(f"beta = {beta!r} must lie strictly inside (0, 1)")
    not_alpha, not_beta = 1.0 - alpha, 1.0 - beta
    w_pos, w_neg = math.log(alpha / beta), math.log(not_alpha / not_beta)
    try:
        spread = math.log(alpha * not_beta / (beta * not_alpha))
    except (ValueError, ZeroDivisionError):
        spread = math.nan
    return ItemRecord(
        ((alpha, beta, w_pos), (not_alpha, not_beta, w_neg)),
        (
            alpha * w_pos + not_alpha * w_neg,
            alpha * not_alpha * spread * spread,
            beta * w_pos + not_beta * w_neg,
            beta * not_beta * spread * spread,
        ),
    )


def threshold(utilities: UtilityTable, p_h: float) -> Threshold:
    """Solve the indifference equation for the decision threshold.

    p_star solves
        p*·U(H,D) + (1-p*)·U(¬H,D) = p*·U(H,¬D) + (1-p*)·U(¬H,¬D)
    giving ``p_star = (u_nh_nd - u_nh_d) / ((u_h_d - u_h_nd) + (u_nh_nd - u_nh_d))``.
    ``w_star`` subtracts the prior log-odds so the rule can be applied to a
    plain sum of evidence weights.
    """
    gain_act = utilities.u_h_d - utilities.u_h_nd
    gain_wait = utilities.u_nh_nd - utilities.u_nh_d
    if not (gain_act > 0.0) or not (gain_wait > 0.0):
        raise DomainError(
            "degenerate utilities: need u_h_d > u_h_nd and u_nh_nd > u_nh_d "
            f"(got differences {gain_act!r} and {gain_wait!r})"
        )
    if not (0.0 < p_h < 1.0):
        raise DomainError(f"p_h = {p_h!r} must lie strictly inside (0, 1)")
    p_star = gain_wait / (gain_act + gain_wait)
    if not (0.0 < p_star < 1.0):
        # The differences are infinite or their sum overflows.  Inside (0, 1)
        # every double has a finite log-odds, so w_star is finite too.
        raise DomainError(
            f"utility differences {gain_act!r} and {gain_wait!r} give a threshold "
            f"probability p_star = {p_star!r} outside (0, 1)"
        )
    w_star = math.log(p_star / (1.0 - p_star)) - math.log(p_h / (1.0 - p_h))
    return Threshold(p_star, w_star)


def posterior_odds(model: DiagnosisModel, observation: Observation) -> float:
    """Posterior odds of H after multiplying in each observed likelihood ratio.

    The observation may cover any subset of the model's evidence.  Factors are
    multiplied in the observation's iteration order.  An observed item
    outside (0, 1) raises its :class:`DomainError`.
    """
    lookup = model.evidence_map()
    odds = model.p_h / (1.0 - model.p_h)
    for evidence_id, value in observation.items():
        try:
            item = lookup[evidence_id]
        except KeyError:
            raise UnknownEvidenceError(f"unknown evidence id {evidence_id!r}") from None
        given_h, given_nh, _ = item.record.branches[0 if value else 1]
        odds *= given_h / given_nh
    return odds


def optimal_action(weight_sum: float, thr: Threshold) -> Action:
    """Act if and only if the summed weight reaches the threshold.

    The boundary is inclusive (``>=``), applied as an exact floating
    comparison with no epsilon; every consumer in this package uses the same
    convention.
    """
    return Action.ACT if weight_sum >= thr.w_star else Action.NO_ACT


# ---------------------------------------------------------------------------
# Canonical JSON form.  This object layout is the file contract for the CLI.
# ---------------------------------------------------------------------------


@cache
def _field_names(cls: type) -> dict[str, None]:
    """A dataclass's field names, computed once per class.

    They are the keys of a dict, which keep declaration order and compare as
    a set.
    """
    return dict.fromkeys(field.name for field in fields(cls))


def fields_dict(obj: object) -> dict:
    """A dataclass instance's fields as a dict, one level deep.

    Not ``dataclasses.asdict``, which recurses and deep-copies every value:
    on a model of 20 items it takes about 7 times as long, and
    :func:`model_digest` runs on every model a command compiles, grows a
    tree for or looks up against.
    """
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


def _require_keys(data: Mapping, cls: type, where: str) -> None:
    """``data`` must hold exactly the fields of dataclass ``cls``."""
    if not isinstance(data, Mapping):
        raise FormatError(f"{where}: expected an object, got {type(data).__name__}")
    expected = _field_names(cls).keys()
    if data.keys() != expected:
        unknown = data.keys() - expected
        if unknown:
            raise FormatError(f"{where}: unknown keys {sorted(unknown)}")
        raise FormatError(f"{where}: missing keys {sorted(expected - data.keys())}")


def finite_number(value: object, where: str) -> float:
    """A JSON number as a finite float; booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where}: expected a number, got {type(value).__name__}")
    # json.loads accepts NaN and +-Infinity, and integers of any size.
    try:
        number = float(value)
    except OverflowError:
        raise FormatError(f"{where}: integer too large for a float") from None
    if not math.isfinite(number):
        raise FormatError(f"{where}: expected a finite number, got {number!r}")
    return number


def utf8_string(value: object, where: str) -> str:
    """A string field that can be written back out as UTF-8.

    ``json.loads`` accepts lone surrogates such as ``"\\ud800"``, which no
    output file or stdout can encode.
    """
    if not isinstance(value, str):
        raise FormatError(f"{where}: expected a string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise FormatError(f"{where}: cannot be written as UTF-8: {exc}") from None
    return value


def _numbers_from_dict(cls: type, data: Mapping, where: str):
    """An all-number dataclass ``cls`` from its JSON object form."""
    _require_keys(data, cls, where)
    return cls(*(finite_number(data[name], f"{where}.{name}") for name in _field_names(cls)))


def model_from_dict(data: Mapping) -> DiagnosisModel:
    """Build a model from its canonical JSON object form.

    Structural problems (wrong types, unknown or missing keys) raise
    :class:`FormatError`; invariant checks are left to :func:`validate_model`.
    """
    _require_keys(data, DiagnosisModel, "model")
    raw_evidence = data["evidence"]
    if not isinstance(raw_evidence, list):
        raise FormatError("model.evidence: expected an array")
    evidence = []
    for i, entry in enumerate(raw_evidence):
        _require_keys(entry, EvidenceVariable, f"evidence[{i}]")
        evidence.append(
            EvidenceVariable(
                utf8_string(entry["id"], f"evidence[{i}].id"),
                finite_number(entry["alpha"], f"evidence[{i}].alpha"),
                finite_number(entry["beta"], f"evidence[{i}].beta"),
            )
        )
    utilities = _numbers_from_dict(UtilityTable, data["utilities"], "utilities")
    costs = _numbers_from_dict(CostModel, data["costs"], "costs")
    return DiagnosisModel(finite_number(data["p_h"], "p_h"), tuple(evidence), utilities, costs)


def model_to_dict(model: DiagnosisModel) -> dict:
    return {
        **fields_dict(model),
        "evidence": [fields_dict(item) for item in model.evidence],
        "utilities": fields_dict(model.utilities),
        "costs": fields_dict(model.costs),
    }


def parse_json(text: str, what: str) -> object:
    """Parse a JSON document, raising :class:`FormatError` naming ``what``.

    ``json.loads`` also raises a plain ``ValueError`` for an integer literal
    over the interpreter's digit limit and ``RecursionError`` for deep nesting.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{what} is not valid JSON: {exc}") from None


def model_from_json(text: str) -> DiagnosisModel:
    return model_from_dict(parse_json(text, "model file"))


def model_to_json(model: DiagnosisModel) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n"


def model_digest(model: DiagnosisModel) -> bytes:
    """32-byte content hash of the model's canonical JSON form.

    Compiled artifacts embed this digest so stale tables and trees can be
    detected at load time.  The model is frozen, so the hash is computed on
    the first call and read from the model on every later one.
    """
    return model.digest
