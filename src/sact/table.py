"""Subset valuation, subset selection and compiled 2^n action tables.

One evaluator values every subset: :func:`_evaluator` turns a subset into
P(act | H) and P(act | not-H) through the chosen method's prefix kernel
(:mod:`sact.exact` or :mod:`sact.gaussian`), and callers compose the
expected value with :func:`~sact.exact.compose_ev`.  The exact and Gaussian
valuations of one subset, greedy selection and loss curves all go through
it; exhaustive search walks its own tree of prefixes, because it branches,
and values each small subtree of it level by level
(:func:`~sact.exact.subtree_probabilities`), holding at most one such
subtree's arrays and one prefix per depth.
Greedy selection records the probabilities of each step it accepts on the
model (``DiagnosisModel.valuation_record``), and the ``*_ev_subset``
valuations read a recorded subset instead of valuing it again: the same
floats, since the record holds what the evaluator returned.  A table's costs
depend only on its size, so both searches price each candidate by its item
count with :func:`~sact.niv.table_niv` and build a
:class:`~sact.niv.NivReport` only for what they return.

The compiler enumerates every assignment of a chosen evidence subset, decides
each with the threshold rule, and packs the decisions into a bit array whose
index convention matches the exact oracle's: bit i of the index (least
significant first) is the truth value of ``subset[i]``.

Selection is hill-climbing: starting from the empty subset, each step values
every remaining item as if it were the last one added and keeps the best
strictly improving candidate.  An optional lookahead tolerates a bounded run
of non-improving acceptances and then keeps the best prefix seen.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from . import exact, gaussian
from .errors import CapExceededError, FormatError, MethodError, ObservationError
from .exact import (
    DEFAULT_ENUMERATION_CAP,
    check_enumeration_cap,
    compose_ev,
    resolve_subset,
    weight_sums,
)
from .model import (
    Action,
    DiagnosisModel,
    EvidenceVariable,
    Observation,
    model_digest,
    threshold,
)
from .niv import Method, NivReport, TablePolicy, finite, niv, outranks, table_niv

DEFAULT_TABLE_CAP = 25
DEFAULT_SEARCH_CAP = 15

MAGIC = b"SACT"
FORMAT_VERSION = 1

StopReason = Literal["no-improvement", "all-selected", "cap"]


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


@dataclass(frozen=True)
class GaussianEvaluation:
    """Gaussian counterpart of an exact policy evaluation.

    ``low_n`` flags results summed over fewer than ``LOW_N_THRESHOLD`` items,
    where the central-limit approximation is unreliable and the exact oracle
    should be preferred.
    """

    ev: float
    p_act_given_h: float
    p_act_given_nh: float
    n: int
    low_n: bool


@dataclass(frozen=True)
class CompiledTable:
    """An ordered evidence subset plus one precomputed action per assignment.

    ``action_bits`` holds 2^n bits packed least-significant-bit first into
    ceil(2^n / 8) bytes; a set bit means act.  ``w_star_used`` and
    ``model_digest`` record the compile-time threshold and source model.
    """

    subset: tuple[str, ...]
    action_bits: bytes
    w_star_used: float
    model_digest: bytes

    @property
    def entries(self) -> int:
        return 1 << len(self.subset)

    def action_at(self, index: int) -> Action:
        if not (0 <= index < self.entries):
            raise IndexError(f"assignment index {index} out of range for {self.entries} entries")
        bit = (self.action_bits[index >> 3] >> (index & 7)) & 1
        return Action.ACT if bit else Action.NO_ACT


@dataclass(frozen=True)
class SelectionStep:
    """One accepted candidate during greedy selection."""

    evidence_id: str
    niv_before: float
    niv_after: float


@dataclass(frozen=True)
class SelectionTrace:
    """Every acceptance the greedy search made, plus how it stopped.

    ``kept`` is the number of leading steps that form the returned subset.
    Without lookahead every step strictly improves and ``kept == len(steps)``;
    with lookahead, steps beyond ``kept`` are the abandoned exploration tail
    and kept steps may include tolerated dips that a later step recovered.
    """

    steps: tuple[SelectionStep, ...]
    stopped_reason: StopReason
    kept: int


def _evaluator(
    model: DiagnosisModel, method: Method, largest: int, enum_cap: int = DEFAULT_ENUMERATION_CAP
) -> Callable[..., tuple[float, float]]:
    """P(act | H) and P(act | not-H) of a subset, through ``method``'s prefix kernel.

    ``evaluate(subset, n)`` values the leading ``n`` items of ``subset`` (all
    of them by default), so a caller valuing every prefix of one ranking
    passes the ranking itself and copies nothing.  Callers only append to
    the subsets they value, so the prefix kept from the last call is
    extended, never rebuilt.  Every weight or moment sum is still
    accumulated left to right over the subset.  No subset the caller values
    has more than ``largest`` items, so the exact prefix (a subset without
    its last item) is reserved once, for ``min(largest, enum_cap) - 1``.
    """
    kernel = {"exact": exact, "gaussian": gaussian}.get(method)
    if kernel is None:
        raise MethodError(f"unknown method {method!r}")
    lookup = model.evidence_map()
    w_star = threshold(model.utilities, model.p_h).w_star
    # The kernel's prefix of the subset's leading ``built`` items.
    if kernel is exact:
        prefix = exact.empty_prefix(max(min(largest, enum_cap) - 1, 0))
    else:
        prefix = gaussian.empty_prefix()
    built = 0

    def evaluate(subset: Sequence[str], n: int | None = None) -> tuple[float, float]:
        nonlocal built
        if n is None:
            n = len(subset)
        if method == "exact" and n > enum_cap:
            raise CapExceededError(
                f"exact evaluation of {n} items exceeds the enumeration "
                f"cap of {enum_cap}; switch to method='gaussian'"
            )
        if not n:
            # The lone empty assignment sums to 0 with probability 1.
            p_act = float(0.0 >= w_star)
            return p_act, p_act
        # Extended lazily, so the prefix is not extended past the last step.
        for i in range(built, n - 1):
            kernel.extend(prefix, lookup[subset[i]])
        built = n - 1
        return kernel.act_probabilities(prefix, lookup[subset[n - 1]], w_star)

    return evaluate


def _valuation(
    model: DiagnosisModel,
    method: Method,
    subset: Sequence[str],
    n: int,
    enum_cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[float, float]:
    """P(act | H) and P(act | not-H) of a resolved subset of ``n`` items.

    Read from the model's record when greedy selection accepted this subset
    (the same floats, valued on the same prefix), else valued anew.
    """
    recorded = model.valuation_record.get((method, tuple(subset)))
    if recorded is None:
        recorded = _evaluator(model, method, n, enum_cap)(subset)
    return recorded


def exact_ev_subset(
    model: DiagnosisModel, subset: Sequence[str], *, cap: int = DEFAULT_ENUMERATION_CAP
) -> ExactEvaluation:
    """Exact expected value of acting on a compiled evidence subset.

    Enumerates every assignment of the subset, decides each by the threshold
    rule, and accumulates the probability of acting under each hypothesis.
    Only the arrays of the subset without its last item are built.  A subset
    greedy selection accepted on this model is read from its record, and
    ``enumerated_count`` still reports 2^n.
    """
    n = len(resolve_subset(model, subset))
    check_enumeration_cap(n, cap)
    p_act_h, p_act_nh = _valuation(model, "exact", subset, n, cap)
    return ExactEvaluation(compose_ev(model, p_act_h, p_act_nh), p_act_h, p_act_nh, 1 << n)


def exact_ev_compute(model: DiagnosisModel, *, cap: int = DEFAULT_ENUMERATION_CAP) -> ExactEvaluation:
    """Exact expected value of the run-time compute policy (all evidence)."""
    return exact_ev_subset(model, [item.id for item in model.evidence], cap=cap)


def gaussian_ev_subset(model: DiagnosisModel, subset: Sequence[str]) -> GaussianEvaluation:
    """Gaussian estimate of the expected value of acting on a compiled subset.

    Plugs the two Gaussian tail probabilities into the same expected-value
    composition the exact oracle uses.
    """
    n = len(resolve_subset(model, subset))
    p_act_h, p_act_nh = _valuation(model, "gaussian", subset, n)
    return GaussianEvaluation(
        compose_ev(model, p_act_h, p_act_nh), p_act_h, p_act_nh, n, gaussian.low_n(n)
    )


def exhaustive_subset_search(
    model: DiagnosisModel,
    *,
    cap: int = DEFAULT_SEARCH_CAP,
    eval_cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[tuple[str, ...], NivReport]:
    """Best evidence subset to compile, by net inferential value, over all 2^m subsets.

    Ties are broken toward the smaller subset, then lexicographically by the
    id tuple.  Candidate subsets keep the model's evidence order.

    Each subset extends its parent by one later item and is valued on the
    parent's arrays.  A subtree small enough for
    :func:`~sact.exact.subtree_fits` is valued level by level by
    :func:`~sact.exact.subtree_probabilities`, a few numpy calls per level;
    larger ones are walked depth first, children last first.  The walk
    reserves each depth's prefix when it first reaches that depth and
    writes it from its parent's, so the deep prefixes of the first items,
    reached last, never coexist with a level-by-level subtree.  The winner is
    the maximum of a total order on (NIV, then smaller (size, ids)), so it
    does not depend on the walk order.  A model whose walk would exceed the
    memory budget or ``eval_cap`` is refused before any subset is valued,
    with the message of the first prefix or subset too large.  A winning
    NIV that is not finite is refused with :class:`DomainError`, as greedy
    selection refuses it.
    """
    ids = [item.id for item in model.evidence]
    if len(ids) > cap:
        raise CapExceededError(
            f"model has {len(ids)} evidence items, above the exhaustive search cap of {cap}"
        )
    # Rejects a model that repeats an id, as valuing a subset of it would.
    items = resolve_subset(model, ids)
    ev = exact_ev_subset(model, (), cap=eval_cap).ev
    best = (table_niv(model, 0, ev), (), ev)  # (niv, subset, ev)

    def consider(subset: tuple[str, ...], p_act: tuple[float, float]) -> None:
        nonlocal best
        ev = compose_ev(model, *p_act)
        value = table_niv(model, len(subset), ev)
        if value > best[0] or (
            value == best[0] and (len(subset), subset) < (len(best[1]), best[1])
        ):
            best = (value, subset, ev)

    # Refused before any subset is valued, with the first refusal a walk
    # would meet: the prefix of each depth that can have a child (a subset of
    # all m items has none), then the first subset over the enumeration cap.
    for depth in range(len(items)):
        exact.check_reservation(depth)
    check_enumeration_cap(min(len(items), eval_cap + 1), eval_cap)
    w_star = threshold(model.utilities, model.p_h).w_star
    _walk(items, [exact.empty_prefix(0)], w_star, (), 0, consider)
    value, subset, ev = best
    finite(value, "the net inferential value of the best table")
    return subset, niv(model, TablePolicy(subset), ev, method="exact")


def _walk(
    items: Sequence[EvidenceVariable],
    prefixes: list[exact.Prefix],
    w_star: float,
    parent: tuple[str, ...],
    start: int,
    consider: Callable[[tuple[str, ...], tuple[float, float]], None],
) -> None:
    """Pass ``consider`` each subset that extends ``parent`` by items from
    ``start`` on, with its (P(act | H), P(act | not-H)).

    ``prefixes[len(parent)]`` holds the parent's arrays; deeper prefixes are
    appended to ``prefixes`` when first needed.
    """
    depth = len(parent)
    if exact.subtree_fits(depth, len(items) - start):
        for subset, p_act in exact.subtree_probabilities(
            prefixes[depth], parent, items[start:], w_star
        ):
            consider(subset, p_act)
        return
    for j in reversed(range(start, len(items))):
        subset = parent + (items[j].id,)
        consider(subset, exact.act_probabilities(prefixes[depth], items[j], w_star))
        if j + 1 < len(items):
            if len(prefixes) == depth + 1:
                prefixes.append(exact.empty_prefix(depth + 1))
            exact.extend(prefixes[depth], items[j], out=prefixes[depth + 1])
            _walk(items, prefixes, w_star, subset, j + 1, consider)


def greedy_select(
    model: DiagnosisModel,
    *,
    method: Method = "exact",
    lookahead: int = 0,
    enum_cap: int = DEFAULT_ENUMERATION_CAP,
    table_cap: int = DEFAULT_TABLE_CAP,
) -> tuple[tuple[str, ...], SelectionTrace]:
    """Hill-climb the evidence subset to compile, maximizing net inferential value.

    Each step appends the candidate whose table policy has the highest value,
    assuming it is the last item to be added.  Ties break toward the larger
    expected-value gain, then the lexicographically smaller id.  A strictly
    improving candidate is always accepted; with ``lookahead = L`` up to L
    consecutive non-improving acceptances are tolerated before the best
    prefix seen is kept.  A NIV that is not finite is refused with
    :class:`DomainError`.

    The (P(act | H), P(act | not-H)) of each accepted step is written to
    ``model.valuation_record``, so valuing the returned subset afterwards
    reads it instead of enumerating it again.
    """
    if lookahead < 0:
        raise MethodError("lookahead depth must be >= 0")
    remaining = [item.id for item in model.evidence]
    # Rejects a model that repeats an id, as valuing a subset of it would.
    resolve_subset(model, remaining)
    evaluate = _evaluator(model, method, min(len(remaining), table_cap), enum_cap)
    chosen: list[str] = []
    record = model.valuation_record

    current_niv = finite(table_niv(model, 0, compose_ev(model, *evaluate(()))),
                         "the net inferential value of the empty table")
    best_niv, best_len = current_niv, 0
    steps: list[SelectionStep] = []
    tolerance = lookahead
    reason: StopReason = "all-selected"

    while remaining:
        if len(chosen) >= table_cap:
            reason = "cap"
            break
        # (niv, ev, id, (P(act | H), P(act | not-H)))
        best_candidate: tuple[float, float, str, tuple[float, float]] | None = None
        for evidence_id in remaining:
            candidate = chosen + [evidence_id]
            p_act = evaluate(candidate)
            ev = compose_ev(model, *p_act)
            value = table_niv(model, len(candidate), ev)
            if outranks(value, ev, evidence_id, best_candidate):
                best_candidate = (value, ev, evidence_id, p_act)
        assert best_candidate is not None
        value, _, evidence_id, p_act = best_candidate
        finite(value, "the net inferential value of the best next table")
        if value > current_niv:
            tolerance = lookahead
        elif tolerance > 0:
            tolerance -= 1
        else:
            reason = "no-improvement"
            break
        chosen.append(evidence_id)
        remaining.remove(evidence_id)
        record[(method, tuple(chosen))] = p_act
        steps.append(SelectionStep(evidence_id, current_niv, value))
        current_niv = value
        if value > best_niv:
            best_niv, best_len = value, len(chosen)

    trace = SelectionTrace(steps=tuple(steps), stopped_reason=reason, kept=best_len)
    return tuple(chosen[:best_len]), trace


def compile_table(
    model: DiagnosisModel, subset: Sequence[str], *, cap: int = DEFAULT_TABLE_CAP
) -> CompiledTable:
    """Precompute the action for every assignment of the subset.

    A bit is set exactly when the assignment's weight sum reaches the
    threshold, so lookups reproduce the threshold rule verbatim.
    """
    if len(subset) > cap:
        raise CapExceededError(
            f"subset of {len(subset)} items exceeds the table cap of {cap}"
        )
    weights = weight_sums(model, subset)
    thr = threshold(model.utilities, model.p_h)
    bits = np.packbits(weights >= thr.w_star, bitorder="little").tobytes()
    return CompiledTable(
        subset=tuple(subset),
        action_bits=bits,
        w_star_used=thr.w_star,
        model_digest=model_digest(model),
    )


def table_lookup(table: CompiledTable, observation: Observation) -> Action:
    """Look up the compiled action for an observation of exactly the subset."""
    provided = set(observation)
    expected = set(table.subset)
    if provided != expected:
        missing = sorted(expected - provided)
        extra = sorted(provided - expected)
        parts = []
        if missing:
            parts.append(f"missing ids {missing}")
        if extra:
            parts.append(f"unexpected ids {extra}")
        raise ObservationError(
            "observation must cover exactly the compiled subset: " + ", ".join(parts)
        )
    index = 0
    for i, evidence_id in enumerate(table.subset):
        if observation[evidence_id]:
            index |= 1 << i
    return table.action_at(index)


# ---------------------------------------------------------------------------
# Binary serialization: magic "SACT", version byte, little-endian fields.
# ---------------------------------------------------------------------------


def write_table(table: CompiledTable) -> bytes:
    """Serialize a compiled table to the versioned SACT byte format."""
    if len(table.model_digest) != 32:
        raise FormatError("model digest must be exactly 32 bytes")
    parts = [MAGIC, bytes([FORMAT_VERSION]), len(table.subset).to_bytes(2, "little")]
    for evidence_id in table.subset:
        raw = evidence_id.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise FormatError(f"evidence id too long to serialize: {evidence_id!r}")
        parts.append(len(raw).to_bytes(2, "little"))
        parts.append(raw)
    parts.append(struct.pack("<d", table.w_star_used))
    parts.append(table.model_digest)
    expected = (table.entries + 7) >> 3
    if len(table.action_bits) != expected:
        raise FormatError(
            f"action bit array has {len(table.action_bits)} bytes, expected {expected}"
        )
    parts.append(table.action_bits)
    return b"".join(parts)


def read_table(blob: bytes) -> CompiledTable:
    """Parse SACT bytes back into a compiled table, rejecting malformed input."""

    def take(count: int, what: str) -> bytes:
        nonlocal offset
        if offset + count > len(blob):
            raise FormatError(f"truncated table: ran out of bytes reading {what}")
        piece = blob[offset : offset + count]
        offset += count
        return piece

    offset = 0
    if take(4, "magic") != MAGIC:
        raise FormatError("not a compiled table: bad magic bytes")
    version = take(1, "version")[0]
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported table format version {version}")
    n = int.from_bytes(take(2, "subset size"), "little")
    subset: dict[str, None] = {}
    for i in range(n):
        length = int.from_bytes(take(2, f"id length {i}"), "little")
        raw = take(length, f"id {i}")
        try:
            evidence_id = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"evidence id {i} is not valid UTF-8: {exc}") from None
        if evidence_id in subset:
            raise FormatError(f"evidence id {i} repeats {evidence_id!r}")
        subset[evidence_id] = None
    (w_star,) = struct.unpack("<d", take(8, "threshold weight"))
    digest = take(32, "model digest")
    bits = take(((1 << n) + 7) >> 3, "action bits")
    if offset != len(blob):
        raise FormatError(f"{len(blob) - offset} trailing bytes after table data")
    return CompiledTable(
        subset=tuple(subset), action_bits=bits, w_star_used=w_star, model_digest=digest
    )
