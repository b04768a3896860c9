"""Subset valuation, subset selection and compiled 2^n action tables.

One evaluator values every subset: :func:`_evaluator` turns a subset into
P(act | H) and P(act | not-H) through the chosen method's prefix kernel
(:mod:`sact.exact` or :mod:`sact.gaussian`), and callers compose the
expected value with :func:`~sact.exact.compose_ev`.  The exact and Gaussian
valuations of one subset, greedy selection and loss curves all go through
it.  Both searches value a node's children, the prefix plus each candidate
item, with one call of the kernel's ``child_probabilities``: a greedy step
on the prefix it has chosen, exhaustive search on each node it walks.
Exhaustive search branches, so it walks a tree of prefixes
(:func:`~sact.exact.walk`) and values each small subtree of it level by
level, holding at most one such subtree's or one node's children's arrays
and the prefixes of the path to it.
Greedy selection records the probabilities of each step it accepts on the
model (``DiagnosisModel.valuation_record``), and the ``*_ev_subset``
valuations read a recorded subset instead of valuing it again: the same
floats, since the record holds what the evaluator returned.  A table's costs
depend only on its size, so both searches price a table by its item count
with :func:`~sact.niv.table_niv` and build a :class:`~sact.niv.NivReport`
only for what they return.  Exhaustive search prices every subset: it breaks
NIV ties by size and ids, not by expected value.  Greedy selection ranks a
step's candidates by expected value (:func:`~sact.niv.outranks`) and prices
only the best one, which for r > 0 is the candidate of highest NIV.

The compiler enumerates every assignment of a chosen evidence subset, decides
each with the threshold rule, and packs the decisions into a bit array whose
index convention matches the exact oracle's: bit i of the index (least
significant first) is the truth value of ``subset[i]``.  The exact kernel
enumerates them in blocks (:func:`~sact.exact.table_bits`), so its working
sums do not grow with the table.  Every array, prefix and block size is the
exact kernel's; this module keeps selection, the compiled table and its
byte format.

Selection is hill-climbing: starting from the empty subset, each step values
every remaining item as if it were the last one added and keeps the
candidate of highest expected value if its table strictly improves the NIV.
An optional lookahead tolerates a bounded run of non-improving acceptances
and then keeps the best prefix seen.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Literal, Sequence

from . import exact, gaussian
from .errors import CapExceededError, FormatError, MethodError, ObservationError
from .exact import (
    DEFAULT_ENUMERATION_CAP,
    check_enumeration_cap,
    compose_ev,
    resolve_subset,
)
from .model import (
    Action,
    DiagnosisModel,
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

# The action of a clear and of a set bit of a table.
_ACTIONS = (Action.NO_ACT, Action.ACT)


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
    The first :func:`table_lookup` builds the table's lookup plan and keeps
    it for the next; the plan is not a field, so equality, hash, ``repr``
    and the written bytes do not see it.
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
        return _ACTIONS[self.action_bits[index >> 3] >> (index & 7) & 1]

    @cached_property
    def _lookup_plan(self) -> tuple[frozenset[str], tuple[tuple[str, int], ...]]:
        """The subset's ids, and each id with its bit of the assignment index."""
        ids = self.subset
        return frozenset(ids), tuple((evidence_id, 1 << i) for i, evidence_id in enumerate(ids))


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
) -> tuple[Callable[..., tuple[float, float]], Callable[..., Iterator[tuple[float, float]]]]:
    """P(act | H) and P(act | not-H) of subsets, through ``method``'s prefix kernel.

    Returns ``(evaluate, step)``.  ``evaluate(subset, n)`` values the
    leading ``n`` items of ``subset`` (all of them by default), so a caller
    valuing every prefix of one ranking passes the ranking itself and copies
    nothing.  ``step(subset, n, lasts)`` values the leading ``n`` items of
    ``subset`` followed by each of ``lasts``, one pair per last item, with
    one call of the kernel's ``child_probabilities`` (the exact kernel
    values them all at once when their arrays :func:`~sact.exact.fits`, with
    the same floats).  Callers only append to the subsets they value, so the
    prefix kept from the last call is extended, never rebuilt.  Every weight
    or moment sum is still accumulated left to right over the subset.  No
    subset the caller values has more than ``largest`` items, so the exact
    prefix (a subset without its last item) is reserved once, for
    ``min(largest, enum_cap) - 1``.
    """
    kernel = {"exact": exact, "gaussian": gaussian}.get(method)
    if kernel is None:
        raise MethodError(f"unknown method {method!r}")
    lookup = model.evidence_map()
    w_star = threshold(model.utilities, model.p_h).w_star
    # The kernel's prefix of the subset's leading ``built`` items.
    prefix = kernel.empty_prefix(max(min(largest, enum_cap) - 1, 0))
    built = 0

    def step(subset: Sequence[str], n: int, lasts: Sequence[str]) -> Iterator[tuple[float, float]]:
        nonlocal built
        if method == "exact" and n + 1 > enum_cap:
            raise CapExceededError(
                f"exact evaluation of {n + 1} items exceeds the enumeration "
                f"cap of {enum_cap}; switch to method='gaussian'"
            )
        # Extended lazily, so the prefix is not extended past the last step.
        for i in range(built, n):
            kernel.extend(prefix, lookup[subset[i]])
        built = n
        return kernel.child_probabilities(prefix, [lookup[last] for last in lasts], w_star)

    def evaluate(subset: Sequence[str], n: int | None = None) -> tuple[float, float]:
        if n is None:
            n = len(subset)
        if not n:
            # The lone empty assignment sums to 0 with probability 1.
            p_act = float(0.0 >= w_star)
            return p_act, p_act
        [p_act] = step(subset, n - 1, subset[n - 1 : n])
        return p_act

    return evaluate, step


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
        evaluate, _ = _evaluator(model, method, n, enum_cap)
        recorded = evaluate(subset)
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
    parent's arrays, by :func:`~sact.exact.walk`: small subtrees level by
    level, larger ones depth first.  The winner is the maximum of a total
    order on (NIV, then smaller (size, ids)), so it does not depend on the
    walk order.  A model whose walk would exceed the memory budget or
    ``eval_cap`` is refused before any subset is valued, with the message of
    the first prefix or subset too large.  A winning NIV that is not finite
    is refused with :class:`DomainError`, as greedy selection refuses it.
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
    exact.walk(items, exact.empty_prefix(0), w_star, (), 0, consider)
    value, subset, ev = best
    finite(value, "the net inferential value of the best table")
    return subset, niv(model, TablePolicy(subset), ev, method="exact")


def greedy_select(
    model: DiagnosisModel,
    *,
    method: Method = "exact",
    lookahead: int = 0,
    enum_cap: int = DEFAULT_ENUMERATION_CAP,
    table_cap: int = DEFAULT_TABLE_CAP,
) -> tuple[tuple[str, ...], SelectionTrace]:
    """Hill-climb the evidence subset to compile, maximizing net inferential value.

    Each step appends the candidate whose table has the highest expected
    value, ties to the lexicographically smaller id
    (:func:`~sact.niv.outranks`), and prices only that table.  For r > 0,
    which ``validate_model`` enforces, a table's NIV at a fixed size is
    non-decreasing in its expected value, so this is the candidate of highest
    NIV, ties to the higher expected value, whatever the costs: they decide
    only where the search stops.  A strictly improving candidate is always
    accepted; with ``lookahead = L`` up to L consecutive non-improving
    acceptances are tolerated before the best prefix seen is kept.  A NIV
    that is not finite is refused with :class:`DomainError`.

    Each step values every remaining candidate on the prefix chosen so far
    with one call of the kernel's ``child_probabilities``, all of them at
    once when their arrays fit (:func:`~sact.exact.fits`).
    The (P(act | H), P(act | not-H)) of each accepted step is written to
    ``model.valuation_record``, so valuing the returned subset afterwards
    reads it instead of enumerating it again.
    """
    if lookahead < 0:
        raise MethodError("lookahead depth must be >= 0")
    remaining = [item.id for item in model.evidence]
    # Rejects a model that repeats an id, as valuing a subset of it would.
    resolve_subset(model, remaining)
    evaluate, step = _evaluator(model, method, min(len(remaining), table_cap), enum_cap)
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
        # (ev, id, (P(act | H), P(act | not-H)))
        best_candidate: tuple[float, str, tuple[float, float]] | None = None
        for evidence_id, p_act in zip(remaining, step(chosen, len(chosen), remaining)):
            ev = compose_ev(model, *p_act)
            if outranks(ev, evidence_id, best_candidate):
                best_candidate = (ev, evidence_id, p_act)
        assert best_candidate is not None
        ev, evidence_id, p_act = best_candidate
        value = finite(table_niv(model, len(chosen) + 1, ev),
                       "the net inferential value of the best next table")
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
    threshold, so lookups reproduce the threshold rule verbatim.  The bits
    are written block by block by :func:`~sact.exact.table_bits`.  A table
    over the cap, an unknown or repeated id, and a table whose working
    arrays exceed the memory budget are refused in that order, before the
    threshold is solved.
    """
    if len(subset) > cap:
        raise CapExceededError(
            f"subset of {len(subset)} items exceeds the table cap of {cap}"
        )
    items = resolve_subset(model, subset)
    exact.check_table(len(items))
    w_star = threshold(model.utilities, model.p_h).w_star
    return CompiledTable(
        subset=tuple(subset),
        action_bits=exact.table_bits(items, w_star),
        w_star_used=w_star,
        model_digest=model_digest(model),
    )


def table_lookup(table: CompiledTable, observation: Observation) -> Action:
    """Look up the compiled action for an observation of exactly the subset.

    The table's lookup plan is built on its first lookup.  Every lookup
    compares the observation's keys with the plan's ids once, then makes one
    pass over the subset, setting the index bit of each true id, and reads
    the action from that bit of the table.
    """
    expected, bits = table._lookup_plan
    if observation.keys() != expected:
        provided = set(observation)
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
    for evidence_id, bit in bits:
        if observation[evidence_id]:
            index |= bit
    return _ACTIONS[table.action_bits[index >> 3] >> (index & 7) & 1]


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
