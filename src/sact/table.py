"""Greedy subset selection and compiled 2^n action tables.

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
from .exact import DEFAULT_ENUMERATION_CAP, compose_ev, resolve_subset, weight_sums
from .model import Action, DiagnosisModel, Observation, model_digest, threshold
from .niv import Method, TablePolicy, niv

DEFAULT_TABLE_CAP = 25

MAGIC = b"SACT"
FORMAT_VERSION = 1

StopReason = Literal["no-improvement", "all-selected", "cap"]


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
    model: DiagnosisModel, method: Method, enum_cap: int
) -> Callable[[Sequence[str]], float]:
    """Expected value of acting on a subset, through ``method``'s prefix kernel.

    Callers only append to the subsets they value, so the prefix kept from
    the last call is extended, never rebuilt.  Results are bit-identical to
    ``exact_ev_subset`` and ``gaussian_ev_subset``.
    """
    kernel = {"exact": exact, "gaussian": gaussian}.get(method)
    if kernel is None:
        raise MethodError(f"unknown method {method!r}")
    # Rejects a model that repeats an id, as valuing a subset of it would.
    items = resolve_subset(model, [item.id for item in model.evidence])
    lookup = {item.id: item for item in items}
    w_star = threshold(model.utilities, model.p_h).w_star
    # The kernel's prefix of the subset's leading ``built`` items.
    prefix = kernel.empty_prefix()
    built = 0

    def evaluate(subset: Sequence[str]) -> float:
        nonlocal built
        if method == "exact" and len(subset) > enum_cap:
            raise CapExceededError(
                f"exact evaluation of {len(subset)} items exceeds the enumeration "
                f"cap of {enum_cap}; switch to method='gaussian'"
            )
        if not subset:
            # The lone empty assignment sums to 0 with probability 1.
            p_act = float(0.0 >= w_star)
            return compose_ev(model, p_act, p_act)
        # Extended lazily, so the prefix is not extended past the last step.
        for evidence_id in subset[built:-1]:
            kernel.extend(prefix, lookup[evidence_id])
        built = len(subset) - 1
        return compose_ev(model, *kernel.act_probabilities(prefix, lookup[subset[-1]], w_star))

    return evaluate


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
    prefix seen is kept.
    """
    if lookahead < 0:
        raise MethodError("lookahead depth must be >= 0")
    evaluate = _evaluator(model, method, enum_cap)
    chosen: list[str] = []
    remaining = [item.id for item in model.evidence]

    current_niv = niv(model, TablePolicy(()), evaluate(()), method=method).niv
    best_niv, best_len = current_niv, 0
    steps: list[SelectionStep] = []
    tolerance = lookahead
    reason: StopReason = "all-selected"

    while remaining:
        if len(chosen) >= table_cap:
            reason = "cap"
            break
        best_candidate: tuple[float, float, str] | None = None  # (niv, ev, id)
        for evidence_id in remaining:
            candidate = chosen + [evidence_id]
            ev = evaluate(candidate)
            value = niv(model, TablePolicy(tuple(candidate)), ev, method=method).niv
            if (
                best_candidate is None
                or value > best_candidate[0]
                or (value == best_candidate[0] and ev > best_candidate[1])
                or (
                    value == best_candidate[0]
                    and ev == best_candidate[1]
                    and evidence_id < best_candidate[2]
                )
            ):
                best_candidate = (value, ev, evidence_id)
        assert best_candidate is not None
        value, _, evidence_id = best_candidate
        if value > current_niv:
            tolerance = lookahead
        elif tolerance > 0:
            tolerance -= 1
        else:
            reason = "no-improvement"
            break
        chosen.append(evidence_id)
        remaining.remove(evidence_id)
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
    weights = weight_sums(model, subset, cap=cap)
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
    subset = []
    for i in range(n):
        length = int.from_bytes(take(2, f"id length {i}"), "little")
        raw = take(length, f"id {i}")
        try:
            subset.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"evidence id {i} is not valid UTF-8: {exc}") from None
    (w_star,) = struct.unpack("<d", take(8, "threshold weight"))
    digest = take(32, "model digest")
    bits = take(((1 << n) + 7) >> 3, "action bits")
    if offset != len(blob):
        raise FormatError(f"{len(blob) - offset} trailing bytes after table data")
    return CompiledTable(
        subset=tuple(subset), action_bits=bits, w_star_used=w_star, model_digest=digest
    )
