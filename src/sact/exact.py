"""Exact prefix kernel: enumeration of every truth assignment of an evidence subset.

Results are exact up to floating-point rounding; the Gaussian approximation
and both compilers are tested against them.  This is the one module that
reserves a prefix, sizes a block or runs a numpy pass: beside the kernel
proper (:func:`empty_prefix`, :func:`extend`, :func:`child_probabilities`)
it holds exhaustive search's walk (:func:`walk`) and the table compiler's
blocked walk (:func:`table_bits`), and every pass reads one block size,
:data:`BLOCK`.

Index convention (shared with the table compiler): assignments are numbered
0 .. 2^n - 1 and bit i of the index, least significant first, is the truth
value of ``subset[i]``.

A prefix's three arrays are the rows of one (3, 2^size) array reserved
once, by :func:`empty_prefix`, for the largest prefix its caller can reach:
each caller knows before the first extension how many bytes the prefix will
need, and a reservation above :data:`MEMORY_BUDGET` is refused before
anything is reserved.  One reservation, not three, lets glibc keep a large
prefix's pages for the next valuation: freeing one 12 MiB array (19 items)
raises its trim threshold to 24 MiB, while three freed 4 MiB buffers merge
above the 8 MiB threshold they set and are handed back to the system, to be
faulted in again.  glibc's thresholds stop at 32 MiB, so a prefix of 21
items or more is mapped and unmapped on its own.
:func:`extend` appends one item in place, allocating nothing, and
:func:`act_probabilities` values the prefix plus one more item without
building that item's arrays: it finds the acting assignments
:data:`BLOCK` prefix entries at a time and sums their probabilities one
leaf of at most :data:`LEAF` at a time, along numpy's own pairwise tree
(:func:`pairwise_sum`).  Both read the item's two branches, (P(E | H),
P(E | not-H), weight) for E true and for E false, from its record, computed
once, on first read (:attr:`~sact.model.EvidenceVariable.record`).
:mod:`sact.table` is this module's one importer.  Its evaluator values
every subset through this kernel, extending one prefix; exhaustive search
reserves only the root prefix of its :func:`walk`.  A search node (a greedy
step, or a node that exhaustive search walks) values its prefix plus each
of its candidate items with one :func:`child_probabilities` call: all at
once on the shared prefix where the arrays are small (:func:`fits`), else
one :func:`act_probabilities` each.  Below a walked node, exhaustive
search values each run of sibling subtrees that fit together in one pass,
level by level, all subsets of one size at once
(:func:`subtree_probabilities`); a pass holds two adjacent levels at once,
so the rule (:func:`run_fits`) checks the largest such pair.  Both gather
and sum a level through :func:`level_probabilities`, which returns the
level's probabilities as one (2, rows) array, so that the walk's caller
prices a whole level with array arithmetic.  :func:`walk` walks the
subtrees that do not fit depth first, one child prefix per walked node.
Every weight sum is still accumulated left to right over the subset, and
every probability sum rounds as numpy's sum of the whole acting sequence,
so all results are bit-identical to enumerating each subset from scratch.

Peak memory (tracemalloc, n = 18, in float64 arrays of 2^17 entries):
valuing a subset of n items holds the three arrays of its first n - 1
items, two boolean masks over them (1/4 of an array) and one leaf of
gathered probabilities per hypothesis, 3.5 of those arrays whatever share
of the assignments acts; gathering the acting probabilities whole took 4.8
to 6.2.  A pass holds at most :data:`SUBTREE_BYTES` per entry of its
largest two adjacent levels, and a node's children valued at once per
entry of theirs (28 to 44 and 49 to 54 measured).  The pages of a buffer
that a run never reaches are never touched, so they do not count toward
resident memory.
"""

from __future__ import annotations

from itertools import chain
from math import comb
from operator import add
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import CapExceededError
from .model import EvidenceVariable

# The most bytes one prefix may reserve.  The largest reservation under the
# default caps is 384 MiB: one (3, 2^24) float64 array, for greedy
# selection or a 25-item valuation.
MEMORY_BUDGET = 1 << 30

# The one block size, a power of two of at least 8.  :func:`act_probabilities`
# reads a prefix BLOCK entries at a time, :func:`table_bits` decides BLOCK
# assignments at a time (so each block's bits fill whole bytes), and a search
# node's children of at most BLOCK entries in all, or a pass whose largest two
# adjacent levels hold at most BLOCK, are valued at once (:func:`fits`),
# holding at most SUBTREE_BYTES per entry.
# :func:`act_probabilities` sums at most LEAF acting probabilities in one
# ``np.add.reduce``.  numpy's pairwise sum never splits a range of 128
# entries or fewer, so LEAF must be at least 128.  A valuation holds one leaf
# per hypothesis and the acting positions of one block, so at a prefix of
# 2^14 entries it holds no more than gathering the acting probabilities
# whole did.
BLOCK = 1 << 14
LEAF = 1 << 13
SUBTREE_BYTES = 64

# What :func:`walk` hands each level: its subset size, its (2, rows) array of
# (P(act | H), P(act | not-H)) and a function from a row to its ids.
Consider = Callable[[int, np.ndarray, Callable[[int], tuple[str, ...]]], None]


def check_budget(reserved: int, what: str) -> None:
    """Refuse ``what`` if it would reserve more than :data:`MEMORY_BUDGET` bytes."""
    if reserved > MEMORY_BUDGET:
        raise CapExceededError(
            f"{what} would reserve {reserved} bytes, above the memory budget of "
            f"{MEMORY_BUDGET} bytes"
        )


def check_reservation(size: int) -> None:
    """Refuse a prefix of ``size`` items, one (3, 2^size) float64 array,
    above :data:`MEMORY_BUDGET`."""
    check_budget(3 * 8 << size, f"a prefix of {size} items")


def check_table(size: int) -> None:
    """Refuse a table of ``size`` items whose working arrays would exceed
    :data:`MEMORY_BUDGET`: the weight sums of :func:`table_bits`, its bits and
    their copy as bytes, which coexist at the end."""
    k = min(size, BLOCK.bit_length() - 1)
    table_bytes = ((1 << size) + 7) >> 3
    check_budget(((size - k + 1) * 8 << k) + 2 * table_bytes, f"a table of {size} items")


class Prefix:
    """The assignments of a subset's leading items, in one array reserved once.

    ``buffers`` is a (3, 2^size) array whose rows hold the weight sums, then
    P(assignment | H) and P(assignment | not-H), indexed by the assignment
    convention above.  The prefix is the leading entries of each row, viewed
    by ``arrays``, of shape (3, 2^n).
    """

    __slots__ = ("buffers", "arrays")

    def __init__(self, size: int) -> None:
        check_reservation(size)
        # np.empty, not zeros: a page the prefix never reaches is never touched.
        self.buffers = np.empty((3, 1 << size))
        self.buffers[:, 0] = (0.0, 1.0, 1.0)
        self.arrays = self.buffers[:, :1]


def empty_prefix(size: int) -> Prefix:
    """The empty subset (weight 0, probability 1), reserved for ``size`` items."""
    return Prefix(size)


def extend(prefix: Prefix, item: EvidenceVariable, out: Prefix | None = None) -> None:
    """Append one trailing item to a prefix, in place or into ``out``.

    The assignments with the item false fill the first half and those with
    it true the second.  The true half is written first, into entries the
    prefix does not use, so the false half can then overwrite the prefix's
    own entries.  No array is allocated: ``out.buffers`` must have been
    reserved for the extended prefix.
    """
    if out is None:
        out = prefix
    n = prefix.arrays.shape[1]
    (a1, b1, w1), (a0, b0, w0) = item.record.branches
    steps = ((np.add, w0, w1), (np.multiply, a0, a1), (np.multiply, b0, b1))
    # Rows are indexed: iterating a 2-D array costs twice as much per row.
    for row, (op, if_false, if_true) in enumerate(steps):
        source = prefix.arrays[row]
        op(source, if_true, out=out.buffers[row, n : 2 * n])
        op(source, if_false, out=out.buffers[row, :n])
    out.arrays = out.buffers[:, : 2 * n]


def pairwise_sum(leaf: Callable[[int], np.ndarray], n: int) -> np.ndarray:
    """numpy's pairwise sum of ``n`` values, given ``leaf(count)``, the sum
    of the next ``count`` of them.

    ``np.add.reduce`` of a contiguous float64 array splits a range of more
    than 128 entries after ``n // 2 - n // 2 % 8`` of them, a split that
    depends on the length alone, and adds the sums of the two parts.  This
    splits the same way down to ranges of at most :data:`LEAF` entries, each
    of which ``leaf`` sums with one ``np.add.reduce``, and adds the parts as
    numpy does: the result is ``np.add.reduce`` of all ``n`` values, bit for
    bit.  ``leaf`` may sum several sequences of values at once, as an array
    of sums.
    """
    if n <= LEAF:
        return leaf(n)
    half = n // 2 - n // 2 % 8
    return pairwise_sum(leaf, half) + pairwise_sum(leaf, n - half)


def act_probabilities(
    prefix: Prefix, item: EvidenceVariable, w_star: float
) -> tuple[float, float]:
    """P(act | H) and P(act | not-H) of the prefix plus one trailing item.

    The acting assignments are those of the extended arrays where
    ``weights >= w_star``: the prefix's entries that act with the item
    false, then those that act with it true, each in index order.  Their
    probabilities are summed as numpy's pairwise sum of that sequence
    (:func:`pairwise_sum`), so the floats are those of summing the extended
    arrays, which are never built.  The masks are computed :data:`BLOCK`
    prefix entries at a time, and the sequence is gathered and summed one
    leaf at a time, for both hypotheses at once: beside the prefix, only the
    two masks grow with it.  The decision compares ``weights + w >=
    w_star``, the extended weight itself: at a sum that sits on the
    threshold, ``weights >= w_star - w`` can round the other way.
    """
    weights, p_given_h, p_given_nh = prefix.arrays[0], prefix.arrays[1], prefix.arrays[2]
    (a1, b1, w1), (a0, b0, w0) = item.record.branches
    # (block, mask, P(E | H), P(E | not-H)) of each block with an acting
    # entry, the false branch first.
    chunks = []
    size = 0
    for w, f_h, f_nh in ((w0, a0, b0), (w1, a1, b1)):
        for start in range(0, len(weights), BLOCK):
            block = slice(start, start + BLOCK)
            mask = weights[block] + w >= w_star
            count = np.count_nonzero(mask)
            if count:
                chunks.append((block, mask, f_h, f_nh))
                size += count
    # Popped in order, so each mask is freed once its positions are found.
    chunks.reverse()
    acting = np.empty((2, min(size, LEAF)))
    acting_h, acting_nh = acting[0], acting[1]
    # The chunk being gathered: its acting positions not yet gathered, None
    # once all are.
    block = where = f_h = f_nh = None

    def leaf(count: int) -> np.ndarray:
        nonlocal block, where, f_h, f_nh
        filled = 0
        while filled < count:
            if where is None:
                block, mask, f_h, f_nh = chunks.pop()
                where = mask.nonzero()[0]
            part = where[: count - filled]
            end = filled + len(part)
            # "clip", as "raise" would gather into a copy of ``out`` first.
            out = acting_h[filled:end]
            p_given_h[block].take(part, out=out, mode="clip")
            out *= f_h
            out = acting_nh[filled:end]
            p_given_nh[block].take(part, out=out, mode="clip")
            out *= f_nh
            where = where[len(part) :] if len(part) < len(where) else None
            filled = end
            # A gathered chunk's positions are freed before the next are found.
            del part
        # Each row is reduced as one contiguous array, by numpy's pairwise sum.
        return np.add.reduce(acting[:, :count], axis=1)

    p_act_h, p_act_nh = pairwise_sum(leaf, size).tolist()
    return p_act_h, p_act_nh


def fits(entries: int) -> bool:
    """Whether arrays of ``entries`` entries in all may be valued at once
    (:func:`child_probabilities`, :func:`run_fits`): at most
    :data:`BLOCK`, and :data:`SUBTREE_BYTES` of them each within the memory
    budget."""
    return entries <= BLOCK and entries * SUBTREE_BYTES <= MEMORY_BUDGET


def branch_array(items: Sequence[EvidenceVariable]) -> np.ndarray:
    """Per item and branch, false first: (P(E | H), P(E | not-H), weight).

    Read from the records into an array of shape (len(items), 2, 3) without
    the nested temporaries of ``np.array``, which take twice its bytes.
    """
    flat = chain.from_iterable(chain.from_iterable(item.record.branches for item in items))
    return np.fromiter(flat, float, 6 * len(items)).reshape(-1, 2, 3)[:, ::-1]


def level_probabilities(level_w: np.ndarray, level_p: np.ndarray, w_star: float) -> np.ndarray:
    """P(act | H) and P(act | not-H) of each row of a level of subsets, as
    the rows of a (2, rows) array.

    ``level_w[row]`` holds a subset's weight sums and ``level_p[:, row]`` its
    probabilities under H and not-H, as :func:`extend` would write them.  The
    acting probabilities of every row are gathered into one array per
    hypothesis, row after row, and each row's slice is summed on its own: the
    same values in the same order as :func:`act_probabilities` sums, each in
    a contiguous array, so numpy's pairwise sum rounds them the same way.
    """
    acting = level_w >= w_star
    counts = acting.sum(axis=1).tolist()
    gathered = level_p.reshape(2, -1).compress(acting.ravel(), axis=1)
    del acting
    p_act = np.empty((len(counts), 2))
    reduce = np.add.reduce
    end = 0
    for row, count in enumerate(counts):
        start, end = end, end + count
        reduce(gathered[:, start:end], axis=1, out=p_act[row])
    return p_act.T


def child_probabilities(
    prefix: Prefix, items: Sequence[EvidenceVariable], w_star: float
) -> Iterator[tuple[float, float]]:
    """:func:`act_probabilities` of the prefix plus each of ``items``, in order.

    When the extended arrays of every item, len(items) * 2^(size + 1)
    entries, :func:`fits`, they are built side by side in one broadcast add
    of the weights and one multiply per hypothesis, the false half first, as
    :func:`extend` writes them, and valued by :func:`level_probabilities`:
    the floats of :func:`act_probabilities`, bit for bit.  Otherwise each
    item is valued by its own :func:`act_probabilities` call.
    """
    weights, p_given_h, p_given_nh = prefix.arrays[0], prefix.arrays[1], prefix.arrays[2]
    if not fits(len(items) * 2 * len(weights)):
        return (act_probabilities(prefix, item, w_star) for item in items)
    branches = branch_array(items).transpose(2, 0, 1)
    # Explicit row lengths: with no items, -1 would be ambiguous.
    rows = (len(items), 2 * len(weights))
    level_w = np.add(weights, branches[2, ..., None]).reshape(rows)
    level_p = np.empty((2, len(items), 2, len(weights)))
    np.multiply(p_given_h, branches[0, ..., None], out=level_p[0])
    np.multiply(p_given_nh, branches[1, ..., None], out=level_p[1])
    # Each array is freed once it is no longer read: at 2^14 entries the
    # branches, the level and the floats made from it do not fit the bound
    # together.
    del branches
    p_act = level_probabilities(level_w, level_p.reshape(2, *rows), w_star)
    del level_w, level_p
    p_act_h, p_act_nh = p_act.tolist()
    return zip(p_act_h, p_act_nh)


def subtree_probabilities(
    prefix: Prefix, items: Sequence[EvidenceVariable], firsts: Sequence[int], w_star: float
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """P(act | H) and P(act | not-H) of each subset that extends the subset
    ``prefix`` holds by ``items[j]``, j in ``firsts``, and then by later items.

    The first level, the prefix plus each first item, is built as
    :func:`child_probabilities` builds a node's children, and not valued.
    Each later level is built from the level above in one broadcast add of
    the weights and one multiply of the probabilities, the false half first,
    as :func:`extend` writes them, and valued by :func:`level_probabilities`.
    Yields ``(parents, lasts, p_act)`` per level, one subset size at a time:
    row ``i`` extends row ``parents[i]`` of the level above by
    ``items[lasts[i]]``, and ``p_act[:, i]`` holds its two probabilities.
    """
    branches = branch_array(items)
    weights = branches[:, :, 2]
    factors = branches[:, :, :2].transpose(2, 0, 1)
    lasts = np.array(firsts, dtype=np.intp)
    # One row per subset of the level: level_w[row] and level_p[hypothesis, row].
    size = 2 * prefix.arrays.shape[1]
    level_w = np.add(prefix.arrays[0], weights[lasts, :, None]).reshape(len(lasts), size)
    level_p = np.multiply(prefix.arrays[1:, None, None], factors[:, lasts, :, None])
    level_p = level_p.reshape(2, len(lasts), size)
    while True:
        # Each row has a child for each item after its last.
        counts = len(items) - 1 - lasts
        rows = int(counts.sum())
        if not rows:
            return
        parents = np.repeat(np.arange(len(lasts)), counts)
        starts = np.cumsum(counts) - counts
        lasts = np.arange(rows) + np.repeat(lasts + 1 - starts, counts)
        size *= 2
        # np.take, not fancy indexing, so the gathered rows are contiguous.
        level_w = np.add(level_w.take(parents, axis=0)[:, None], weights[lasts, :, None])
        level_w = level_w.reshape(rows, size)
        level_p = np.multiply(level_p.take(parents, axis=1)[:, :, None], factors[:, lasts, :, None])
        level_p = level_p.reshape(2, rows, size)
        yield parents, lasts, level_probabilities(level_w, level_p, w_star)


def run_fits(depth: int, fewest: int, most: int) -> bool:
    """Whether the subtrees of a run of sibling subsets of ``depth`` items,
    with ``fewest`` to ``most`` later items each, may be valued in one pass.

    Level s of the run, the siblings themselves at s = 0, holds
    C(most + 1, s + 1) - C(fewest, s + 1) subsets of 2^(depth + s) entries
    each.  A pass holds two adjacent levels at once, so the largest pair
    must :func:`fits`.
    """
    entries = [comb(most + 1, s + 1) - comb(fewest, s + 1) << depth + s for s in range(most + 1)]
    return fits(max(map(add, entries, entries[1:])))


def walk_run(
    items: Sequence[EvidenceVariable],
    prefix: Prefix,
    w_star: float,
    parent: tuple[str, ...],
    run: Sequence[int],
    consider: Consider,
) -> None:
    """Pass ``consider`` each level of the subtrees of ``parent`` plus
    ``items[j]``, j in ``run``, below those children themselves, as
    :func:`walk` does; the levels' rows and their ids are freed on return."""
    # The parent row and the last item of each row of each level so far.
    levels = []

    def subset(row: int) -> tuple[str, ...]:
        added = []
        for parents, lasts in reversed(levels):
            added.append(items[lasts[row]].id)
            row = parents[row]
        return parent + (items[run[row]].id, *reversed(added))

    for parents, lasts, p_act in subtree_probabilities(prefix, items, run, w_star):
        levels.append((parents, lasts))
        consider(len(parent) + 1 + len(levels), p_act, subset)


def walk(
    items: Sequence[EvidenceVariable],
    prefix: Prefix,
    w_star: float,
    parent: tuple[str, ...],
    start: int,
    consider: Consider,
) -> None:
    """Pass ``consider`` each subset that extends ``parent``, whose arrays
    ``prefix`` holds, by items from ``start`` on, one level of subsets at a
    time: ``consider(size, p_act, subset)``, where the level's subsets have
    ``size`` items, ``p_act`` is a (2, rows) array of their (P(act | H),
    P(act | not-H)) and ``subset(row)`` builds a row's ids, in model order,
    until ``consider`` returns.

    The node values all its children with one :func:`child_probabilities`
    call.  Then its children's subtrees, last first, are gathered into runs
    whose levels fit together (:func:`run_fits`), and each run is valued in one
    pass, level by level, by :func:`subtree_probabilities`.  A child whose
    subtree does not fit alone is walked: the node reserves one child
    prefix, writes each such child into it in turn and walks the child's
    subtree; the prefix is freed when the node returns.  So only the
    prefixes of one path from the root coexist with a pass or a node's
    children.  ``consider`` runs with numpy's overflow and invalid-operation
    warnings off, so it may price a level as arrays that overflow, as Python
    floats do silently.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        depth = len(parent)
        rest = items[start:]
        consider(
            depth + 1,
            np.array(list(child_probabilities(prefix, rest, w_star))).reshape(-1, 2).T,
            lambda row: parent + (rest[row].id,),
        )
        # Child j has len(items) - 1 - j later items, so a subtree shrinks as
        # its child's item moves right: the children before ``walked`` are
        # walked, and the rest, last first, are gathered into runs.  The
        # child that ends in the last item has no children.
        last = len(items) - 1
        walked = start
        while walked < last and not run_fits(depth + 1, last - walked, last - walked):
            walked += 1
        end = last
        for j in reversed(range(walked, last)):
            if not run_fits(depth + 1, last - end + 1, last - j):
                walk_run(items, prefix, w_star, parent, range(j + 1, end), consider)
                end = j + 1
        if end > walked:
            walk_run(items, prefix, w_star, parent, range(walked, end), consider)
        if walked > start:
            child = empty_prefix(depth + 1)
            for j in reversed(range(start, walked)):
                extend(prefix, items[j], out=child)
                walk(items, child, w_star, parent + (items[j].id,), j + 1, consider)


def table_bits(items: Sequence[EvidenceVariable], w_star: float) -> bytes:
    """The action bits of every assignment of ``items``, packed least
    significant bit first: a bit is set exactly when the assignment's weight
    sum reaches ``w_star``.

    The weight sums of the first k items, k = log2 :data:`BLOCK` or fewer,
    are computed once; the remaining items are walked depth first, each
    level one add of an item's weight to the level above, and each leaf, a
    block of 2^k sums, writes its bits at byte offset block * 2^k / 8.
    Every sum is the same left to right sequence of adds as enumerating the
    whole subset, so the bits are identical.  A subset of at most k items is
    one block.  The sums, the bits and the returned copy of them must fit
    the memory budget together (:func:`check_table`).
    """
    check_table(len(items))
    k = min(len(items), BLOCK.bit_length() - 1)
    rest = items[k:]
    table_bytes = ((1 << len(items)) + 7) >> 3
    # levels[0] holds the weight sums of the first k items, doubled in place
    # as extend doubles a prefix; levels[d] adds d more items, one branch
    # each.
    levels = np.empty((len(rest) + 1, 1 << k))
    levels[0, 0] = 0.0
    for i, item in enumerate(items[:k]):
        (_, _, w1), (_, _, w0) = item.record.branches
        np.add(levels[0, : 1 << i], w1, out=levels[0, 1 << i : 2 << i])
        np.add(levels[0, : 1 << i], w0, out=levels[0, : 1 << i])
    acts = np.empty(1 << k, bool)
    bits = np.empty(table_bytes, np.uint8)
    # A block of fewer than 8 entries is the whole table.
    width = len(acts) >> 3 or table_bytes

    # Depth first: a node at depth d writes levels[d] from its parent's
    # levels[d - 1], which no other node writes before the node's subtree is
    # done.  Bit d - 1 of its block index is the branch of item k + d - 1.
    stack = [(0, 0)]
    while stack:
        depth, block = stack.pop()
        if depth:
            (_, _, w1), (_, _, w0) = rest[depth - 1].record.branches
            np.add(levels[depth - 1], w1 if block >> depth - 1 & 1 else w0, out=levels[depth])
        if depth < len(rest):
            stack += [(depth + 1, block | 1 << depth), (depth + 1, block)]
        else:
            np.greater_equal(levels[depth], w_star, out=acts)
            bits[block * width : (block + 1) * width] = np.packbits(acts, bitorder="little")
    return bits.tobytes()
