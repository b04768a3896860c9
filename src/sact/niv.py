"""Net inferential value: lifetime policy value net of processing and memory costs.

For every policy,

    niv = r * (ev - pc_h * p(H) - pc_nh * p(not-H)) - mc

where the processing costs are linear in the number of evidence items handled
and the memory cost is linear (compute), exponential in the subset size
(table), or proportional to the node count (tree).  Trees carry no processing
cost term: lookup cost is logarithmic and is deliberately ignored, so their
value is ``r * ev - mc``, which is the same formula with zero processing
costs.

Each policy's costs are written once, in :func:`policy_costs`, and the formula
once, in :func:`_net`.  A table's costs depend only on its size
(:func:`table_costs`), so exhaustive search prices each subset by its item
count through :func:`table_niv`; tree growth reads its node cost from the
same rule.  Greedy selection and tree growth rank candidates by expected
value (:func:`outranks`) and price only the best one: for r > 0, which
``validate_model`` enforces, a table's NIV at a fixed size and a split's NIV
gain are non-decreasing in the expected value even in floats, so the costs
decide only where these searches stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Union

from .errors import CapExceededError, DomainError, MethodError, UnknownEvidenceError
from .model import CostModel, DiagnosisModel, fields_dict

Method = Literal["exact", "gaussian"]

# 2^n memory cost cells overflow any realistic budget long before this, but
# the hard refusal keeps the arithmetic in safely representable territory.
MAX_TABLE_BITS = 62


@dataclass(frozen=True)
class ComputePolicy:
    """Evaluate all m evidence weights at run time and act by the threshold rule."""

    m: int


@dataclass(frozen=True)
class TablePolicy:
    """Act from a precompiled 2^n lookup table over the given subset."""

    subset: tuple[str, ...]


@dataclass(frozen=True)
class TreePolicy:
    """Act from a situation-action tree with the given total node count."""

    node_count: int


Policy = Union[ComputePolicy, TablePolicy, TreePolicy]


def _policy_dict(policy: Policy) -> dict:
    if isinstance(policy, ComputePolicy):
        return {"kind": "compute", "m": policy.m}
    if isinstance(policy, TablePolicy):
        return {"kind": "compile_table", "subset": list(policy.subset)}
    return {"kind": "compile_tree", "node_count": policy.node_count}


@dataclass(frozen=True)
class NivReport:
    """One policy's expected value, costs, and net inferential value."""

    policy: Policy
    ev: float
    pc_h: float
    pc_nh: float
    mc: float
    niv: float
    method: Method

    def to_dict(self) -> dict:
        return {**fields_dict(self), "policy": _policy_dict(self.policy)}


@dataclass(frozen=True)
class PolicyChoice:
    decision: Literal["compute", "compile"]
    margin: float


def table_costs(costs: CostModel, n: int) -> tuple[float, float, float]:
    """A table's (pc_h, pc_nh, mc) over ``n`` items: k3/k4 per item, k5 per each of 2^n cells."""
    if n > MAX_TABLE_BITS:
        raise CapExceededError(
            f"a table over {n} items needs 2^{n} cells, beyond the "
            f"{MAX_TABLE_BITS}-bit memory-cost budget"
        )
    return costs.k3 * n, costs.k4 * n, costs.k5 * float(1 << n)


def policy_costs(costs: CostModel, policy: Policy) -> tuple[float, float, float]:
    """A policy's per-episode delay costs (given H, given not-H) and its memory cost.

    Compute handles all m items at k1/k2 each and holds k5 per item; a table
    is priced by its size alone (:func:`table_costs`); tree lookups are
    costed at zero and each node holds k5*k6.
    """
    if isinstance(policy, ComputePolicy):
        return costs.k1 * policy.m, costs.k2 * policy.m, costs.k5 * policy.m
    if isinstance(policy, TablePolicy):
        return table_costs(costs, len(policy.subset))
    return 0.0, 0.0, costs.k5 * costs.k6 * policy.node_count


def niv(model: DiagnosisModel, policy: Policy, ev: float, *, method: Method) -> NivReport:
    """Assemble the net-inferential-value report for one policy.

    ``ev`` must be the expected value of this same policy on this model, as
    produced by the exact oracle or the Gaussian approximation; the cheap
    consistency checks below catch the common mismatches.
    """
    if method not in ("exact", "gaussian"):
        raise MethodError(f"unknown method {method!r}")
    if isinstance(policy, ComputePolicy):
        if policy.m != len(model.evidence):
            raise DomainError(
                f"compute policy covers {policy.m} items but the model has "
                f"{len(model.evidence)}"
            )
    elif isinstance(policy, TablePolicy):
        known = model.evidence_map()
        for evidence_id in policy.subset:
            if evidence_id not in known:
                raise UnknownEvidenceError(f"unknown evidence id {evidence_id!r}")
        if len(set(policy.subset)) != len(policy.subset):
            raise DomainError("table policy subset contains duplicate ids")
    elif isinstance(policy, TreePolicy):
        if policy.node_count < 1:
            raise DomainError("a tree has at least its root node")
        if method != "exact":
            raise MethodError("tree policies are evaluated exactly; use method='exact'")
    else:
        raise DomainError(f"unknown policy {policy!r}")
    pc_h, pc_nh, mc = policy_costs(model.costs, policy)
    value = _net(model, ev, pc_h, pc_nh, mc)
    return NivReport(policy=policy, ev=ev, pc_h=pc_h, pc_nh=pc_nh, mc=mc, niv=value, method=method)


def _net(model: DiagnosisModel, ev: float, pc_h: float, pc_nh: float, mc: float) -> float:
    """The net inferential value of a policy with this expected value and these costs."""
    return model.costs.r * (ev - pc_h * model.p_h - pc_nh * (1.0 - model.p_h)) - mc


def table_niv(model: DiagnosisModel, n: int, ev: float) -> float:
    """``niv(model, TablePolicy(subset), ev, method=...).niv`` for any subset of ``n`` items.

    A table is priced by its size alone, so subset selection values each
    candidate by its item count, without building a policy, and builds a
    :class:`NivReport` only for the subset it returns.  A table over more
    than ``MAX_TABLE_BITS`` items is refused, as :func:`niv` refuses it.
    """
    return _net(model, ev, *table_costs(model.costs, n))


def finite(value: float, what: str) -> float:
    """``value`` if it is a finite number; otherwise a :class:`DomainError` naming ``what``.

    An infinite or NaN value ranks nothing: on a valid model whose
    utilities, costs or lifetime factor overflow, every candidate ties at
    inf.  Each search step checks the value of the candidate it keeps, so
    such a model is refused instead of valued.
    """
    if not math.isfinite(value):
        raise DomainError(
            f"{what} is {value}, not a finite number: "
            "the model's utilities, costs or r overflow a float"
        )
    return value


def outranks(ev: float, evidence_id: str, best: tuple | None) -> bool:
    """Whether a candidate beats ``best``, a tuple that starts (EV, id), or None.

    The order greedy selection and tree growth share: the higher expected
    value (a table's, or a split's gain), then the smaller id.  A NaN never
    displaces the best, and a NaN best is never displaced.  For r > 0,
    which ``validate_model`` enforces, it is the order by NIV with ties to
    the higher expected value: a table's NIV at a fixed size is
    ``r * (ev - processing) - memory`` and a split's NIV gain is
    ``r * dev - 2 * node cost``, each non-decreasing in the expected value
    even in floats.
    """
    return best is None or ev > best[0] or (ev == best[0] and evidence_id < best[1])


def compare_policies(
    model: DiagnosisModel, compile_report: NivReport, compute_report: NivReport
) -> PolicyChoice:
    """Choose between computing and the candidate compilation.

    Computing wins ties: the decision is "compute" iff
    ``niv_compute >= niv_compile``.  The margin is
    ``niv_compute - niv_compile``.
    """
    margin = compute_report.niv - compile_report.niv
    return PolicyChoice("compute" if margin >= 0.0 else "compile", margin)
