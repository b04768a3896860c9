"""Net inferential value: lifetime policy value net of processing and memory costs.

For the compute and table policies,

    niv = r * (ev - pc_h * p(H) - pc_nh * p(not-H)) - mc

where the processing costs are linear in the number of evidence items handled
and the memory cost is linear (compute), exponential in the subset size
(table), or proportional to the node count (tree).  Trees carry no processing
cost term: lookup cost is logarithmic and is deliberately ignored, so their
value is ``r * ev - mc``, which is the same formula with zero processing
costs.
"""

from __future__ import annotations

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


def processing_costs(costs: CostModel, policy: Policy) -> tuple[float, float]:
    """Expected per-episode delay costs (given H, given not-H).

    Compute handles all m items at k1/k2 each; a table handles its n compiled
    items at k3/k4 each; tree lookups are costed at zero.
    """
    if isinstance(policy, ComputePolicy):
        return costs.k1 * policy.m, costs.k2 * policy.m
    if isinstance(policy, TablePolicy):
        n = len(policy.subset)
        return costs.k3 * n, costs.k4 * n
    return 0.0, 0.0


def memory_costs(costs: CostModel, policy: Policy) -> float:
    """Memory cost of holding the policy: k5 per cell, k5*k6 per tree node."""
    if isinstance(policy, ComputePolicy):
        return costs.k5 * policy.m
    if isinstance(policy, TablePolicy):
        n = len(policy.subset)
        if n > MAX_TABLE_BITS:
            raise CapExceededError(
                f"a table over {n} items needs 2^{n} cells, beyond the "
                f"{MAX_TABLE_BITS}-bit memory-cost budget"
            )
        return costs.k5 * float(1 << n)
    return costs.k5 * costs.k6 * policy.node_count


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
    pc_h, pc_nh, mc, value = _assess(model, policy, ev)
    return NivReport(policy=policy, ev=ev, pc_h=pc_h, pc_nh=pc_nh, mc=mc, niv=value, method=method)


def _assess(model: DiagnosisModel, policy: Policy, ev: float) -> tuple[float, float, float, float]:
    """A policy's processing costs, memory cost and net inferential value, unchecked."""
    pc_h, pc_nh = processing_costs(model.costs, policy)
    mc = memory_costs(model.costs, policy)
    return pc_h, pc_nh, mc, model.costs.r * (ev - pc_h * model.p_h - pc_nh * (1.0 - model.p_h)) - mc


def table_niv(model: DiagnosisModel, subset: tuple[str, ...], ev: float) -> float:
    """``niv(model, TablePolicy(subset), ev, method=...).niv``, without checking the subset.

    Subset selection values many candidates whose ids it has already
    resolved, so it calls this once per candidate and builds a
    :class:`NivReport` only for the subset it returns.  A table over more
    than ``MAX_TABLE_BITS`` items is refused, as :func:`niv` refuses
    it.
    """
    return _assess(model, TablePolicy(subset), ev)[3]


def outranks(value: float, ev: float, evidence_id: str, best: tuple | None) -> bool:
    """Whether a candidate beats ``best``, a tuple that starts (NIV, EV, id), or None.

    The order greedy selection and tree growth share: the higher NIV, then
    the higher expected value, then the smaller id.  A NaN never displaces
    the best.
    """
    return best is None or value > best[0] or (
        value == best[0] and (ev > best[1] or (ev == best[1] and evidence_id < best[2]))
    )


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
