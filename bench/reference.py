"""Independent reference for checking what sact computes.

Nothing here calls the package under test.  Models are handled in their
canonical JSON object form (plain dicts), artifacts are parsed from their
bytes, and every quantity is recomputed from the documented formulas:

* weights ``w_pos = ln(alpha/beta)``, ``w_neg = ln((1-alpha)/(1-beta))``;
* the threshold ``p* = gain_wait / (gain_act + gain_wait)``,
  ``w* = ln(p*/(1-p*)) - ln(p_h/(1-p_h))``;
* act if and only if the weight sum, added left to right in subset (or path)
  order starting from 0.0, reaches ``w*`` (inclusive ``>=``, no epsilon).

Adding in the same order as the documented convention makes every threshold
decision bit-identical to it, so table bits and lookup actions are compared
exactly.  Probabilities are summed with ``math.fsum`` and expected values are
compared with a tolerance (:data:`EV_TOL`).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

# Absolute tolerance on expected values and net inferential values, scaled by
# the model's utility magnitude.  A perturbation of 1e-6 is always caught.
EV_TOL = 1e-9


def tolerance(model: dict) -> float:
    u = model["utilities"]
    scale = max(1.0, *(abs(v) for v in u.values())) * max(1.0, model["costs"]["r"])
    return EV_TOL * scale


def weights(alpha: float, beta: float) -> tuple[float, float]:
    return math.log(alpha / beta), math.log((1.0 - alpha) / (1.0 - beta))


def w_star(model: dict) -> float:
    u = model["utilities"]
    gain_act = u["u_h_d"] - u["u_h_nd"]
    gain_wait = u["u_nh_nd"] - u["u_nh_d"]
    p_star = gain_wait / (gain_act + gain_wait)
    p_h = model["p_h"]
    return math.log(p_star / (1.0 - p_star)) - math.log(p_h / (1.0 - p_h))


def digest(model: dict) -> bytes:
    canonical = json.dumps(model, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).digest()


def compose(model: dict, p_act_h: float, p_act_nh: float) -> float:
    u, p_h = model["utilities"], model["p_h"]
    return p_h * (p_act_h * u["u_h_d"] + (1.0 - p_act_h) * u["u_h_nd"]) + (1.0 - p_h) * (
        p_act_nh * u["u_nh_d"] + (1.0 - p_act_nh) * u["u_nh_nd"]
    )


def evidence(model: dict) -> dict[str, dict]:
    return {item["id"]: item for item in model["evidence"]}


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_subset(model: dict, ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weight sum and probabilities under H and not-H of every assignment.

    Assignment ``k`` gives ``ids[i]`` the value of bit i of k.  The arrays
    double item by item in subset order (false half first), so each sum is
    accumulated left to right from 0.0 and each probability is a running
    product.
    """
    lookup = evidence(model)
    total, p_h, p_nh = np.zeros(1), np.ones(1), np.ones(1)
    for evidence_id in ids:
        a, b = lookup[evidence_id]["alpha"], lookup[evidence_id]["beta"]
        w_pos, w_neg = weights(a, b)
        total = np.concatenate([total + w_neg, total + w_pos])
        p_h = np.concatenate([p_h * (1.0 - a), p_h * a])
        p_nh = np.concatenate([p_nh * (1.0 - b), p_nh * b])
    return total, p_h, p_nh


def subset_eval(model: dict, ids) -> tuple[float, np.ndarray]:
    """Expected value of acting on ``ids`` and the act bit of every assignment."""
    total, p_h, p_nh = enumerate_subset(model, ids)
    acts = total >= w_star(model)
    ev = compose(model, math.fsum(p_h[acts]), math.fsum(p_nh[acts]))
    return ev, acts


def table_niv(model: dict, n: int, ev: float) -> float:
    c, p_h = model["costs"], model["p_h"]
    return c["r"] * (ev - c["k3"] * n * p_h - c["k4"] * n * (1.0 - p_h)) - c["k5"] * float(1 << n)


def compute_niv(model: dict, ev: float) -> float:
    c, p_h, m = model["costs"], model["p_h"], len(model["evidence"])
    return c["r"] * (ev - c["k1"] * m * p_h - c["k2"] * m * (1.0 - p_h)) - c["k5"] * m


def tree_niv(model: dict, nodes: int, ev: float) -> float:
    c = model["costs"]
    return c["r"] * ev - c["k5"] * c["k6"] * nodes


def best_subset_niv(model: dict) -> float:
    """Largest table NIV over every subset, each kept in model order."""
    ids = [item["id"] for item in model["evidence"]]
    best = -math.inf
    for mask in range(1 << len(ids)):
        subset = [ids[i] for i in range(len(ids)) if (mask >> i) & 1]
        best = max(best, table_niv(model, len(subset), subset_eval(model, subset)[0]))
    return best


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def parse_table(blob: bytes) -> tuple[list[str], float, bytes, np.ndarray]:
    """Parse SACT bytes: (subset, w_star_used, model digest, act bits)."""
    if blob[:4] != b"SACT" or blob[4] != 1:
        raise ValueError("bad SACT header")
    n = int.from_bytes(blob[5:7], "little")
    offset, subset = 7, []
    for _ in range(n):
        length = int.from_bytes(blob[offset : offset + 2], "little")
        subset.append(blob[offset + 2 : offset + 2 + length].decode("utf-8"))
        offset += 2 + length
    (w,) = struct.unpack("<d", blob[offset : offset + 8])
    model_digest = blob[offset + 8 : offset + 40]
    packed = np.frombuffer(blob[offset + 40 :], dtype=np.uint8)
    if len(packed) != ((1 << n) + 7) >> 3:
        raise ValueError("SACT bit array has the wrong length")
    bits = np.unpackbits(packed, bitorder="little")[: 1 << n].astype(bool)
    return subset, w, model_digest, bits


def check_table(model: dict, blob: bytes, subset, acts: np.ndarray | None = None) -> list[str]:
    """Compare a serialized table with the reference act bits for ``subset``
    (``acts``, when already computed)."""
    got_subset, w, model_digest, bits = parse_table(blob)
    problems = []
    if got_subset != list(subset):
        problems.append(f"table subset {got_subset} != {list(subset)}")
    if w != w_star(model):
        problems.append(f"table w_star_used {w!r} != {w_star(model)!r}")
    if model_digest != digest(model):
        problems.append("table model digest differs from the model's")
    if not problems:
        if acts is None:
            _, acts = subset_eval(model, got_subset)
        wrong = int(np.count_nonzero(bits != acts))
        if wrong:
            problems.append(f"{wrong} table bits differ from the threshold rule")
    return problems


def walk_tree(model: dict, document: dict) -> tuple[float, int, list[str]]:
    """Expected value and node count of a tree document, and rule violations.

    Every leaf's action must be the threshold rule applied to the weight sum
    along its path, added in path order.
    """
    lookup, u, p_h, thr = evidence(model), model["utilities"], model["p_h"], w_star(model)
    problems: list[str] = []
    terms: list[float] = []

    def walk(node, q_h, q_nh, w, used, nodes):
        if "action" in node:
            act = node["action"] == "D"
            if act != (w >= thr):
                problems.append(f"leaf action {node['action']} contradicts the threshold rule")
            terms.append(p_h * q_h * (u["u_h_d"] if act else u["u_h_nd"]))
            terms.append((1.0 - p_h) * q_nh * (u["u_nh_d"] if act else u["u_nh_nd"]))
            return nodes + 1
        evidence_id = node["test"]
        if evidence_id in used:
            problems.append(f"{evidence_id} repeats along a path")
            return nodes + 1
        item = lookup[evidence_id]
        a, b = item["alpha"], item["beta"]
        w_pos, w_neg = weights(a, b)
        used = used | {evidence_id}
        nodes = walk(node["if_true"], q_h * a, q_nh * b, w + w_pos, used, nodes + 1)
        return walk(node["if_false"], q_h * (1.0 - a), q_nh * (1.0 - b), w + w_neg, used, nodes)

    nodes = walk(document["root"], 1.0, 1.0, 0.0, frozenset(), 0)
    if document["node_count"] != nodes:
        problems.append(f"tree node_count {document['node_count']} != {nodes}")
    if bytes.fromhex(document["model_digest"]) != digest(model):
        problems.append("tree model digest differs from the model's")
    return math.fsum(terms), nodes, problems


def table_action(model: dict, subset, observation: dict) -> str:
    lookup, w = evidence(model), 0.0
    for evidence_id in subset:
        w_pos, w_neg = weights(lookup[evidence_id]["alpha"], lookup[evidence_id]["beta"])
        w += w_pos if observation[evidence_id] else w_neg
    return "D" if w >= w_star(model) else "notD"


def tree_action(model: dict, document: dict, observation: dict) -> tuple[str, list[str]]:
    """Walk a tree document; the action is the threshold rule on the path sum."""
    lookup, node, w, consulted = evidence(model), document["root"], 0.0, []
    while "test" in node:
        evidence_id = node["test"]
        consulted.append(evidence_id)
        w_pos, w_neg = weights(lookup[evidence_id]["alpha"], lookup[evidence_id]["beta"])
        if observation[evidence_id]:
            w, node = w + w_pos, node["if_true"]
        else:
            w, node = w + w_neg, node["if_false"]
    return ("D" if w >= w_star(model) else "notD"), consulted


# ---------------------------------------------------------------------------
# Gaussian approximation and weight profiles
# ---------------------------------------------------------------------------


def gaussian_ev(model: dict, ids) -> float:
    """Normal-approximation EV from summed per-item weight moments."""
    lookup = evidence(model)
    mean_h = var_h = mean_nh = var_nh = 0.0
    for evidence_id in ids:
        a, b = lookup[evidence_id]["alpha"], lookup[evidence_id]["beta"]
        w_pos, w_neg = weights(a, b)
        spread = (w_pos - w_neg) ** 2
        mean_h += a * w_pos + (1.0 - a) * w_neg
        mean_nh += b * w_pos + (1.0 - b) * w_neg
        var_h += a * (1.0 - a) * spread
        var_nh += b * (1.0 - b) * spread
    thr = w_star(model)

    def tail(mean, var):
        if var == 0.0:
            return 1.0 if mean >= thr else 0.0
        return 0.5 * math.erfc(-(mean - thr) / math.sqrt(2.0 * var))

    return compose(model, tail(mean_h, var_h), tail(mean_nh, var_nh))


def decay_weights(intercept: float, slope: float, w_max: float, count: int) -> list[float]:
    """Midpoint quantiles of the density ``max(0, intercept - slope*w)`` on (0, w_max]."""
    support = min(w_max, intercept / slope) if slope > 0.0 else w_max
    mass = intercept * support - 0.5 * slope * support * support
    out = []
    for i in range(1, count + 1):
        q = (i - 0.5) / count
        if slope == 0.0:
            out.append(q * support)
        else:
            out.append((intercept - math.sqrt(max(intercept**2 - 2.0 * slope * q * mass, 0.0))) / slope)
    return out


def loss_rows(profile: dict, p_h: float, utilities: dict) -> list[tuple[int, float, float, float]]:
    """(n, ev_compile, ev_compute, fractional_loss) of the top-n Gaussian curve."""
    ws = decay_weights(profile["intercept"], profile["slope"], profile["w_max"], profile["count"])
    model = {
        "p_h": p_h,
        "utilities": utilities,
        "evidence": [
            {"id": f"x{i}", "alpha": 1.0 / (1.0 + math.exp(-w)), "beta": 1.0 - 1.0 / (1.0 + math.exp(-w))}
            for i, w in enumerate(ws)
        ],
    }
    ranking = [f"x{i}" for i in sorted(range(len(ws)), key=lambda i: -ws[i])]
    values = [gaussian_ev(model, ranking[:n]) for n in range(len(ranking) + 1)]
    ev_compute = values[-1]
    return [(n, v, ev_compute, (ev_compute - v) / ev_compute) for n, v in enumerate(values)]


def moment_rows(profile: dict) -> list[tuple[int, float, float]]:
    """(n, mean_h, var_h) of the summed weight over the top-n items, n = 0 .. m."""
    ws = sorted(decay_weights(profile["intercept"], profile["slope"], profile["w_max"], profile["count"]),
                reverse=True)
    rows, mean_h, var_h = [(0, 0.0, 0.0)], 0.0, 0.0
    for n, w in enumerate(ws, start=1):
        a = 1.0 / (1.0 + math.exp(-w))
        w_pos, w_neg = weights(a, 1.0 - a)
        mean_h += a * w_pos + (1.0 - a) * w_neg
        var_h += a * (1.0 - a) * (w_pos - w_neg) ** 2
        rows.append((n, mean_h, var_h))
    return rows


def check_csv(text: str, header: str, rows: list[tuple]) -> list[str]:
    """Compare a CSV of ``name,n,values...`` rows with reference rows, value by value."""
    lines = text.splitlines()
    if not lines or lines[0] != header or len(lines) != len(rows) + 1:
        return [f"CSV does not start with {header!r} or has the wrong row count"]
    problems = []
    for line, (name, n, *values) in zip(lines[1:], rows):
        fields = line.split(",")
        if fields[0] != name or int(fields[1]) != n:
            problems.append(f"CSV row {line!r} is not {name},{n}")
            continue
        for got, want in zip(fields[2:], values):
            if abs(float(got) - want) > 1e-9 * max(1.0, abs(want)):
                problems.append(f"CSV {name} n={n}: {got} != {want!r}")
    return problems
