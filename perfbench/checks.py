"""Output checkers for the benchmark, written against numpy alone.

Nothing here imports ``vck_lab``: every check recomputes its answer from the
instance files and reports the program wrote, so a library bug cannot hide
by also being in its check.  Each checker returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

REL_TOL = 1e-9


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _at_most(a: float, b: float) -> bool:
    """a <= b up to float64 rounding, with an absolute floor of 1e-12."""
    return a <= b + REL_TOL * max(abs(b), 1e-3)


def _fraction(text) -> Fraction:
    if isinstance(text, str) and "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(text)


def _wsum(terms: np.ndarray) -> float:
    return math.fsum(terms.ravel().tolist())


def load_functions(doc) -> tuple:
    """(per-part weight vectors, [(name, signature, values)]) of a functions document."""
    weights = [np.array(p["weights"], dtype=np.float64) for p in doc["parts"]]
    sizes = [int(p["size"]) for p in doc["parts"]]
    functions = []
    for rec in doc["functions"]:
        sig = tuple(int(i) for i in rec["signature"])
        vals = np.array(rec["values"], dtype=np.float64).reshape([sizes[i] for i in sig])
        functions.append((rec["name"], sig, vals))
    return weights, functions


def weight_tensor(weights, signature) -> np.ndarray:
    w = np.ones((), dtype=np.float64)
    for i in signature:
        w = np.multiply.outer(w, weights[i])
    return w


def _cylinder(values: np.ndarray, positions, shape) -> np.ndarray:
    """Broadcast a factor living on ``positions`` over the full grid."""
    index = [np.newaxis] * len(shape)
    for p in positions:
        index[p] = slice(None)
    return np.broadcast_to(values[tuple(index)], shape)


# --------------------------------------------------------------------------
# certify: shattering certificates and the verify command


def check_certificate(cert: dict, values: np.ndarray) -> list:
    """Every subset of the box grid is present once, and its witness is in
    range with values <= r on the subset and >= s off it."""
    distinguished = int(cert["distinguished"])
    r = float(_fraction(cert["r"]))
    s = float(_fraction(cert["s"]))
    box = [[int(v) for v in side] for side in cert["box"]]
    searched = [p for p in range(values.ndim) if p != distinguished]
    if len(box) != len(searched):
        return [f"certificate box has {len(box)} sides for {len(searched)} coordinates"]
    for side, pos in zip(box, searched):
        if not side or len(set(side)) != len(side) or \
                any(not 0 <= v < values.shape[pos] for v in side):
            return [f"box side {side} invalid for coordinate {pos}"]
    grid = {pt: i for i, pt in enumerate(itertools.product(*box))}
    table = np.moveaxis(values, distinguished, -1)[np.ix_(*box)].reshape(len(grid), -1)
    problems = []
    masks = set()
    for rec in cert["witnesses"]:
        member = np.zeros(len(grid), dtype=bool)
        for pt in rec["subset"]:
            key = tuple(pt)
            if key not in grid:
                problems.append(f"subset point {key} is not on the box grid")
                continue
            member[grid[key]] = True
        masks.add(sum(1 << int(i) for i in np.flatnonzero(member)))
        b = rec["witness"]
        if type(b) is not int or not 0 <= b < table.shape[1]:
            problems.append(f"witness {b!r} out of range [0, {table.shape[1]})")
            continue
        col = table[:, b]
        if not (np.all(col[member] <= r) and np.all(col[~member] >= s)):
            problems.append(f"witness {b} fails on subset {rec['subset']}")
    if len(masks) != len(cert["witnesses"]):
        problems.append("certificate lists a subset twice")
    if masks != set(range(1 << len(grid))):
        problems.append(f"certificate covers {len(masks)} of {1 << len(grid)} subsets")
    return problems


def check_vcdim_report(report: dict, values: np.ndarray) -> list:
    results = report["comparable"]["results"]
    if results.get("complete") is not True:
        return ["vcdim search did not complete"]
    cert = results.get("certificate")
    if cert is None:
        return [] if results.get("dimension") == 0 else ["missing certificate"]
    problems = check_certificate(cert, values)
    if any(len(side) != results["dimension"] for side in cert["box"]):
        problems.append("certificate box size differs from the reported dimension")
    return problems


def check_verify_report(report: dict) -> list:
    """The job has already required exit code 0; the report must say valid."""
    valid = report["comparable"]["results"].get("valid")
    return [] if valid is True else [f"verify reported valid={valid!r}"]


# --------------------------------------------------------------------------
# box norms


def _corner_view(values: np.ndarray, alpha) -> np.ndarray:
    """f(x^alpha, y) on axes (x^0_1..x^0_m, x^1_1..x^1_m, y), m = len(alpha)."""
    m = len(alpha)
    expanded = values.reshape(values.shape[:m] + (1,) * m + values.shape[m:])
    return np.moveaxis(expanded, list(range(m)), [i + m * a for i, a in enumerate(alpha)])


def box_norm_raw(values: np.ndarray, axis_weights) -> float:
    """Box-norm power by Cauchy-Schwarz on the last coordinate y:

        raw = sum_{x^0, x^1} w(x^0) w(x^1) (sum_y w_y prod_alpha f(x^alpha, y))**2,

    so only the doubled grid of the first n-1 coordinates is materialized.
    """
    m = values.ndim - 1
    wy = axis_weights[-1]
    inner = np.ones(values.shape[:m] * 2 + values.shape[m:], dtype=np.float64)
    for alpha in itertools.product((0, 1), repeat=m):
        inner = inner * _corner_view(values, alpha)
    sums = inner @ wy
    corner_w = weight_tensor(list(axis_weights[:m]) * 2, range(2 * m))
    return _wsum(corner_w * sums * sums)


def check_gowers_report(report: dict, values: np.ndarray, axis_weights) -> list:
    res = report["comparable"]["results"]
    raw = box_norm_raw(values, axis_weights)
    problems = []
    if res["degree"] != values.ndim:
        problems.append(f"degree {res['degree']} != {values.ndim}")
    if not _close(res["raw"], raw):
        problems.append(f"raw {res['raw']!r} differs from the reference {raw!r}")
    if not _close(res["norm"], max(res["raw"], 0.0) ** (1.0 / (1 << values.ndim))):
        problems.append(f"norm {res['norm']!r} is not raw ** (1 / 2**n)")
    return problems


# --------------------------------------------------------------------------
# decompositions


def check_weighted_report(report: dict, values: np.ndarray, w: np.ndarray) -> list:
    """Rebuild sum_i gamma_i prod_I f_i_I from the report; recompute its L2
    error and the best-constant baseline."""
    res = report["comparable"]["results"]
    fit, doc = res["fit"], res["decomposition"]
    shape = values.shape
    approx = np.zeros(shape, dtype=np.float64)
    gamma_total = Fraction(0)
    problems = []
    for term in doc["terms"]:
        gamma = _fraction(term["gamma"])
        gamma_total += gamma
        prod = np.full(shape, float(gamma))
        for fac in term["factors"]:
            pos = [int(p) for p in fac["positions"]]
            if len(pos) > int(doc["k"]):
                problems.append(f"factor on {pos} exceeds arity {doc['k']}")
            fv = np.array(fac["values"], dtype=np.float64).reshape([shape[p] for p in pos])
            if fv.size and (fv.min() < 0.0 or fv.max() > 1.0):
                problems.append(f"factor {fac['name']} leaves [0, 1]")
            prod = prod * _cylinder(fv, pos, shape)
        approx = approx + prod
    diff = values - approx
    error = math.sqrt(max(0.0, _wsum(w * diff * diff)))
    mean = min(1.0, max(0.0, _wsum(w * values)))
    baseline = math.sqrt(max(0.0, _wsum(w * (values - mean) ** 2)))
    if abs(fit["error"] - error) > REL_TOL * max(error, 1e-3):
        problems.append(f"fit error {fit['error']!r} != recomputed {error!r}")
    if not _close(fit["baseline"], baseline):
        problems.append(f"baseline {fit['baseline']!r} != recomputed {baseline!r}")
    if not _at_most(error, baseline):
        problems.append(f"error {error!r} exceeds the baseline {baseline!r}")
    if fit["n"] != len(doc["terms"]):
        problems.append(f"fit reports {fit['n']} terms, decomposition has {len(doc['terms'])}")
    if res["value_range"] != [0.0, float(gamma_total)]:
        problems.append(f"value_range {res['value_range']} != [0, {float(gamma_total)}]")
    return problems


def evaluate_expression(node: dict, leaves: dict, shape) -> np.ndarray:
    op = node["op"]
    if op == "const":
        return np.full(shape, bool(node["value"]))
    if op == "leaf":
        leaf = leaves[node["name"]]
        pos = [int(p) for p in leaf["positions"]]
        vals = np.array(leaf["values"], dtype=np.float64).reshape([shape[p] for p in pos])
        return _cylinder(vals == 1.0, pos, shape)
    if op == "not":
        return ~evaluate_expression(node["arg"], leaves, shape)
    left = evaluate_expression(node["left"], leaves, shape)
    right = evaluate_expression(node["right"], leaves, shape)
    if op == "and":
        return left & right
    if op == "or":
        return left | right
    raise ValueError(f"unknown expression op {op!r}")


def _leaf_count(node: dict) -> int:
    op = node["op"]
    if op == "leaf":
        return 1
    if op == "const":
        return 0
    if op == "not":
        return _leaf_count(node["arg"])
    return _leaf_count(node["left"]) + _leaf_count(node["right"])


def check_boolean_report(report: dict, values: np.ndarray, w: np.ndarray) -> list:
    """Evaluate the expression tree from its leaves and recompute mu(E xor F)."""
    res = report["comparable"]["results"]
    fit, expr = res["fit"], res["expression"]
    problems = []
    for name, leaf in expr["leaves"].items():
        if any(v not in (0.0, 1.0) for v in leaf["values"]):
            problems.append(f"leaf {name} is not a relation")
    mask = evaluate_expression(expr["expr"], expr["leaves"], values.shape)
    error = _wsum(w * np.abs(values - mask))
    if abs(fit["error"] - error) > REL_TOL * max(error, 1e-3):
        problems.append(f"fit error {fit['error']!r} != recomputed {error!r}")
    if fit["n"] != _leaf_count(expr["expr"]):
        problems.append(f"fit reports {fit['n']} leaves, tree has {_leaf_count(expr['expr'])}")
    if not _at_most(error, fit["baseline"]):
        problems.append(f"error {error!r} exceeds the baseline {fit['baseline']!r}")
    return problems


# --------------------------------------------------------------------------
# fiber algebras


def check_fibers_report(report: dict, shape, expected_generators: int) -> list:
    """Atom cells are disjoint and cover the grid; every generator is
    constant on every cell, and distinct cells differ on some generator."""
    res = report["comparable"]["results"]
    family = res["family"]
    problems = []
    if len(family) != expected_generators:
        problems.append(f"{len(family)} generators, expected {expected_generators}")
    cells = [np.array(c, dtype=np.int64) for c in res["partition"]["cells"]]
    total = int(np.prod(shape))
    label = np.full(total, -1, dtype=np.int64)
    for i, cell in enumerate(cells):
        if cell.size == 0 or cell.min() < 0 or cell.max() >= total:
            return problems + [f"cell {i} is empty or leaves the grid"]
        if np.any(label[cell] != -1) or np.unique(cell).size != cell.size:
            return problems + [f"cell {i} overlaps another cell"]
        label[cell] = i
    if np.any(label == -1):
        return problems + [f"cells miss {int(np.sum(label == -1))} grid points"]
    gens = np.array([g["values"] for g in family], dtype=np.float64).reshape(len(family), total)
    if np.any((gens != 0.0) & (gens != 1.0)):
        problems.append("a generator is not a relation")
    reps = gens[:, [int(c[0]) for c in cells]]
    if np.any(gens != reps[:, label]):
        problems.append("a generator is not constant on some cell")
    if np.unique(reps.T, axis=0).shape[0] != len(cells):
        problems.append("two cells carry the same generator pattern")
    return problems


# --------------------------------------------------------------------------
# converse sweep


def check_adversary(report: dict, csv_text: str, d_values) -> list:
    """One finite row per d; norms in [0, 1], scores in [0, 0.5]; the CSV
    agrees with the report's curve."""
    lines = csv_text.strip().split("\n")
    if lines[0] != "d,mean_norm,std,mean_score":
        return [f"unexpected CSV header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(d_values):
        return [f"CSV rows for d={[r[0] for r in rows]}, expected {list(d_values)}"]
    problems = []
    curve = report["comparable"]["results"]["curve"]
    for row, entry in zip(rows, curve):
        norm, std, score = (float(v) for v in row[1:])
        if not all(math.isfinite(v) for v in (norm, std, score)):
            problems.append(f"non-finite value in row {row}")
        elif not (0.0 <= norm <= 1.0 and std >= 0.0 and 0.0 <= score <= 0.5):
            problems.append(f"value out of range in row {row}")
        if (norm, std, score) != (entry["mean_norm"], entry["std_norm"], entry["mean_score"]):
            problems.append(f"CSV row {row} disagrees with the report")
    return problems
