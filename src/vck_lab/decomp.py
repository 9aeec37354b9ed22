"""Low-arity cylinder decompositions: evaluation, error metrics, fitters.

Two approximation routes for a k'-ary target using only (<= k)-ary material:

* weighted: g = sum_i gamma_i * prod_I f_i_I(x_I), fitted by greedy term
  addition plus projected alternating least squares (factors clipped to
  [0, 1], coefficients solved by :func:`bounded_least_squares`);
* Boolean: a decision list over cylinder fibers of the target relation,
  grown greedily by symmetric-difference reduction and emitted as an
  and/or/not expression tree.

The existential term counts behind these forms are non-constructive, so the
fitters take explicit budgets and report achieved error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import defaults, rng
from .errors import InvalidArgumentError, NumericalFailureError
from .fibalg import FiberFamilySpec, atoms, fiber_family, project_simple
from .space import (MeasuredFunction, Relation, cylinder, cylinder_product, dyadics,
                    fiber, index_sets, integrate, level_set, weighted_l2, weighted_sum)
from .serialize import parse_fraction, reading, space_from_doc, space_to_doc


@dataclass(frozen=True)
class CylinderTerm:
    """gamma times a product of low-arity factors, keyed by coordinate set."""

    gamma: Fraction
    factors: dict  # tuple positions -> MeasuredFunction on the sub-signature

    def __post_init__(self):
        if not 0 <= self.gamma <= 1:
            raise InvalidArgumentError(f"gamma {self.gamma} outside [0, 1]")
        object.__setattr__(self, "factors",
                           {tuple(k): v for k, v in sorted(self.factors.items())})


@dataclass(frozen=True)
class CylinderDecomposition:
    space: object
    target_signature: tuple
    k: int
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "target_signature", tuple(self.target_signature))
        for term in self.terms:
            for positions, factor in term.factors.items():
                if (any(p not in range(len(self.target_signature)) for p in positions)
                        or list(positions) != sorted(set(positions))):
                    raise InvalidArgumentError(
                        f"factor positions {positions} are not strictly increasing "
                        f"in range({len(self.target_signature)})")
                if len(positions) > self.k:
                    raise InvalidArgumentError(
                        f"factor on {positions} exceeds max arity {self.k}")
                expected = tuple(self.target_signature[p] for p in positions)
                if factor.signature != expected:
                    raise InvalidArgumentError(
                        f"factor signature {factor.signature} != {expected}")

    def value_range(self) -> tuple:
        return 0.0, float(sum((t.gamma for t in self.terms), Fraction(0)))

    def tensor(self) -> np.ndarray:
        shape = self.space.sizes(self.target_signature)
        out = np.zeros(shape, dtype=np.float64)
        for term in self.terms:
            out = out + cylinder_product(
                ((pos, fac.values) for pos, fac in term.factors.items()), shape,
                float(term.gamma))
        return out

    def evaluate(self, point) -> float:
        total = 0.0
        for term in self.terms:
            prod = float(term.gamma)
            for positions, factor in term.factors.items():
                prod *= float(factor.values[tuple(point[p] for p in positions)])
            total += prod
        return total

    def round_coefficients(self, height: int) -> "CylinderDecomposition":
        """Round every gamma to the nearest dyadic of the given height."""
        scale = 2 ** height
        rounded = tuple(
            CylinderTerm(Fraction(round(t.gamma * scale), scale), t.factors)
            for t in self.terms)
        return CylinderDecomposition(self.space, self.target_signature, self.k, rounded)

    def to_doc(self) -> dict:
        doc = space_to_doc(self.space)
        doc.update({
            "target_signature": list(self.target_signature),
            "k": self.k,
            "terms": [{
                "gamma": term.gamma,
                "factors": [{"positions": list(pos), "name": fac.name,
                             "values": fac.values.ravel()}
                            for pos, fac in term.factors.items()],
            } for term in self.terms],
        })
        return doc

    @staticmethod
    @reading("decomposition document")
    def from_doc(doc) -> "CylinderDecomposition":
        space = space_from_doc({"parts": doc["parts"]})
        sig = space.validate_signature(doc["target_signature"])
        terms = []
        for rec in doc["terms"]:
            factors = {}
            for frec in rec["factors"]:
                positions = tuple(int(p) for p in frec["positions"])
                fsig = tuple(sig[p] for p in positions)
                vals = np.array([float(v) for v in frec["values"]],
                                dtype=np.float64).reshape(space.sizes(fsig))
                factors[positions] = MeasuredFunction(space, fsig, vals,
                                                      name=frec["name"])
            terms.append(CylinderTerm(parse_fraction(rec["gamma"]), factors))
        return CylinderDecomposition(space, sig, int(doc["k"]), tuple(terms))


@dataclass(frozen=True)
class FitReport:
    error: float
    n: int
    iterations: int
    seed: int
    baseline: float

    def to_doc(self) -> dict:
        return {"error": self.error, "n": self.n, "iterations": self.iterations,
                "seed": self.seed, "baseline": self.baseline}


def l2_error(f: MeasuredFunction, d: CylinderDecomposition) -> float:
    if tuple(f.signature) != d.target_signature:
        raise InvalidArgumentError("decomposition targets a different signature")
    return weighted_l2(f.space.weight_tensor(f.signature), f.values - d.tensor())


# --------------------------------------------------------------------------
# Boolean cylinder expressions


@dataclass(frozen=True)
class PoolLeaf:
    positions: tuple
    relation: Relation
    name: str


@dataclass(frozen=True)
class BooleanCylinderExpr:
    """Decision list over a pool of cylinder leaves.

    Rule (i, negated, bit) fires where pool[i] holds (fails, when negated)
    and outputs bit; the first rule that fires wins, and ``default`` holds
    where none does.
    """

    pool: tuple     # PoolLeaf per candidate leaf
    rules: tuple    # (pool index, negated, bit), first match wins
    default: bool

    def tensor(self, space, signature) -> np.ndarray:
        shape = space.sizes(signature)
        out = np.full(shape, self.default)
        for i, negated, bit in reversed(self.rules):
            leaf = self.pool[i]
            test = cylinder(leaf.relation.bool_values, leaf.positions, len(shape))
            out = np.where(test != negated, bit, out)
        return out

    def to_doc(self) -> dict:
        """The list as an and/or/not tree: a rule with test t and bit 1
        before the rest is (t or rest), with bit 0 it is (not t and rest);
        the last rule absorbs a default it cannot change (t or 0 is t)."""
        expr = {"op": "const", "value": bool(self.default)}
        for n, (i, negated, bit) in enumerate(reversed(self.rules)):
            test = {"op": "leaf", "name": self.pool[i].name}
            if negated:
                test = {"op": "not", "arg": test}
            if not bit:
                test = {"op": "not", "arg": test}
            if n == 0 and bit != self.default:
                expr = test
            else:
                expr = {"op": "or" if bit else "and", "left": test, "right": expr}
        return {"expr": expr,
                "leaves": {leaf.name: {"positions": list(leaf.positions),
                                       "values": leaf.relation.values.ravel()}
                           for leaf in self.pool}}


def sym_diff(E: MeasuredFunction, expr: BooleanCylinderExpr) -> float:
    """mu(E triangle F) under the space's product measure."""
    if not E.is_boolean():
        raise InvalidArgumentError("sym_diff needs a Boolean relation")
    fmask = expr.tensor(E.space, E.signature)
    diff = np.abs(E.values - fmask.astype(np.float64))
    return weighted_sum(E.space.weight_tensor(E.signature), diff)


_POOL_TUPLES_PER_SET = 8


def sample_fiber_pool(E: MeasuredFunction, k: int, seed: int) -> list:
    """Candidate leaves: low-arity fibers of E at seeded parameter tuples.

    For each coordinate set I, eight distinct tuples fixing the
    complementary coordinates are drawn (all of them when there are fewer);
    duplicate fiber relations keep their first occurrence, so the pool order
    is deterministic for the tie-breaking rule.
    """
    k_prime = E.arity
    leaves = []
    for counter, I in enumerate(index_sets(k_prime, k)):
        other = [p for p in range(k_prime) if p not in I]
        extents = [E.shape[p] for p in other]
        n_tuples = math.prod(extents)
        if n_tuples <= _POOL_TUPLES_PER_SET:
            flat_picks = range(n_tuples)
        else:
            draws = rng.integers(seed, rng.STREAM_POOL, 4 * _POOL_TUPLES_PER_SET,
                                 n_tuples, counter).tolist()
            flat_picks = sorted(dict.fromkeys(draws))[:_POOL_TUPLES_PER_SET]
        seen = set()
        for flat in flat_picks:
            tup = tuple(int(v) for v in np.unravel_index(int(flat), extents))
            sub = fiber(E, dict(zip(other, tup)))
            if sub.values.tobytes() in seen:
                continue
            seen.add(sub.values.tobytes())
            name = f"fib|I={','.join(map(str, I))}|w={','.join(map(str, tup))}"
            leaves.append(PoolLeaf(I, Relation(E.space, sub.signature, sub.values,
                                               name=name), name))
    return leaves


def fit_boolean_cylinders(E: MeasuredFunction, k: int, n_max: int,
                          pool=None, seed: int = 0) -> tuple:
    """Greedy decision-list fit of a relation by cylinder-fiber leaves.

    Rules (leaf, polarity, output bit) are appended front to back.  While a
    rule exists that is homogeneous on the still-undecided region, the one
    with the largest (error reduction, coverage) is taken, lowest leaf index
    on ties; this reaches zero error whenever the target is a decision list
    over the pool.  Otherwise the rule with the largest symmetric-difference
    reduction is taken, and fitting stops when no rule strictly improves.
    """
    if not E.is_boolean():
        raise InvalidArgumentError("fit_boolean_cylinders needs a Boolean relation")
    if E.arity <= k:
        raise InvalidArgumentError(f"target arity {E.arity} must exceed k={k}")
    if n_max < 1:
        raise InvalidArgumentError(f"need n_max >= 1, got n_max={n_max}")
    if pool is None:
        pool = sample_fiber_pool(E, k, seed)
    pool = list(pool)
    if not pool:
        raise InvalidArgumentError("empty candidate pool")

    shape = E.shape
    w = E.space.weight_tensor(E.signature).ravel()
    target = E.values.ravel() == 1.0
    masks = [np.broadcast_to(
        cylinder(leaf.relation.bool_values, leaf.positions, len(shape)),
        shape).ravel() for leaf in pool]

    def mu(mask):
        return weighted_sum(w[mask])

    remaining = np.ones(target.size, dtype=bool)
    decided_err = 0.0
    rules = []

    def default_err(region):
        in_e = mu(region & target)
        out_e = mu(region & ~target)
        return min(in_e, out_e)

    iterations = 0
    baseline = default_err(remaining)
    current = decided_err + default_err(remaining)
    while len(rules) < n_max and current > 0.0:
        iterations += 1
        best_homog = None   # ((reduction, cover), candidate)
        best_any = None     # (new_total, candidate)
        for li, mask in enumerate(masks):
            for negated in (False, True):
                region = remaining & (~mask if negated else mask)
                cover = mu(region)
                if cover <= 0.0:
                    continue
                rest_err = default_err(remaining & ~region)
                for bit in (True, False):
                    mistakes = mu(region & (target != bit))
                    new_total = decided_err + mistakes + rest_err
                    cand = (li, negated, bit, region, mistakes)
                    if mistakes == 0.0:
                        key = (current - new_total, cover)
                        if best_homog is None or key > best_homog[0]:
                            best_homog = (key, cand)
                    if best_any is None or new_total < best_any[0]:
                        best_any = (new_total, cand)
        if best_homog is not None:
            _, (li, negated, bit, region, mistakes) = best_homog
        elif best_any is not None and best_any[0] < current:
            _, (li, negated, bit, region, mistakes) = best_any
        else:
            break
        rules.append((li, negated, bit))
        decided_err += mistakes
        remaining &= ~region
        current = decided_err + default_err(remaining)

    # current is the fit's error: decided mistakes plus the default's
    expr = BooleanCylinderExpr(tuple(pool), tuple(rules),
                               bool(mu(remaining & target) >= mu(remaining & ~target)))
    if current > baseline + defaults.MONOTONE_SLACK:
        raise NumericalFailureError(
            f"boolean fit error {current} exceeds constant baseline {baseline}")
    return expr, FitReport(current, len(rules), iterations, seed, baseline)


# --------------------------------------------------------------------------
# weighted fitting


def bounded_least_squares(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin ||A x - b|| over the box 0 <= x <= 1, exact up to rounding.

    Bounded-variable least squares (Stark & Parker, Comput. Stat. 1995) on
    the triangular factor of A = QR, so each solve is at most n x n and the
    condition number is A's, not its square as with the normal equations
    (which lose near-exact fits).  It starts from the clipped unconstrained
    solution.  Each step heads for the minimizer over the free variables by
    a minimum-norm solve, so rank-deficient A is fine; a variable leaving the
    box stops it and is pinned exactly to 0 or 1.  There, the pinned variable
    most violating optimality is freed; none means optimal.
    """
    Q, R = np.linalg.qr(A)
    d = Q.T @ b
    x = np.clip(np.linalg.lstsq(R, d, rcond=None)[0], 0.0, 1.0)
    pinned = (x == 0.0) | (x == 1.0)
    # gradients below what lstsq's rank cutoff can resolve are rounding noise
    r_norm, d_norm = np.linalg.norm(R), np.linalg.norm(d)
    noise = 8 * max(R.shape) * np.finfo(np.float64).eps * r_norm
    for _ in range(defaults.BVLS_STEP_CAP * (x.size + 1)):
        free = np.flatnonzero(~pinned)
        step = np.linalg.lstsq(R[:, free], d - R @ x, rcond=None)[0]
        target = x[free] + step
        leaving = (target < 0.0) | (target > 1.0)
        if leaving.any():
            room = np.where(step < 0.0, x[free], 1.0 - x[free])
            ratio = np.where(leaving, room / np.where(leaving, np.abs(step), 1.0), np.inf)
            hit = ratio == ratio.min()
            x[free] = np.clip(x[free] + ratio.min() * step, 0.0, 1.0)
            x[free[hit]] = step[hit] > 0.0
            pinned[free[hit]] = True
            continue
        x[free] = target
        gradient = R.T @ (R @ x - d)
        violation = np.where(pinned, np.where(x == 0.0, -gradient, gradient), 0.0)
        if violation.max() <= noise * (r_norm * np.linalg.norm(x) + d_norm):
            return x
        pinned[np.argmax(violation)] = False
    raise NumericalFailureError("bounded least squares did not converge")


def fit_weighted_cylinders(f: MeasuredFunction, k: int, n_max: int,
                           als_iters: int = defaults.ALS_ITERS,
                           seed: int = 0, init=None,
                           init_mode: str = "auto") -> tuple:
    """Greedy residual fitting of sum_i gamma_i * prod_I f_i_I(x_I).

    Each new term is seeded from the dominant pattern of the positive
    residual (or from seeded uniforms in ``init_mode="random"`` and when no
    residual entry is positive), then
    refined by alternating minimization: every factor update is an exact
    per-entry weighted least squares clipped to [0, 1], and the coefficient
    vector is re-solved by bounded least squares after every sweep, so the
    error is non-increasing; a rise beyond tolerance raises.

    ``init`` may carry a decomposition to refine (oracle initialization);
    its terms are taken verbatim before any greedy additions.
    """
    k_prime = f.arity
    if k_prime <= k:
        raise InvalidArgumentError(f"target arity {k_prime} must exceed k={k}")
    if n_max < 1 or als_iters < 0:
        raise InvalidArgumentError(f"need n_max >= 1 and als_iters >= 0, got "
                                   f"n_max={n_max}, als_iters={als_iters}")
    shape = f.shape
    sets = index_sets(k_prime, k)
    w = f.space.weight_tensor(f.signature)
    target = f.values

    mean = min(1.0, max(0.0, integrate(f)))
    baseline = weighted_l2(w, target - mean)

    terms: list = []  # per term, positions -> factor tensor
    gammas: list = []
    prods: list = []  # cached per-term factor products

    def add_term(factors, gamma):
        terms.append(factors)
        gammas.append(gamma)
        prods.append(cylinder_product(factors.items(), shape))

    if init is not None:
        if tuple(init.target_signature) != tuple(f.signature):
            raise InvalidArgumentError("init decomposition targets a different signature")
        for t in init.terms:
            factors = {pos: np.array(fac.values) for pos, fac in t.factors.items()}
            for positions in sets:
                factors.setdefault(
                    positions,
                    np.ones(tuple(shape[p] for p in positions), dtype=np.float64))
            add_term(factors, float(t.gamma))

    def residual(skip=None):
        """target minus every term but ``skip``."""
        return target - sum((g * p for j, (g, p) in enumerate(zip(gammas, prods))
                             if j != skip), np.zeros(shape, dtype=np.float64))

    def current_error():
        return weighted_l2(w, residual())

    sw = np.sqrt(w).ravel()
    b = target.ravel() * sw

    def solve_gammas():
        if not terms:
            return
        A = np.stack([(p.ravel() * sw) for p in prods], axis=1)
        gammas[:] = [float(g) for g in bounded_least_squares(A, b)]

    def update_term(ti):
        """One ALS block: update each factor of term ti in turn.  Nothing
        else changes inside the block, so the weighted residual of the other
        terms is built once, and the term's product after its last factor."""
        wr = w * residual(skip=ti)
        factors = terms[ti]
        for positions in sets:
            # gamma times the other factors, on their broadcast shape
            partial = cylinder_product(((p, v) for p, v in factors.items() if p != positions),
                                       (1,) * k_prime, gammas[ti])
            axes = tuple(p for p in range(k_prime) if p not in positions)
            num = np.sum(wr * partial, axis=axes)
            den = np.sum(w * partial * partial, axis=axes)
            factors[positions] = np.where(
                den > 0.0, np.clip(num / np.maximum(den, 1e-300), 0.0, 1.0),
                factors[positions])
        prods[ti] = cylinder_product(factors.items(), shape)

    def als(sweeps):
        nonlocal iterations
        err = current_error()
        for _ in range(sweeps):
            for ti in range(len(terms)):
                update_term(ti)
            solve_gammas()
            iterations += 1
            new_err = current_error()
            if new_err > err + defaults.MONOTONE_SLACK:
                raise NumericalFailureError(
                    f"alternating minimization error rose {err} -> {new_err}")
            if err - new_err < 1e-14:
                err = new_err
                break
            err = new_err
        return err

    def seeded_term(counter):
        pos_resid = np.maximum(residual(), 0.0)
        if init_mode == "random" or not np.any(pos_resid > 0.0):
            factors = {}
            for ci, positions in enumerate(sets):
                fshape = tuple(shape[p] for p in positions)
                n_entries = int(np.prod(fshape))
                factors[positions] = rng.uniforms(
                    seed, rng.STREAM_INIT, n_entries,
                    (counter << 8) | ci).reshape(fshape)
            return factors
        anchor = np.unravel_index(int(np.argmax(pos_resid)), shape)
        factors = {}
        for positions in sets:
            others = {p: anchor[p] for p in range(k_prime) if p not in positions}
            sl = np.array(pos_resid[tuple(others.get(p, slice(None))
                                          for p in range(k_prime))])
            peak = float(sl.max())
            factors[positions] = (sl / peak if peak > 0.0 else np.ones_like(sl))
        return factors

    iterations = 0
    err = als(als_iters) if terms else current_error()

    counter = 0
    while len(terms) < n_max and err > defaults.FIT_ZERO_TOL:
        counter += 1
        add_term(seeded_term(counter), 0.0)
        solve_gammas()
        new_err = als(als_iters)
        if len(terms) == 1 and init is None and init_mode == "auto":
            # a constant term starts exactly at the baseline; keep the better
            const = {pos: np.ones(tuple(shape[p] for p in pos)) for pos in sets}
            backup = (terms[:], gammas[:], prods[:])
            terms[:] = [const]
            gammas[:] = [mean]
            prods[:] = [cylinder_product(const.items(), shape)]
            alt_err = als(als_iters)
            if alt_err < new_err:
                new_err = alt_err
            else:
                terms[:], gammas[:], prods[:] = backup
        err = new_err

    final_terms = tuple(
        CylinderTerm(Fraction(float(g)),
                     {pos: MeasuredFunction(f.space,
                                            tuple(f.signature[p] for p in pos),
                                            np.array(vals),
                                            name=f"t{i}_{'_'.join(map(str, pos))}")
                      for pos, vals in t.items()})
        for i, (g, t) in enumerate(zip(gammas, terms)))
    decomposition = CylinderDecomposition(f.space, f.signature, k, final_terms)
    final_err = l2_error(f, decomposition)
    if final_err > baseline + defaults.MONOTONE_SLACK:
        raise NumericalFailureError(
            f"weighted fit error {final_err} exceeds constant baseline {baseline}")
    report = FitReport(final_err, len(final_terms), iterations, seed, baseline)
    return decomposition, report


# --------------------------------------------------------------------------
# anchor selection for fiber approximation


@dataclass(frozen=True)
class FiberApproxReport:
    anchors: tuple
    max_error: float
    met_epsilon: bool
    per_fiber: tuple  # (vertex, error) pairs for the final anchor set

    def to_doc(self) -> dict:
        return {"anchors": list(self.anchors), "max_error": self.max_error,
                "met_epsilon": self.met_epsilon,
                "per_fiber": [{"vertex": v, "error": e} for v, e in self.per_fiber]}


def approx_by_fibers(f: MeasuredFunction, eps: float, anchors_budget: int,
                     spec: FiberFamilySpec) -> FiberApproxReport:
    """Greedy anchor selection until every fiber projects within eps.

    For each candidate vertex x of the distinguished (last) coordinate, the
    fiber of f at x is projected onto the algebra generated by the cylinder
    fiber family at (anchors + x) together with the dyadic level sets of the
    anchors' own fibers.  The worst-approximated x joins the anchor list;
    the report is flagged when the budget runs out above eps.
    """
    dist = f.arity - 1
    k = f.arity - 1
    if k < 1:
        raise InvalidArgumentError("need arity >= 2")
    part_size = f.shape[dist]
    anchors: list = []

    def projection_error(x, current):
        generators = fiber_family(
            f, FiberFamilySpec(spec.height, tuple(current) + (x,), spec.params))
        for a in current:
            fa = fiber(f, {dist: a})
            for q in dyadics(spec.height):
                generators.append(level_set(fa, float(q), "<",
                                            name=f"{f.name}[b={a}]<{q}"))
        partition = atoms(generators) if generators else atoms(
            [], space=f.space, signature=f.signature[:k])
        fx = fiber(f, {dist: x})
        _, err = project_simple(fx, partition)
        return err

    while True:
        errors = [(projection_error(x, anchors), x) for x in range(part_size)]
        worst_err, worst_x = max(errors, key=lambda t: (t[0], -t[1]))
        if worst_err <= eps:
            return FiberApproxReport(tuple(anchors), worst_err, True,
                                     tuple((x, e) for e, x in errors))
        if len(anchors) >= anchors_budget:
            return FiberApproxReport(tuple(anchors), worst_err, False,
                                     tuple((x, e) for e, x in errors))
        anchors.append(worst_x)
