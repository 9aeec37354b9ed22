"""Low-arity cylinder decompositions: evaluation, error metrics, fitters.

Two approximation routes for a k'-ary target using only (<= k)-ary material:

* weighted: g = sum_i gamma_i * prod_I f_i_I(x_I), fitted by greedy term
  addition plus projected alternating least squares (factors clipped to
  [0, 1], coefficients solved by :func:`bounded_least_squares`);
* Boolean: a decision list over the first distinct cylinder fibers of the
  target relation, grown greedily by symmetric-difference reduction and
  emitted as an and/or/not expression tree; nothing is drawn at random.

The existential term counts behind these forms are non-constructive, so the
fitters take explicit budgets and report achieved error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from . import defaults, rng
from .errors import InvalidArgumentError, NumericalFailureError, indices, positions_in
from .space import (MeasuredFunction, Relation, cylinder, cylinder_product, index_sets,
                    integrate, row_labels, weighted_l2, weighted_sum)
from .serialize import space_to_doc


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
                positions_in(positions, len(self.target_signature))
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


@dataclass(frozen=True)
class FitReport:
    error: float
    n: int
    iterations: int
    seed: int
    baseline: float
    bvls_steps: int = 0          # diagnostics only: to_doc leaves them out
    sweeps_per_term: tuple = ()  # ALS sweeps run while the fit held i + 1 terms
    sweep_errors: tuple = ()     # each sweep's error, its coefficient solve's residual

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


_POOL_FIBERS_PER_SET = 8


def fiber_pool(E: MeasuredFunction, k: int) -> list:
    """Candidate leaves: per coordinate set I, in ``index_sets`` order, the
    first distinct fibers of E at the tuples that fix the other coordinates,
    in row-major tuple order, at most ``_POOL_FIBERS_PER_SET`` of them."""
    if not E.is_boolean():
        raise InvalidArgumentError("fiber_pool needs a Boolean relation")
    leaves = []
    for I in index_sets(E.arity, k):
        other = [p for p in range(E.arity) if p not in I]
        # one row per tuple of the other coordinates, the fiber there as columns
        rows = np.moveaxis(E.values == 1.0, other, range(len(other))).reshape(
            -1, math.prod(E.shape[p] for p in I))
        _, firsts = np.unique(row_labels(rows), return_index=True)
        for flat in firsts[:_POOL_FIBERS_PER_SET].tolist():
            tup = np.unravel_index(flat, [E.shape[p] for p in other])
            name = f"fib|I={','.join(map(str, I))}|w={','.join(map(str, tup))}"
            leaves.append(PoolLeaf(I, Relation.from_bool(
                E.space, tuple(E.signature[p] for p in I),
                rows[flat].reshape([E.shape[p] for p in I]), name=name), name))
    return leaves


def _budget(arity: int, k, n_max) -> tuple:
    """A fitter's (k, n_max) as ints, refused unless 1 <= k < the target's
    arity and n_max >= 1."""
    k, n_max = indices((k, n_max), "k and n_max")
    if not 1 <= k < arity:
        raise InvalidArgumentError(f"need 1 <= k < target arity {arity}, got k={k}")
    if n_max < 1:
        raise InvalidArgumentError(f"need n_max >= 1, got n_max={n_max}")
    return k, n_max


def fit_boolean_cylinders(E: MeasuredFunction, k: int, n_max: int, pool=None) -> tuple:
    """Greedy decision-list fit of a relation by cylinder-fiber leaves.

    Rules (leaf, polarity, output bit) are appended front to back.  While a
    rule exists that is homogeneous on the still-undecided region, the one
    with the largest (error reduction, coverage) is taken, lowest leaf index
    on ties; this reaches zero error whenever the target is a decision list
    over the pool.  Otherwise the rule with the largest symmetric-difference
    reduction is taken, and fitting stops when no rule strictly improves.
    The pool defaults to :func:`fiber_pool`; nothing is random, so the seed is 0.
    """
    if not E.is_boolean():
        raise InvalidArgumentError("fit_boolean_cylinders needs a Boolean relation")
    k, n_max = _budget(E.arity, k, n_max)
    pool = fiber_pool(E, k) if pool is None else list(pool)
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
        return min(mu(region & target), mu(region & ~target))

    iterations = 0
    current = baseline = default_err(remaining)
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
    return expr, FitReport(current, len(rules), iterations, 0, baseline)


# --------------------------------------------------------------------------
# weighted fitting


_EPS = float(np.finfo(np.float64).eps)


class BoxSolution(NamedTuple):
    x: np.ndarray       # the minimizer, in [0, 1]
    residual: float     # ||A x - b||
    steps: int          # active-set steps taken


def _svd_failed(err, flag):
    raise NumericalFailureError("SVD did not converge in linear least squares")


def _lstsq(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of a stack of problems A x = B,
    in one call of the LAPACK routine (dgelsd) that ``np.linalg.lstsq`` calls
    on each of them, with its default cutoff and error state: bit for bit
    its solutions, without its per-call wrapper."""
    with np.errstate(call=_svd_failed, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return _umath_linalg.lstsq(A, B, _EPS * max(A.shape[-2:]), signature="ddd->ddid")[0]


def _tolerance(R: np.ndarray, d: np.ndarray, x: np.ndarray) -> float:
    """The largest violation of optimality that counts as 0 for one
    problem: gradients below what lstsq's rank cutoff can resolve are
    rounding noise.  Norms by hypot, whose squares cannot underflow to a
    zero tolerance."""
    r_norm = math.hypot(*R.ravel().tolist())
    noise = 8 * max(R.shape) * _EPS * r_norm
    return noise * (r_norm * math.hypot(*x.tolist()) + math.hypot(*d.tolist()))


def _box_solve(Rb: np.ndarray, x0=None) -> tuple:
    """The active-set half of :func:`bounded_least_squares` for a stack of
    problems at once, on the triangular factors ``Rb`` of their [A b]:
    ``(x, residuals, steps)``, a row of ``x`` and an entry of each list per
    problem.  All rows step together until each is optimal.  At each step
    the rows with as many free variables make one stacked solve, and the
    ratio test, clipping, pinning and optimality check run on all rows at
    once.  Every row's products and solves are the ones numpy makes for
    that row alone, so each row equals its own solve bit for bit."""
    rows, n = Rb.shape[0], Rb.shape[2] - 1
    R, d = Rb[:, :n, :n], Rb[:, :n, n]
    rho = Rb[:, n, n].tolist() if Rb.shape[1] > n else [0.0] * rows
    start = _lstsq(R, d[:, :, None])[:, :, 0] if x0 is None else np.asarray(x0, np.float64)
    x = start.clip(0.0, 1.0)
    pinned = (x == 0.0) | (x == 1.0)
    solved, residuals, steps = [None] * rows, [0.0] * rows, [0] * rows
    live = list(range(rows))  # the rows still stepping, in order
    for step in range(1, defaults.BVLS_STEP_CAP * (n + 1) + 1):
        free = ~pinned
        any_pinned = not free.all()
        if not any_pinned:
            # nothing pinned: d - R @ 0 is d exactly
            target = _lstsq(R, d[:, :, None])[:, :, 0]
        else:
            # the free minimizer itself, not x plus a step: its rounding is
            # then independent of where x started
            rhs = d - (R @ np.where(pinned, x, 0.0)[:, :, None])[:, :, 0]
            target = x.copy()  # pinned entries stay put
            # rows with as many free variables solve together, each on its
            # own free columns, in order
            counts = free.sum(axis=1)
            sizes = set(counts.tolist()) - {0}
            for count in sizes:
                members = counts == count
                cells = free & members[:, None] if len(sizes) > 1 else free
                A = R.transpose(0, 2, 1)[cells].reshape(-1, count, R.shape[1])
                target[cells] = _lstsq(A.transpose(0, 2, 1),
                                       rhs[members][:, :, None])[:, :, 0].ravel()
        leaving = (target < 0.0) | (target > 1.0)
        if leaving.any():
            # a variable leaving the box stops its row's step and is pinned
            # exactly; rows without one take their target
            moving = leaving.any(axis=1)
            delta = target - x
            room = np.where(delta < 0.0, x, 1.0 - x)
            ratio = np.where(leaving, room / np.where(leaving, np.abs(delta), 1.0), np.inf)
            least = ratio.min(axis=1, keepdims=True)
            hit = (ratio == least) & moving[:, None]
            least[~moving] = 0.0
            stepped = np.where(pinned, x, (x + least * delta).clip(0.0, 1.0))
            stepped[hit] = delta[hit] > 0.0
            x = np.where(moving[:, None], stepped, target)
            pinned |= hit
            keep, any_pinned = moving.tolist(), True
        else:
            x, keep = target, [False] * len(live)
        fit = (R @ x[:, :, None])[:, :, 0] - d
        if any_pinned:
            gradient = (R.transpose(0, 2, 1) @ fit[:, :, None])[:, :, 0]
            violation = np.where(pinned, np.where(x == 0.0, -gradient, gradient), 0.0)
            worst = violation.max(axis=1).tolist()
        else:
            worst = [0.0] * len(live)
        for i, (row, fit_row, rho_row, moved) in enumerate(zip(live, fit.tolist(), rho, keep)):
            if moved:
                continue
            # a worst violation of 0 meets any tolerance
            if worst[i] <= 0.0 or worst[i] <= _tolerance(R[i], d[i], x[i]):
                solved[row], residuals[row] = x[i], math.hypot(*fit_row, rho_row)
                steps[row] = step
            else:  # free the pinned variable that violates optimality most
                pinned[i, int(violation[i].argmax())] = False
                keep[i] = True
        if not any(keep):
            return np.array(solved), residuals, steps
        if not all(keep):
            kept = np.array(keep)
            R, d, x, pinned = R[kept], d[kept], x[kept], pinned[kept]
            live, rho = ([v for v, k in zip(seq, keep) if k] for seq in (live, rho))
    raise NumericalFailureError("bounded least squares did not converge")


def bounded_least_squares(A: np.ndarray, b: np.ndarray, x0=None) -> BoxSolution:
    """argmin ||A x - b|| over the box 0 <= x <= 1, exact up to rounding.

    Bounded-variable least squares (Stark & Parker, Comput. Stat. 1995) in
    two steps.  First one QR factorization of [A b]: its triangular factor
    holds R (A = QR), d = Q^T b and, below d, rho, the length of b's part
    outside A's range.  So each solve is at most n x n and the condition
    number is A's, not its square as with the normal equations (which lose
    near-exact fits).  Then the active-set solve on that factor.  The
    weighted fitter factors the problems of all its rows (restarts of one or
    more targets) in one stacked call and solves them together, each row
    bit for bit as this one-problem case would.  It starts from x0 clipped
    to the box, or else from the clipped unconstrained solution.  Each step
    heads for the minimizer over the free variables by a minimum-norm solve,
    so rank-deficient A is fine; a variable leaving the box stops it and is
    pinned exactly to 0 or 1.  There, the pinned variable most violating
    optimality is freed; none means optimal.  The residual is returned as
    sqrt(||R x - d||^2 + rho^2), with no pass over A's rows.
    """
    x, residuals, steps = _box_solve(np.linalg.qr(np.column_stack([A, b]), mode="r")[None],
                                     None if x0 is None else [x0])
    return BoxSolution(x[0], residuals[0], steps[0])


@dataclass
class _Run:
    """One restart of a weighted fit: the index of its target, its seed, init
    mode and counters.  Its factors live in a row of a :class:`_Batch`."""

    target: int
    seed: int
    mode: str
    iterations: int = 0
    bvls_steps: int = 0
    sweeps_per_term: list = field(default_factory=list)
    sweep_errors: list = field(default_factory=list)
    rival_of: "_Run | None" = None  # the auto run whose constant first term this is


def _targets(runs) -> list:
    """Each run's target index, to gather per-target arrays by row."""
    return [run.target for run in runs]


def _batched(positions) -> tuple:
    """Factor positions on a grid with a leading batch axis."""
    return (0,) + tuple(p + 1 for p in positions)


class _Batch:
    """Fits that run in lockstep, one per row: every array has a leading row
    axis, and all rows hold the same number of terms.  ``factors`` holds per
    term a dict positions -> factor values, ``gammas`` is (rows, terms),
    ``P`` (rows, grid cells, terms) holds each term's factor product on the
    flat grid, ``resid`` the running residual target - P @ gammas, ``err``
    each row's error."""

    def __init__(self, runs, factors, gammas, P, resid, err):
        self.runs, self.factors, self.gammas = runs, factors, gammas
        self.P, self.resid, self.err = P, resid, err

    def take(self, rows: np.ndarray) -> "_Batch":
        """The rows where the mask ``rows`` holds, as a batch of their own."""
        if rows.all():
            return self
        return _Batch([run for run, keep in zip(self.runs, rows) if keep],
                      [{pos: v[rows] for pos, v in term.items()} for term in self.factors],
                      self.gammas[rows], self.P[rows], self.resid[rows], self.err[rows])

    @staticmethod
    def join(batches) -> "_Batch":
        """The rows of batches with equal term counts, stacked in order."""
        batches = [b for b in batches if b.runs] or batches[:1]
        if len(batches) == 1:
            return batches[0]
        return _Batch([run for b in batches for run in b.runs],
                      [{pos: np.concatenate([b.factors[t][pos] for b in batches])
                        for pos in term} for t, term in enumerate(batches[0].factors)],
                      np.concatenate([b.gammas for b in batches]),
                      np.concatenate([b.P for b in batches]),
                      np.concatenate([b.resid for b in batches]),
                      np.concatenate([b.err for b in batches]))


class _WeightedFit:
    """What the restarts of weighted fits on one space and signature share
    (measure, term budget), each target's values, mean, baseline and b, and
    the steps the restarts take in lockstep, each on a whole batch.  A row
    reads its target's data through its run's ``target`` index."""

    def __init__(self, fs, k: int, n_max: int, als_iters: int, init):
        f = fs[0]
        self.fs, self.k, self.n_max, self.als_iters, self.init = fs, k, n_max, als_iters, init
        self.k_prime = f.arity
        self.shape = f.shape
        self.sets = index_sets(self.k_prime, k)
        self.w = f.space.weight_tensor(f.signature)
        self.targets = np.stack([g.values for g in fs])
        self.means = [min(1.0, max(0.0, integrate(g))) for g in fs]
        self.baselines = [weighted_l2(self.w, g.values - mean)
                          for g, mean in zip(fs, self.means)]
        self.sw = np.sqrt(self.w).ravel()
        self.b = self.targets.reshape(len(fs), -1) * self.sw
        self.weight_vectors = [f.space.weight_vector(part) for part in f.signature]
        # per coordinate, the index that views a (rows, size) array as its
        # cylinder on the batched grid
        self.along = [(slice(None),) + tuple(slice(None) if q == p else None
                                             for q in range(self.k_prime))
                      for p in range(self.k_prime)]
        # per coordinate, its zero-weight vertices (None if there are none)
        self.massless = [z if z.any() else None
                         for z in (wv == 0.0 for wv in self.weight_vectors)]
        self.init_terms = []
        if init is not None:
            if tuple(init.target_signature) != tuple(f.signature):
                raise InvalidArgumentError(
                    "init decomposition targets a different signature")
            for t in init.terms:
                factors = {pos: np.array(fac.values) for pos, fac in t.factors.items()}
                if not set(factors) <= set(self.sets):
                    raise InvalidArgumentError(f"init has a factor of arity above k={k}")
                for positions in self.sets:
                    factors.setdefault(
                        positions,
                        np.ones(tuple(self.shape[p] for p in positions), dtype=np.float64))
                self.init_terms.append((factors, float(t.gamma)))

    def product(self, factors: dict) -> np.ndarray:
        """Every row's product of a term's factors on the grid."""
        rows = len(next(iter(factors.values())))
        return cylinder_product(((_batched(pos), v) for pos, v in factors.items()),
                                (rows,) + self.shape)

    def add_term(self, batch: _Batch, factors: dict, gamma: np.ndarray) -> None:
        """Append one term to every row: factors stacked over the rows, and
        the rows' coefficients."""
        prod = self.product(factors)
        batch.factors.append(factors)
        batch.gammas = np.concatenate([batch.gammas, gamma[:, None]], axis=1)
        batch.P = np.concatenate([batch.P, prod.reshape(len(gamma), -1, 1)], axis=2)
        batch.resid -= gamma.reshape((-1,) + (1,) * self.k_prime) * prod
        for run in batch.runs:
            run.sweeps_per_term.append(0)

    def start(self, runs, constant: bool = False) -> _Batch:
        """Rows for fresh runs, holding the init terms, if any, then, if
        ``constant``, one constant term at their target's mean: without init
        terms such a row starts exactly at its target's baseline."""
        rows, which = len(runs), _targets(runs)
        batch = _Batch(runs, [], np.zeros((rows, 0)), np.zeros((rows, self.sw.size, 0)),
                       self.targets[which], np.zeros(rows))
        for factors, gamma in self.init_terms:
            self.add_term(batch, {pos: np.repeat(v[None], rows, axis=0)
                                  for pos, v in factors.items()}, np.full(rows, gamma))
        if constant:
            self.add_term(batch, {pos: np.ones((rows,) + tuple(self.shape[p] for p in pos))
                                  for pos in self.sets},
                          np.array([self.means[t] for t in which]))
        batch.err = np.array([weighted_l2(self.w, resid) for resid in batch.resid])
        return batch

    def seeded_terms(self, batch: _Batch, counter: int) -> dict:
        """Every row's new term's factors, stacked: the positive residual's dominant
        pattern, or seeded uniforms in random mode or if no residual entry is positive."""
        factors = {pos: np.empty((len(batch.runs),) + tuple(self.shape[p] for p in pos))
                   for pos in self.sets}
        drawn = []
        for i, (run, resid) in enumerate(zip(batch.runs, batch.resid)):
            pos_resid = None if run.mode == "random" else np.maximum(resid, 0.0)
            if pos_resid is None or not np.any(pos_resid > 0.0):
                drawn.append(i)
                continue
            anchor = np.unravel_index(int(np.argmax(pos_resid)), self.shape)
            for positions, stacked in factors.items():
                sl = pos_resid[tuple(slice(None) if p in positions else anchor[p]
                                     for p in range(self.k_prime))]
                peak = float(sl.max())
                stacked[i] = sl / peak if peak > 0.0 else 1.0
        for ci, stacked in enumerate(factors.values() if drawn else ()):
            stacked.reshape(len(stacked), -1)[drawn] = rng.uniforms(
                [batch.runs[i].seed for i in drawn], rng.STREAM_INIT, stacked[0].size,
                (counter << 8) | ci)
        return factors

    def solve(self, batch: _Batch) -> np.ndarray:
        """Every row's coefficients by bounded least squares, warm-started
        from its last ones: one stacked QR, then one active-set solve for
        all rows.  The residuals are rebuilt from them; returns the rows'
        errors, their solves' residual norms."""
        P, which = batch.P, _targets(batch.runs)
        # [A b] of every row, column by column as LAPACK reads it
        Ab = np.empty((P.shape[0], P.shape[2] + 1, P.shape[1]))
        np.multiply(P.transpose(0, 2, 1), self.sw, out=Ab[:, :-1])
        Ab[:, -1] = self.b[which]
        batch.gammas, residuals, steps = _box_solve(
            np.linalg.qr(Ab.transpose(0, 2, 1), mode="r"), batch.gammas)
        batch.resid = (self.targets[which]
                       - (P @ batch.gammas[:, :, None]).reshape(batch.resid.shape))
        for run, s in zip(batch.runs, steps):
            run.bvls_steps += s
        return np.array(residuals)

    def outer(self, vectors) -> np.ndarray:
        """Every row's outer product of one vector per coordinate."""
        # not cylinder_product: on the k = 1 fits' small grids its per-factor
        # transpose and reshape cost more than these precomputed views
        return functools.reduce(np.multiply, (v[a] for v, a in zip(vectors, self.along)))

    def update_vectors(self, batch: _Batch, ti: int) -> None:
        """One ALS block for k = 1: each factor is a vector u_p, and
        w = prod_p w_p, so num = gamma * w_p * (R contracted with w_q * u_q
        for every q != p) and den = gamma**2 * w_p * prod_q sum(w_q * u_q**2);
        w_p and one gamma cancel in num/den.  The contractions of all rows
        are one stacked matrix product each."""
        rows, k_prime = len(batch.runs), self.k_prime
        factors, gamma = batch.factors[ti], batch.gammas[:, ti]
        u = [factors[(p,)] for p in range(k_prime)]
        wu = [wv * v for wv, v in zip(self.weight_vectors, u)]
        norms = [(a[:, None, :] @ v[:, :, None])[:, 0, 0] for a, v in zip(wu, u)]
        for p in range(k_prime):
            scale = gamma * functools.reduce(np.multiply, norms[:p] + norms[p + 1:])
            moving = scale > 0.0
            everyone = moving.all()
            if not everyone:
                if not moving.any():
                    continue
                scale = np.where(moving, scale, 1.0)
            num = batch.resid
            for q in range(k_prime - 1, p, -1):
                num = (num @ wu[q].reshape((rows,) + (1,) * (num.ndim - 3) + (-1, 1)))[..., 0]
            for q in range(p):
                num = (wu[q][:, None, :] @ num.reshape(rows, wu[q].shape[1], -1))[:, 0, :]
            new = np.minimum(np.maximum(u[p] + num.reshape(rows, -1) / scale[:, None], 0.0),
                             1.0)
            if self.massless[p] is not None:
                new[:, self.massless[p]] = u[p][:, self.massless[p]]
            if not everyone:
                new = np.where(moving[:, None], new, u[p])
            step = [gamma[:, None] * (new - u[p]) if q == p else u[q] for q in range(k_prime)]
            batch.resid -= self.outer(step)
            u[p] = factors[(p,)] = new
            if p < k_prime - 1:  # the last factor's norm is not used again
                wu[p] = self.weight_vectors[p] * new
                norms[p] = (wu[p][:, None, :] @ new[:, :, None])[:, 0, 0]
        batch.P[:, :, ti] = self.outer(u).reshape(rows, -1)

    def update_cylinders(self, batch: _Batch, ti: int) -> None:
        """One ALS block for k >= 2: num and den are sums over the grid of
        w * R and w times the other factors' cylinder product."""
        rows, k_prime = len(batch.runs), self.k_prime
        factors = batch.factors[ti]
        gamma = batch.gammas[:, ti].reshape((rows,) + (1,) * k_prime)
        for positions in self.sets:
            # gamma times the other factors, on their broadcast shape
            partial = cylinder_product(((_batched(p), v) for p, v in factors.items()
                                        if p != positions), (rows,) + (1,) * k_prime, gamma)
            axes = tuple(p + 1 for p in range(k_prime) if p not in positions)
            num = np.sum(self.w * batch.resid * partial, axis=axes)
            den = np.sum(self.w * partial * partial, axis=axes)
            old = factors[positions]
            new = np.where(den > 0.0,
                           np.clip(old + num / np.maximum(den, 1e-300), 0.0, 1.0), old)
            batch.resid -= cylinder(new - old, _batched(positions), k_prime + 1) * partial
            factors[positions] = new
        batch.P[:, :, ti] = self.product(factors).reshape(rows, -1)

    def als(self, batch: _Batch, sweeps: int) -> _Batch:
        """Up to ``sweeps`` sweeps of every row from its error; a row whose
        error stops falling (by less than 1e-14) leaves the lockstep and
        keeps its state.  Returns all rows again."""
        terms = len(batch.factors)
        update_term = self.update_vectors if self.k == 1 else self.update_cylinders
        stopped = []
        for _ in range(sweeps):
            if not batch.runs:
                break
            for ti in range(terms):
                update_term(batch, ti)
            new_err = self.solve(batch)
            for run, err, new in zip(batch.runs, batch.err.tolist(), new_err.tolist()):
                run.iterations += 1
                run.sweeps_per_term[terms - 1] += 1
                run.sweep_errors.append(new)
                if new > err + defaults.MONOTONE_SLACK:
                    raise NumericalFailureError(
                        f"alternating minimization error rose {err} -> {new}")
            stop = batch.err - new_err < 1e-14
            batch.err = new_err
            if stop.any():
                stopped.append(batch.take(stop))
                batch = batch.take(~stop)
        return _Batch.join(stopped + [batch])

    def keep_better_first_terms(self, batch: _Batch) -> _Batch:
        """Each auto run keeps the better of its seeded and its constant
        first term (the seeded one on ties); the counters add up."""
        row_of = {id(run): i for i, run in enumerate(batch.runs)}
        keep = np.ones(len(batch.runs), dtype=bool)
        for i, rival in enumerate(batch.runs):
            run = rival.rival_of
            if run is None:
                continue
            j = row_of[id(run)]
            run.iterations += rival.iterations
            run.bvls_steps += rival.bvls_steps
            run.sweeps_per_term[0] += rival.sweeps_per_term[0]
            run.sweep_errors += rival.sweep_errors
            if batch.err[i] < batch.err[j]:
                keep[j] = False
                batch.runs[i] = run
            else:
                keep[i] = False
        return batch.take(keep)

    def run(self, runs) -> list:
        """Greedy term addition with ALS, all runs in lockstep: each round
        adds one term to every run still above FIT_ZERO_TOL and under the
        term budget.  Returns the batches of finished rows."""
        batch = self.start(runs)
        if batch.factors:
            batch = self.als(batch, self.als_iters)
        finished = []
        counter = 0
        while batch.runs:
            going = batch.err > defaults.FIT_ZERO_TOL
            if len(batch.factors) >= self.n_max:
                going[:] = False
            if not going.all():
                finished.append(batch.take(~going))
                batch = batch.take(going)
                if not batch.runs:
                    break
            counter += 1
            self.add_term(batch, self.seeded_terms(batch, counter), np.zeros(len(batch.runs)))
            batch.err = self.solve(batch)
            auto = [run for run in batch.runs if run.mode == "auto"]
            if len(batch.factors) == 1 and self.init is None and auto:
                # the constant first term joins the lockstep as a rival row
                rivals = self.start([_Run(run.target, run.seed, run.mode, rival_of=run)
                                     for run in auto], constant=True)
                batch = self.keep_better_first_terms(
                    self.als(_Batch.join([batch, rivals]), self.als_iters))
            else:
                batch = self.als(batch, self.als_iters)
        return finished

    def report(self, batch: _Batch, i: int) -> tuple:
        """Row i's decomposition and report, after the checks.  A random-mode
        run that ends above the constant baseline falls back to the constant
        fit, alone."""
        run = batch.runs[i]
        baseline = self.baselines[run.target]
        decomposition, final_err = self.decomposition_and_error(batch, i)
        if (final_err > baseline + defaults.MONOTONE_SLACK and self.init is None
                and run.mode == "random"):
            # random factors refined by too few sweeps need not beat the mean;
            # the constant fit is never worse.  Auto mode already kept the better
            # of the two, so there an error above the baseline is a failure.
            run.sweeps_per_term[:] = []
            decomposition, final_err = self.decomposition_and_error(
                self.als(self.start([run], constant=True), self.als_iters), 0)
        if final_err > baseline + defaults.MONOTONE_SLACK:
            raise NumericalFailureError(
                f"weighted fit error {final_err} exceeds constant baseline {baseline}")
        return decomposition, FitReport(
            final_err, len(decomposition.terms), run.iterations, run.seed, baseline,
            run.bvls_steps, tuple(run.sweeps_per_term), tuple(run.sweep_errors))

    def decomposition_and_error(self, batch: _Batch, i: int) -> tuple:
        f = self.fs[batch.runs[i].target]
        final_terms = tuple(
            CylinderTerm(Fraction(float(g)),
                         {pos: MeasuredFunction(f.space,
                                                tuple(f.signature[p] for p in pos),
                                                np.array(vals[i]),
                                                name=f"t{t}_{'_'.join(map(str, pos))}")
                          for pos, vals in term.items()})
            for t, (g, term) in enumerate(zip(batch.gammas[i].tolist(), batch.factors)))
        decomposition = CylinderDecomposition(f.space, f.signature, self.k, final_terms)
        return decomposition, l2_error(f, decomposition)


def fit_weighted_restarts(fs, k: int, n_max: int, restarts,
                          als_iters: int = defaults.ALS_ITERS, init=None) -> list:
    """Weighted fits of the targets ``fs``, which share one space and
    signature, one per target and (seed, init_mode) pair of ``restarts``,
    run in lockstep: every factor step, residual update and coefficient QR
    is one numpy call for all of them, their coefficient solves step
    together, and each row reads its own target, mean, baseline and b.
    Returns per target a list of one ``(decomposition, report)`` pair per
    restart, in order, each the fit that :func:`fit_weighted_cylinders`
    makes of that target and restart alone, bit for bit.  Each batch builds at most ARRAY_CAP entries (rows times
    grid cells times n_max + 1, the coefficient problem's columns); more
    fits run in consecutive batches, target by target, restart by restart.
    """
    fs = list(fs)
    if not fs:
        raise InvalidArgumentError("need at least one target")
    f = fs[0]
    if any(g.space != f.space or tuple(g.signature) != tuple(f.signature) for g in fs):
        raise InvalidArgumentError("targets fitted together need one space and signature")
    k, n_max = _budget(f.arity, k, n_max)
    als_iters, = indices((als_iters,), "als_iters")
    if als_iters < 0:
        raise InvalidArgumentError(f"need als_iters >= 0, got als_iters={als_iters}")
    fit = _WeightedFit(fs, k, n_max, als_iters, init)
    restarts = list(restarts)
    seeds = indices([seed for seed, _ in restarts], "restart seeds")
    per_target = [[_Run(t, seed, mode) for seed, (_, mode) in zip(seeds, restarts)]
                  for t in range(len(fs))]
    runs = [run for target_runs in per_target for run in target_runs]
    # an auto run brings its constant-first-term rival into the first round
    width = [2 if run.mode == "auto" and init is None else 1 for run in runs]
    room = max(1, defaults.ARRAY_CAP // (math.prod(f.shape) * (n_max + 1)))
    results = {}
    start = 0
    while start < len(runs):
        stop = start + 1
        while stop < len(runs) and sum(width[start:stop + 1]) <= room:
            stop += 1
        for batch in fit.run(runs[start:stop]):
            for i, run in enumerate(batch.runs):
                results[id(run)] = fit.report(batch, i)
        start = stop
    return [[results[id(run)] for run in target_runs] for target_runs in per_target]


def fit_weighted_cylinders(f: MeasuredFunction, k: int, n_max: int,
                           als_iters: int = defaults.ALS_ITERS,
                           seed: int = 0, init=None,
                           init_mode: str = "auto") -> tuple:
    """Greedy residual fitting of sum_i gamma_i * prod_I f_i_I(x_I).

    Each new term is seeded from the dominant pattern of the positive
    residual (or from seeded uniforms in ``init_mode="random"`` and when no
    residual entry is positive), then refined by alternating minimization
    on one running residual R = target - sum_i gamma_i * prod_i.  Every
    factor step is the exact per-entry weighted least squares clipped to
    [0, 1], in closed form: old + num/den, where num contracts w*R with
    gamma times the term's other factors and den is the weighted sum of
    their squares; R then takes the step's rank-one change.  For k = 1 every
    factor is a vector and the measure a product, so num is a chain of
    vector contractions of R and den a product of weighted norms; for
    k >= 2, whose factor sets overlap, both are sums over the grid of the
    other factors' cylinder product.  After every sweep the coefficients are
    re-solved by bounded least squares, warm-started from the last ones,
    whose residual norm is the sweep's error, and R is rebuilt from them.
    So the error is non-increasing; a rise beyond tolerance raises.  The
    reported error is recomputed from the final decomposition.  In
    ``init_mode="random"`` without ``init``, a fit that ends above the
    constant baseline is replaced by the constant fit; elsewhere that raises.

    ``init`` may carry a decomposition to refine (oracle initialization);
    its terms are taken verbatim before any greedy additions.  This is the
    one-target, one-restart case of :func:`fit_weighted_restarts`.
    """
    return fit_weighted_restarts([f], k, n_max, [(seed, init_mode)], als_iters, init)[0][0]
