"""Independent definition-literal oracles shared by module and acceptance tests.

These implementations stay deliberately naive (set enumeration, quadruple
loops) and never call the library code paths they are used to check.  Five
exceptions build on one library piece each: :func:`vc_k_oracle` asks
``check_shattered`` about every box in turn, :func:`covered_bound_oracle`
counts on a level scan's witness table by sorting,
:func:`inapproximability_score_oracle` runs every restart fit in turn,
:func:`fit_weighted_cylinders_oracle`, the fitter's full-grid form, solves
its coefficients with ``bounded_least_squares``, which is checked against
:func:`bounded_lstsq_oracle`, and :func:`fiber_family_oracle` and
:func:`fiber_pool_oracle` cut their fibers with ``fiber``.
:func:`approx_by_fibers_oracle` is the anchor search on relations: its
generators come from :func:`fiber_family_oracle` and ``level_set``, and it
partitions and projects with the library's ``atoms`` and ``project_simple``.
:func:`conditional_means_oracle` is the per-cell loop on the library's
``weighted_sum`` and ``AtomPartition.cells``, the reference for the means
taken in one pass over the cell order.
:func:`box_solve_oracle` is the fitter's active-set solve on one problem at
a time, the reference for the one that steps a whole stack of problems
together.
:func:`fit_boolean_cylinders_oracle` is the Boolean fit's first round
loop, on the library's ``weighted_sum`` and ``cylinder``, the reference
for the loop that weighs each leaf's two halves once.
:func:`philox_oracle` is numpy's own Philox bit generator, the reference
for the lab's Philox kernel.
:func:`dumps_canonical_oracle` is the canonical writer's standard path
alone, on the standard library encoder.
"""

import itertools
import json
import math

import numpy as np


def philox_oracle(key, n: int) -> np.ndarray:
    """The first n raw 64-bit words of numpy's Philox4x64-10 under the
    2-word key."""
    return np.random.Philox(key=np.array(key, dtype=np.uint64)).random_raw(n)


def vc1_oracle(matrix) -> int:
    """Classical VC dimension of the column-fiber family over the rows:
    largest d such that some d-element row set A realizes all 2**d subsets
    as A intersected with a fiber."""
    matrix = np.asarray(matrix)
    n_rows, n_cols = matrix.shape
    fibers = [frozenset(np.nonzero(matrix[:, b])[0].tolist()) for b in range(n_cols)]
    best = 0
    for d in range(1, n_rows + 1):
        found = False
        for A in itertools.combinations(range(n_rows), d):
            a_set = frozenset(A)
            if len({a_set & fb for fb in fibers}) == 2 ** d:
                found = True
                break
        if not found:
            break
        best = d
    return best


def naive_box_norm_11(f) -> float:
    """Quadruple-loop box norm for a two-coordinate function."""
    wa = f.space.weight_vector(f.signature[0])
    wb = f.space.weight_vector(f.signature[1])
    v = f.values
    terms = []
    for x0 in range(v.shape[0]):
        for x1 in range(v.shape[0]):
            for y0 in range(v.shape[1]):
                for y1 in range(v.shape[1]):
                    terms.append(wa[x0] * wa[x1] * wb[y0] * wb[y1]
                                 * v[x0, y0] * v[x0, y1] * v[x1, y0] * v[x1, y1])
    return math.fsum(terms) ** 0.25


def _dense_corner_product(f, skip_zero_corner: bool) -> np.ndarray:
    """Product over the 2**n corner patterns on the whole doubled grid, axes
    (x1^0 .. xn^0, x1^1 .. xn^1), flattened to a (cells, cells) matrix."""
    n = f.arity
    prod = np.ones(f.shape + f.shape)
    for alpha in itertools.product((0, 1), repeat=n):
        if skip_zero_corner and not any(alpha):
            continue
        expanded = f.values.reshape(f.shape + (1,) * n)
        prod = prod * np.moveaxis(expanded, list(range(n)),
                                  [i + n * a for i, a in enumerate(alpha)])
    cells = math.prod(f.shape)
    return prod.reshape(cells, cells)


def _dense_weights(f) -> np.ndarray:
    w = np.ones(())
    for part in f.signature:
        w = np.multiply.outer(w, f.space.parts[part].weight_array)
    return w.ravel()


def box_norm_oracle(f) -> float:
    """Raw box-norm power: the compensated sum over the whole doubled grid
    (cells**2 entries) of the product over all corners times both weights."""
    w = _dense_weights(f)
    return math.fsum((_dense_corner_product(f, False) * w[:, None] * w[None, :])
                     .ravel().tolist())


def dual_function_oracle(f) -> np.ndarray:
    """Dual function values: per first-copy point, the compensated weighted
    sum over the second copy of the product over all nonzero corners."""
    w = _dense_weights(f)
    rows = _dense_corner_product(f, True) * w[None, :]
    return np.array([math.fsum(row.tolist()) for row in rows]).reshape(f.shape)


def naive_average_out(f, position) -> np.ndarray:
    """Direct weighted-sum loop over the dropped axis."""
    w = f.space.weight_vector(f.signature[position])
    moved = np.moveaxis(f.values, position, -1)
    out = np.zeros(moved.shape[:-1])
    for idx in itertools.product(*[range(s) for s in moved.shape[:-1]]):
        out[idx] = math.fsum((moved[idx] * w).tolist())
    return out


def traversal_count_oracle(matrix) -> int:
    """Number of (x1, x2, y1, y2) whose four crossings all lie in the relation."""
    matrix = np.asarray(matrix)
    count = 0
    n, m = matrix.shape
    for x1, x2 in itertools.product(range(n), repeat=2):
        for y1, y2 in itertools.product(range(m), repeat=2):
            if all(matrix[x, y] == 1.0 for x in (x1, x2) for y in (y1, y2)):
                count += 1
    return count


def bounded_lstsq_oracle(A, b):
    """min ||A x - b|| over 0 <= x <= 1 by trying every lower/upper/free
    pattern of the variables: the free block is solved by np.linalg.lstsq
    with the others at their bounds, and the best feasible point is kept.

    Some optimum has a free block of full column rank (move along a null
    vector until a variable hits a bound), so its pattern yields it."""
    A, b = np.asarray(A, dtype=np.float64), np.asarray(b, dtype=np.float64)
    n = A.shape[1]
    best_x, best_res = None, math.inf
    for pattern in itertools.product((0.0, 1.0, None), repeat=n):
        free = [i for i, v in enumerate(pattern) if v is None]
        x = np.array([0.0 if v is None else v for v in pattern])
        if free:
            x[free] = np.linalg.lstsq(A[:, free], b - A @ x, rcond=None)[0]
        if np.all((x >= 0.0) & (x <= 1.0)):
            res = float(np.linalg.norm(A @ x - b))
            if res < best_res:
                best_x, best_res = x, res
    return best_x, best_res


def box_solve_oracle(Rb, x0=None):
    """The active-set solve of ``bounded_least_squares`` on one problem:
    ``(x, residual, steps)``.  ``decomp._box_solve`` steps a stack of
    problems together, with the same products and solves for each, and must
    match it on every row bit for bit."""
    from vck_lab import defaults
    from vck_lab.errors import NumericalFailureError

    n = Rb.shape[1] - 1
    R, d = Rb[:n, :n], Rb[:n, n]
    rho = float(Rb[n, n]) if Rb.shape[0] > n else 0.0
    if x0 is None:
        x = np.clip(np.linalg.lstsq(R, d, rcond=None)[0], 0.0, 1.0)
    else:
        x = np.clip(np.array(x0, dtype=np.float64), 0.0, 1.0)
    pinned = (x == 0.0) | (x == 1.0)
    r_norm, d_norm = math.hypot(*R.ravel()), math.hypot(*d)
    noise = 8 * max(R.shape) * np.finfo(np.float64).eps * r_norm
    for steps in range(1, defaults.BVLS_STEP_CAP * (x.size + 1) + 1):
        free = np.flatnonzero(~pinned)
        target = np.linalg.lstsq(R[:, free], d - R @ np.where(pinned, x, 0.0),
                                 rcond=None)[0]
        step = target - x[free]
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
        fit = R @ x - d
        gradient = R.T @ fit
        violation = np.where(pinned, np.where(x == 0.0, -gradient, gradient), 0.0)
        if violation.max() <= noise * (r_norm * math.hypot(*x) + d_norm):
            return x, math.hypot(*fit, rho), steps
        pinned[np.argmax(violation)] = False
    raise NumericalFailureError("bounded least squares did not converge")


def decomposition_value_oracle(decomposition, point) -> float:
    """The value of a ``CylinderDecomposition`` at one grid point, term by
    term and factor by factor: the pointwise check on its ``tensor``."""
    total = 0.0
    for term in decomposition.terms:
        prod = float(term.gamma)
        for positions, factor in term.factors.items():
            prod *= float(factor.values[tuple(point[p] for p in positions)])
        total += prod
    return total


def expression_oracle(node, leaves, shape) -> np.ndarray:
    """Point by point value of an and/or/not expression document (the
    ``expr`` and ``leaves`` of ``BooleanCylinderExpr.to_doc``) on the grid."""
    def value(node, point) -> bool:
        op = node["op"]
        if op == "const":
            return node["value"]
        if op == "leaf":
            leaf = leaves[node["name"]]
            sub_shape = [shape[p] for p in leaf["positions"]]
            sub_point = [point[p] for p in leaf["positions"]]
            return leaf["values"][int(np.ravel_multi_index(sub_point, sub_shape))] == 1.0
        if op == "not":
            return not value(node["arg"], point)
        left, right = value(node["left"], point), value(node["right"], point)
        return left and right if op == "and" else left or right

    return np.array([value(node, point) for point in np.ndindex(*shape)],
                    dtype=bool).reshape(shape)


def expression_leaf_count(node) -> int:
    """Leaf nodes of an expression document."""
    if node["op"] == "leaf":
        return 1
    return sum(expression_leaf_count(node[key]) for key in ("arg", "left", "right")
               if key in node)


def fiber_pool_oracle(E, k, per_set=8) -> list:
    """(name, positions, values) of the Boolean fit's default pool: per
    coordinate set of size 1..k, by size then lexicographic, each tuple of
    the other coordinates in row-major order, the fiber there cut with
    ``fiber`` and kept if unseen, until ``per_set`` are kept."""
    from vck_lab import fiber
    leaves = []
    for size in range(1, k + 1):
        for I in itertools.combinations(range(E.arity), size):
            other = [p for p in range(E.arity) if p not in I]
            seen = []
            for tup in itertools.product(*(range(E.shape[p]) for p in other)):
                values = fiber(E, dict(zip(other, tup))).values.ravel().tolist()
                if values not in seen and len(seen) < per_set:
                    seen.append(values)
                    name = f"fib|I={','.join(map(str, I))}|w={','.join(map(str, tup))}"
                    leaves.append((name, I, values))
    return leaves


def fit_boolean_cylinders_oracle(E, n_max, pool) -> tuple:
    """(rules, default, error, baseline, n, iterations) of the Boolean fit
    over the given pool, by the fitter's first round loop: every rule's
    cover, rest and mistakes summed apart, one ``weighted_sum`` each, and
    the best homogeneous and best overall rules tracked as they come."""
    from vck_lab.space import cylinder, weighted_sum

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

    default = bool(mu(remaining & target) >= mu(remaining & ~target))
    return tuple(rules), default, current, baseline, len(rules), iterations


def atom_cells_oracle(generators, total: int) -> list:
    """Flat grid indices grouped point by point by their row of generator
    memberships, cells ordered by their smallest index."""
    rows = np.stack([g.values.ravel() == 1.0 for g in generators]) if generators \
        else np.zeros((0, total), dtype=bool)
    cells = {}
    for idx in range(total):
        cells.setdefault(rows[:, idx].tobytes(), []).append(idx)
    return sorted(cells.values(), key=lambda c: c[0])


def verify_certificate_oracle(f, cert) -> bool:
    """Every witness condition checked bit by bit against f's values:
    witness b has f <= r on the grid points of its subset, f >= s off it."""
    dist, sides = cert.distinguished, cert.box
    positions = [p for p in range(f.arity) if p != dist]
    grid = list(itertools.product(*sides))
    masks = [mask for mask, _ in cert.witnesses]
    if sorted(masks) != list(range(1 << len(grid))):
        return False
    if not 0 <= dist < f.arity or len(positions) != len(sides):
        return False
    if any(not 0 <= v < f.shape[p] for p, side in zip(positions, sides) for v in side):
        return False
    for mask, b in cert.witnesses:
        if not 0 <= b < f.shape[dist]:
            return False
        for i, point in enumerate(grid):
            index = dict(zip(positions, point))
            index[dist] = b
            value = f.values[tuple(index[p] for p in range(f.arity))]
            if mask >> i & 1:
                if not value <= cert.r:
                    return False
            elif not value >= cert.s:
                return False
    return True


def covered_bound_oracle(scan, combos) -> np.ndarray:
    """``_LevelScan.covered_bound`` by sorting: per box of a (boxes, k, d)
    batch, its witnesses' <= r masks over the box grid as int64 keys, one bit
    per grid cell, counted as 1 plus the changes along each sorted row."""
    n, k, d = combos.shape
    cells = np.zeros((n,) + (1,) * k, dtype=np.int64)
    for j in range(k):
        shape = [n] + [1] * k
        shape[j + 1] = d
        cells = cells + (combos[:, j, :] * scan.strides[j]).reshape(shape)
    cells = cells.reshape(n, -1)
    keys = np.zeros((n, scan.witnesses), dtype=np.int64)
    for i in range(cells.shape[1]):
        keys |= scan.lo[cells[:, i]].astype(np.int64) << i
    keys.sort(axis=1)
    return 1 + np.count_nonzero(keys[:, 1:] != keys[:, :-1], axis=1)


def vc_k_oracle(f, k, distinguished, r=0.5, s=0.5, cap=16):
    """Level search that sends every box, in lexicographic order, through
    check_shattered; (dimension, certificate, complete) as ``vc_k`` returns."""
    from vck_lab import Box, check_shattered

    positions = [p for p in range(f.arity) if p != distinguished]
    best, d = (0, None, True), 1
    while d <= min(f.shape[p] for p in positions):
        if d ** k > cap:
            return best[0], best[1], False
        found = None
        for combo in itertools.product(
                *[itertools.combinations(range(f.shape[p]), d) for p in positions]):
            found = check_shattered(f, Box(combo), distinguished, r, s, cap=cap)
            if found is not None:
                break
        if found is None:
            return best
        best = (d, found, True)
        d += 1
    return best


def inapproximability_score_oracle(f, k, N, seed=0, restarts=5):
    """The serial restart loop: (best fit error over restarts, ALS sweeps and
    BVLS steps of all restarts).  Restart 0 uses the residual
    initialization, later ones seeded random factors."""
    from vck_lab import fit_weighted_cylinders, rng

    best, sweeps, steps = None, 0, 0
    for r in range(restarts):
        sub_seed = int(rng.raw64(seed, rng.STREAM_SCORE, 1, r)[0])
        mode = "auto" if r == 0 else "random"
        _, report = fit_weighted_cylinders(f, k, N, seed=sub_seed, init_mode=mode)
        best = report.error if best is None else min(best, report.error)
        sweeps += report.iterations
        steps += report.bvls_steps
    return float(best), sweeps, steps


def fit_weighted_cylinders_oracle(f, k, n_max, als_iters=25, seed=0, init=None,
                                  init_mode="auto"):
    """The full-grid form of ``fit_weighted_cylinders``: (decomposition, report).

    Each ALS block rebuilds the weighted residual of the other terms and
    updates every factor by its per-entry weighted least squares, a sum over
    the whole grid of the residual times the cylinder product of the term's
    other factors; every sweep ends with a cold-started bounded solve for the
    coefficients and the compensated error of a freshly built residual.  The
    seeding, the constant-term alternative and fallback, and every check are
    the fitter's.
    """
    from fractions import Fraction

    from vck_lab import defaults, rng
    from vck_lab.decomp import (CylinderDecomposition, CylinderTerm, FitReport,
                                bounded_least_squares, l2_error)
    from vck_lab.errors import NumericalFailureError
    from vck_lab.space import (MeasuredFunction, cylinder_product, index_sets,
                               integrate, weighted_l2)

    k_prime = f.arity
    shape = f.shape
    sets = index_sets(k_prime, k)
    w = f.space.weight_tensor(f.signature)
    target = f.values
    mean = min(1.0, max(0.0, integrate(f)))
    baseline = weighted_l2(w, target - mean)
    terms, gammas, prods = [], [], []

    def add_term(factors, gamma):
        terms.append(factors)
        gammas.append(gamma)
        prods.append(cylinder_product(factors.items(), shape))

    if init is not None:
        for t in init.terms:
            factors = {pos: np.array(fac.values) for pos, fac in t.factors.items()}
            for positions in sets:
                factors.setdefault(
                    positions,
                    np.ones(tuple(shape[p] for p in positions), dtype=np.float64))
            add_term(factors, float(t.gamma))

    def residual(skip=None):
        return target - sum((g * p for j, (g, p) in enumerate(zip(gammas, prods))
                             if j != skip), np.zeros(shape, dtype=np.float64))

    def current_error():
        return weighted_l2(w, residual())

    sw = np.sqrt(w).ravel()
    b = target.ravel() * sw

    def solve_gammas():
        if terms:
            A = np.stack([(p.ravel() * sw) for p in prods], axis=1)
            gammas[:] = [float(g) for g in bounded_least_squares(A, b).x]

    def update_term(ti):
        wr = w * residual(skip=ti)
        factors = terms[ti]
        for positions in sets:
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

    def constant_fit():
        const = {pos: np.ones(tuple(shape[p] for p in pos)) for pos in sets}
        terms[:], gammas[:] = [const], [mean]
        prods[:] = [cylinder_product(const.items(), shape)]
        return als(als_iters)

    def decomposition_and_error():
        final_terms = tuple(
            CylinderTerm(Fraction(float(g)),
                         {pos: MeasuredFunction(f.space, tuple(f.signature[p] for p in pos),
                                                np.array(vals))
                          for pos, vals in t.items()})
            for g, t in zip(gammas, terms))
        decomposition = CylinderDecomposition(f.space, f.signature, k, final_terms)
        return decomposition, l2_error(f, decomposition)

    def seeded_term(counter):
        pos_resid = np.maximum(residual(), 0.0)
        factors = {}
        if init_mode == "random" or not np.any(pos_resid > 0.0):
            for ci, positions in enumerate(sets):
                fshape = tuple(shape[p] for p in positions)
                factors[positions] = rng.uniforms(
                    seed, rng.STREAM_INIT, math.prod(fshape),
                    (counter << 8) | ci).reshape(fshape)
            return factors
        anchor = np.unravel_index(int(np.argmax(pos_resid)), shape)
        for positions in sets:
            sl = np.array(pos_resid[tuple(slice(None) if p in positions else anchor[p]
                                          for p in range(k_prime))])
            peak = float(sl.max())
            factors[positions] = sl / peak if peak > 0.0 else np.ones_like(sl)
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
            backup = (terms[:], gammas[:], prods[:])
            alt_err = constant_fit()
            if alt_err < new_err:
                new_err = alt_err
            else:
                terms[:], gammas[:], prods[:] = backup
        err = new_err

    decomposition, final_err = decomposition_and_error()
    if (final_err > baseline + defaults.MONOTONE_SLACK and init is None
            and init_mode == "random"):
        constant_fit()
        decomposition, final_err = decomposition_and_error()
    return decomposition, FitReport(final_err, len(decomposition.terms), iterations, seed,
                                    baseline)


def fiber_family_oracle(f, spec):
    """The per-threshold form of ``fiber_family``: for every threshold q, in
    order, each (index set, substitution, anchor) fiber is cut again from f
    and its level set {< q} spread over the searched grid.  The up-front
    checks repeat the library's; range checks on the substitutions come from
    ``fiber``."""
    from vck_lab import defaults
    from vck_lab.errors import InvalidArgumentError, ResourceLimitError
    from vck_lab.fibalg import family_size
    from vck_lab.space import (Relation, check_array_cap, cylinder, dyadics, fiber,
                               index_sets)

    if not spec.anchors:
        raise InvalidArgumentError("fiber family needs at least one anchor")
    k = f.arity - 1
    if k < 1:
        raise InvalidArgumentError("function must have arity >= 2")
    if len(spec.params) != k:
        raise InvalidArgumentError(
            f"{len(spec.params)} parameter rows for {k} searched coordinates")
    if () in spec.params:
        raise InvalidArgumentError(f"parameter row {spec.params.index(())} is empty")
    dist = f.arity - 1
    bad = [a for a in spec.anchors if not 0 <= a < f.shape[dist]]
    if bad:
        raise InvalidArgumentError(f"anchors must be in [0, {f.shape[dist]}), got {bad[0]}")
    if 2 ** min(spec.height, defaults.ARRAY_CAP.bit_length()) + 1 > defaults.ARRAY_CAP:
        raise ResourceLimitError(f"dyadic height {spec.height} makes 2**{spec.height} + 1 "
                                 f"thresholds (cap {defaults.ARRAY_CAP})")
    check_array_cap(family_size(spec, k) * math.prod(f.shape[:k]), "fiber family")
    out = []
    for q in dyadics(spec.height):
        for I in index_sets(k, k - 1):
            residual = [pos for pos in range(k) if pos not in I]
            for assignment in itertools.product(*[spec.params[i] for i in I]):
                for b in spec.anchors:
                    slice_fn = fiber(f, {dist: b, **dict(zip(I, assignment))})
                    low = slice_fn.values < float(q)
                    vals = np.broadcast_to(cylinder(low, residual, k), f.shape[:k])
                    name = (f"{f.name}<{q.numerator}/{q.denominator}"
                            f"|I={','.join(map(str, I))}"
                            f"|a={','.join(map(str, assignment))}|b={b}")
                    out.append(Relation.from_bool(f.space, f.signature[:k], vals,
                                                  name=name))
    return out


def approx_by_fibers_oracle(f, eps, anchors_budget, height, params):
    """The Relation form of ``approx_by_fibers``: for every candidate x in
    every round, the whole family at (anchors + x) is cut again by
    :func:`fiber_family_oracle`, the anchors' fibers are thresholded by
    ``level_set`` one q at a time, and ``atoms`` stacks the list.  A round
    whose worst x is already an anchor ends the search."""
    from vck_lab.errors import InvalidArgumentError, indices, real_numbers
    from vck_lab.fibalg import FiberApproxReport, FiberFamilySpec, atoms, project_simple
    from vck_lab.space import dyadics, fiber, level_set

    real_numbers([eps], "eps")
    if not 0 <= eps < math.inf:
        raise InvalidArgumentError(f"eps must be finite and >= 0, got {eps}")
    budget, = indices((anchors_budget,), "anchors budget", 0)
    spec = FiberFamilySpec(height, (), params)
    dist = k = f.arity - 1
    anchors = []
    while True:
        errors = []
        for x in range(math.prod(f.shape[dist:])):
            generators = fiber_family_oracle(
                f, FiberFamilySpec(spec.height, tuple(anchors) + (x,), spec.params))
            for a in anchors:
                fa = fiber(f, {dist: a})
                for q in dyadics(spec.height):
                    generators.append(level_set(fa, float(q), name=f"{f.name}[b={a}]<{q}"))
            partition = atoms(generators, f.space, f.signature[:k])
            errors.append((project_simple(fiber(f, {dist: x}), partition)[1], x))
        worst_err, worst_x = max(errors, key=lambda t: (t[0], -t[1]))
        if worst_err <= eps:
            return FiberApproxReport(tuple(anchors), worst_err, True,
                                     tuple((x, e) for e, x in errors))
        if len(anchors) >= budget or worst_x in anchors:
            return FiberApproxReport(tuple(anchors), worst_err, False,
                                     tuple((x, e) for e, x in errors))
        anchors.append(worst_x)


def conditional_means_oracle(indicator, partition, wflat):
    """Per-cell weighted mean, one cell at a time: the cell's flat indices
    from ``partition.cells`` and its two ``weighted_sum``s (0 on null cells)."""
    from vck_lab.space import weighted_sum

    out = np.zeros(len(partition.cells))
    for j, cell in enumerate(partition.cells):
        wsum = weighted_sum(wflat[cell])
        if wsum > 0.0:
            out[j] = weighted_sum(wflat[cell], indicator[cell]) / wsum
    return out


def dumps_canonical_oracle(obj) -> str:
    """Canonical JSON by the standard library encoder alone: sorted keys, no
    spaces, every numpy value by its ``tolist``, a Fraction as "p/q"; the
    encoder's refusals are raised as InvalidArgumentError."""
    from fractions import Fraction

    from vck_lab.errors import InvalidArgumentError

    def plain(value):
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}"
        if not hasattr(value, "tolist"):
            raise InvalidArgumentError(f"cannot serialize {type(value).__name__}")
        return value.tolist()

    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                          allow_nan=False, default=plain)
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot serialize: {exc}") from exc
