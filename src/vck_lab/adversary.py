"""Adversarial measures from random partite patterns and inapproximability.

A high-dimension shattering certificate lets a random (k+1)-partite pattern
be embedded into the function's grid; concentrating each part's measure
uniformly on the embedded vertices (point masses on anchor vertices for the
remaining coordinates) produces an instance whose level sets look like the
random pattern, hence are quasirandom and resist low-arity approximation.
"""

from __future__ import annotations

import os
import pickle
import signal
import statistics
import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import defaults, rng
from .decomp import fit_weighted_restarts
from .errors import InvalidArgumentError, ResourceLimitError, indices, probability
from .gowers import box_norm
from .space import (MeasuredFunction, Part, PartiteSpace, Relation, check_grid,
                    grid_masks, weighted_sum)


def random_patterns(d: int, k: int, p: float, seed: int, trials) -> list:
    """I.i.d. Bernoulli(p) (k+1)-partite patterns on [d]^(k+1), uniform
    parts, one per trial counter, drawn in one call per ARRAY_CAP cells."""
    d, k = indices((d, k), "d and k")
    probability(p)
    check_grid([d] * (k + 1))
    space = PartiteSpace.uniform([d] * (k + 1),
                                 [f"P{i + 1}" for i in range(k + 1)])
    trials, step = list(trials), max(1, defaults.ARRAY_CAP // d ** (k + 1))
    return [Relation(space, tuple(range(k + 1)), v, name=f"H{d}")
            for i in range(0, len(trials), step)
            for v in rng.bernoulli(seed, rng.STREAM_PATTERN, (d,) * (k + 1), p,
                                   trials[i:i + step])]


def random_pattern(d: int, k: int, p: float, seed: int, trial: int = 0) -> Relation:
    """The pattern of one trial counter, as :func:`random_patterns` draws it."""
    return random_patterns(d, k, p, seed, [trial])[0]


def pattern_trials(sizes: int, trials: int) -> list:
    """Per size of a sweep, the counters ``(di << 16) | t`` of its first
    ``trials`` trials; both counts are capped at 2**16, so no two collide."""
    if sizes > 1 << 16 or trials > 1 << 16:
        raise ResourceLimitError(f"sweeps take at most 65536 sizes and trials: {sizes}, {trials}")
    return [range(di << 16, (di << 16) + trials) for di in range(sizes)]


@dataclass(frozen=True)
class AdversarialInstance:
    base: MeasuredFunction          # on the original space
    pattern: Relation               # the (k+1)-ary pattern on [d]^(k+1)
    embedding: dict                 # coordinate position -> tuple of vertices
    anchors: dict                   # coordinate position -> anchor vertex
    replacement: PartiteSpace       # new measures, exact rational weights
    function: MeasuredFunction      # base values on the replacement space


def build_instance(f: MeasuredFunction, cert, H: Relation,
                   anchors=None) -> AdversarialInstance:
    """Replacement measures concentrating on an embedded copy of the pattern.

    ``cert`` is either a ShatteringCertificate for a d-box of f (witnesses
    supply the embedded vertices of the distinguished coordinate, one per
    pattern slice) or an explicit mapping {coordinate -> vertex tuple}.
    Anchor vertices get unit point mass on every non-embedded coordinate.
    Every coordinate and vertex must lie in f's grid.
    """
    # imported here: the adversary sweep itself never reads a certificate
    from .check import ShatteringCertificate

    d = H.shape[0]
    if any(s != d for s in H.shape):
        raise InvalidArgumentError("pattern must have equal part sizes")
    anchors = dict(anchors or {})
    anchors = dict(zip(indices(anchors, "anchor coordinates"),
                       indices(anchors.values(), "anchor vertices")))

    if isinstance(cert, ShatteringCertificate):
        box_positions = [p for p in range(f.arity) if p != cert.distinguished]
        if len(H.shape) != len(box_positions) + 1 or len(cert.box) != len(box_positions):
            raise InvalidArgumentError(
                f"pattern arity {len(H.shape)} does not match certificate "
                f"box dimension {len(cert.box)} + 1")
        if any(len(side) != d for side in cert.box):
            raise InvalidArgumentError("certificate box sides must match pattern size")
        masks = grid_masks(H.values.reshape(-1, d) == 1.0)
        witnesses = dict(cert.witnesses)
        if any(mask not in witnesses for mask in masks):
            raise InvalidArgumentError(
                "certificate does not cover every pattern slice; "
                "it must witness all subsets of the box grid")
        embedding = dict(zip(box_positions, cert.box))
        embedding[cert.distinguished] = tuple(witnesses[mask] for mask in masks)
    else:
        given = dict(cert)
        embedding = dict(zip(indices(given, "embedding coordinates"),
                             (indices(side, "embedded vertices") for side in given.values())))
        if len(embedding) != len(H.shape):
            raise InvalidArgumentError(
                f"embedding fixes {len(embedding)} coordinates for a "
                f"{len(H.shape)}-ary pattern")
        if any(len(side) != d for side in embedding.values()):
            raise InvalidArgumentError("embedded vertex tuples must match pattern size")

    missing = set(range(f.arity)) - set(embedding) - set(anchors)
    if missing:
        raise InvalidArgumentError(f"anchors must cover coordinates {sorted(missing)}")
    for p, vertices in [*embedding.items(), *((p, (v,)) for p, v in anchors.items())]:
        if not 0 <= p < f.arity or any(not 0 <= v < f.shape[p] for v in vertices):
            raise InvalidArgumentError(f"coordinate {p}, vertices {vertices}: outside the "
                                       f"grid of shape {f.shape}")

    new_parts = []
    for pos, part in enumerate(f.space.parts):
        part_positions = [p for p in range(f.arity) if f.signature[p] == pos]
        weights = [Fraction(0)] * part.size
        touched = False
        for p in part_positions:
            if p in embedding:
                for v in embedding[p]:
                    weights[v] += Fraction(1, d)
                touched = True
            elif p in anchors:
                weights[anchors[p]] += Fraction(1)
                touched = True
        if not touched:
            weights = list(part.weights)
        else:
            total = sum(weights, Fraction(0))
            weights = [w / total for w in weights]
        new_parts.append(Part(part.name, part.size, tuple(weights)))
    replacement = PartiteSpace(tuple(new_parts))
    replaced = MeasuredFunction(replacement, f.signature, f.values,
                                name=f.name, signed=f.signed)
    return AdversarialInstance(f, H, embedding, anchors, replacement, replaced)


def pattern_norm(H: Relation) -> float:
    """Box norm of the centered pattern indicator under uniform measure."""
    centered = MeasuredFunction(H.space, H.signature, H.values - 0.5,
                                name=f"{H.name}-1/2", signed=True)
    return box_norm(centered).norm


def quasirandomness_curve(k: int, d_values, trials: int, seed: int,
                          p: float = 0.5) -> list:
    """Per-d mean and standard deviation of the centered-pattern box norm.

    Means are expected to decrease in d; adjacent inversions only warn (they
    are flagged against one standard deviation, never fatal).
    Returns rows ``{"d", "mean_norm", "std_norm"}``.
    """
    k, trials = indices((k, trials), "k and trials")
    if trials < 1:
        raise InvalidArgumentError(f"need trials >= 1, got {trials}")
    d_values = list(d_values)
    rows = []
    for d, counters in zip(d_values, pattern_trials(len(d_values), trials)):
        norms = [pattern_norm(H) for H in random_patterns(d, k, p, seed, counters)]
        mean = weighted_sum(norms) / len(norms)
        std = statistics.pstdev(norms) if len(norms) > 1 else 0.0
        rows.append({"d": int(d), "mean_norm": mean, "std_norm": std})
    for prev, cur in zip(rows, rows[1:]):
        if cur["mean_norm"] > prev["mean_norm"]:
            gap = cur["mean_norm"] - prev["mean_norm"]
            warnings.warn(
                f"quasirandomness means inverted at d={cur['d']} "
                f"(+{gap:.3e}, std {cur['std_norm']:.3e})", stacklevel=2)
    return rows


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _group_fits(task) -> list:
    """Per function of one group, (best error, ALS sweeps, BVLS steps) over
    its restarts: one batched weighted fit of every restart of every
    function."""
    fs, k, N, restart_args = task
    results = []
    for fits in fit_weighted_restarts(fs, k, N, restart_args):
        reports = [report for _, report in fits]
        results.append((min(report.error for report in reports),
                        sum(report.iterations for report in reports),
                        sum(report.bvls_steps for report in reports)))
    return results


_RECORD = 4  # bytes per group number in the queue


def _take_groups(tasks, processes: int, queue: tuple):
    """Yield (group number, its fits) for each group this process takes
    from the queue.  The queue pipe holds one number per process: whoever
    takes group g puts back g + processes, so each number is taken once,
    in order but for races between the processes, and the numbers from
    len(tasks) on stop one process each."""
    read_end, write_end = queue
    while True:
        g = int.from_bytes(os.read(read_end, _RECORD), "little")
        if g >= len(tasks):
            return
        os.write(write_end, (g + processes).to_bytes(_RECORD, "little"))
        yield g, _group_fits(tasks[g])


def _fit_in_child(tasks, processes: int, queue: tuple, out: int) -> None:
    """A forked child's life: fit the groups it takes, send back its fits
    or the exception that stopped it, and exit without returning into the
    parent's stack."""
    try:
        try:
            payload = dict(_take_groups(tasks, processes, queue))
        except Exception as exc:  # re-raised in the parent
            payload = exc
        with open(out, "wb") as pipe:
            pickle.dump(payload, pipe)
    finally:
        os._exit(0)


def _fit_groups(tasks, processes: int, meanwhile) -> list:
    """Each task's fits, in task order, made by this process and processes
    - 1 forked children, which take group numbers, largest grid first, from
    one pipe.  ``meanwhile`` runs here while the children start fitting.
    A child's exception is raised here, and every child is reaped on every
    path."""
    queue = os.pipe()
    children = {}  # pid -> read end of the pipe its fits come back on
    try:
        os.write(queue[1], b"".join(g.to_bytes(_RECORD, "little") for g in range(processes)))
        for _ in range(processes - 1):
            read_end, write_end = os.pipe()
            # fork, not spawn or forkserver: those import numpy and the
            # library again in every child, about 0.25 s each, the time of
            # several fits.  The library starts no threads; OpenBLAS stops
            # its own around a fork.
            pid = os.fork()
            if pid == 0:
                os.close(read_end)
                _fit_in_child(tasks, processes, queue, write_end)
            os.close(write_end)
            children[pid] = read_end
        if meanwhile is not None:
            meanwhile()
        fits = dict(_take_groups(tasks, processes, queue))
        for pid, read_end in list(children.items()):
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            os.close(read_end)
            del children[pid]
            if not data:
                raise ResourceLimitError(f"a fit process ended without its fits (exit "
                                         f"{os.waitstatus_to_exitcode(status)})")
            payload = pickle.loads(data)  # written by the child above
            if isinstance(payload, Exception):
                raise payload
            fits.update(payload)
        return [fits[g] for g in range(len(tasks))]
    finally:
        for pid, read_end in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)
        for end in queue:
            os.close(end)


def inapproximability_scores(functions, k: int, N: int, seed: int = 0,
                             restarts: int = defaults.SCORE_RESTARTS,
                             meanwhile=None) -> tuple:
    """:func:`inapproximability_score` of each function, fitted together.

    The functions that share a space and a signature form one group, and
    all restarts of all of a group's functions are one batched weighted fit
    (:func:`~vck_lab.decomp.fit_weighted_restarts`, every restart in
    lockstep, each equal to its serial fit bit for bit).  Each group is one
    independent, deterministic task, and the tasks are taken largest grid
    first, so the longest fits start earliest.  One process fits per CPU
    this process may run on, at most one per group: this one and forked
    children.  ``meanwhile``, if given, is called with no arguments in this
    process while the children start fitting, before it fits itself.  The
    scores are returned in the order of ``functions``: they do not depend on
    how many processes ran.  Returns ``(scores, diagnostics)``; the
    diagnostics hold the ``workers`` (processes that fitted), the ``fits``
    made (functions times restarts), the ``als_sweeps`` they took and the
    ``bvls_steps`` of their coefficient solves.
    """
    k, N, restarts = indices((k, N, restarts), "k, N and restarts")
    if restarts < 1:
        raise InvalidArgumentError(f"need restarts >= 1, got {restarts}")
    seeds = rng.raw64(seed, rng.STREAM_SCORE, 1, range(restarts))[:, 0].tolist()
    restart_args = [(s, "auto" if r == 0 else "random") for r, s in enumerate(seeds)]
    functions = list(functions)
    groups = {}  # (space, signature) -> indices into functions, in order
    for i, f in enumerate(functions):
        groups.setdefault((f.space, tuple(f.signature)), []).append(i)
    members = sorted(groups.values(), key=lambda idx: -functions[idx[0]].values.size)
    tasks = [([functions[i] for i in idx], k, N, restart_args) for idx in members]
    workers = max(1, min(_cpu_count(), len(tasks)))
    by_function = [None] * len(functions)
    for idx, fits in zip(members, _fit_groups(tasks, workers, meanwhile)):
        for i, fit in zip(idx, fits):
            by_function[i] = fit
    scores = [float(error) for error, _, _ in by_function]
    diagnostics = {"workers": workers, "fits": len(functions) * restarts,
                   "als_sweeps": sum(sweeps for _, sweeps, _ in by_function),
                   "bvls_steps": sum(steps for _, _, steps in by_function)}
    return scores, diagnostics


def inapproximability_score(f: MeasuredFunction, k: int, N: int, seed: int = 0,
                            restarts: int = defaults.SCORE_RESTARTS) -> float:
    """Best (lowest) low-arity fit error of f under its space's measure (an
    instance's replacement measure for ``AdversarialInstance.function``),
    minimized over restarts; higher means harder to approximate.

    Restart 0 uses the deterministic residual initialization, later restarts
    use seeded random factor initializations on derived streams.
    """
    return inapproximability_scores([f], k, N, seed, restarts)[0][0]
