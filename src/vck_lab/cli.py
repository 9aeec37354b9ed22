"""Command-line front end: experiment orchestration and report emission.

:func:`main` writes every subcommand's JSON report, to ``--out`` (``--report``
for decompose, stdout for gen and adversary).  Its ``comparable`` section is
canonical (sorted keys, shortest round-trip floats), so byte-identical across
reruns with the same configuration and seed; wall time and the ``diagnostics``
block (deterministic search counters) live outside it.  Sweeps also emit CSV.
Exit codes: 0 success, 2 invalid input (unreadable paths included),
3 resource limit, 4 numerical failure.  A process runs one BLAS thread unless
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__, defaults
from .errors import InvalidArgumentError, VckLabError
from .serialize import (dumps_canonical, find_function, format_float,
                        functions_from_doc, functions_to_doc, load_json,
                        write_canonical)


def _emit_report(command: str, config: dict, results, seed, out, started: float,
                 diagnostics: dict | None = None) -> None:
    doc = {
        "comparable": {
            "command": command,
            "config": config,
            "library_version": __version__,
            "results": results,
            "seed": seed,
        },
        "wall_time_s": time.perf_counter() - started,
    }
    if diagnostics is not None:
        doc["diagnostics"] = diagnostics
    _write(dumps_canonical(doc) + "\n", out)


def _write(text: str, out) -> None:
    """Write text to the file at ``out``, or to stdout when out is empty."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_params(raw: str | None, allowed: dict) -> dict:
    """key=value pairs, comma separated; list values use 'x' separators."""
    out = {}
    for chunk in (raw or "").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise InvalidArgumentError(f"malformed parameter {chunk!r} (expected key=value)")
        key, value = chunk.split("=", 1)
        if key not in allowed:
            raise InvalidArgumentError(
                f"unknown parameter {key!r}; allowed: {sorted(allowed)}")
        try:
            out[key] = (_ints(value, f"--params {key}", "x") if allowed[key] is list
                        else allowed[key](value))
        except ValueError:
            raise InvalidArgumentError(f"--params {key}: malformed value {value!r}") from None
    return out


def _ints(text: str, flag: str, sep: str = ",") -> list:
    """The integers of a ``sep``-separated list, empty items skipped."""
    try:
        return [int(v) for v in text.split(sep) if v != ""]
    except ValueError:
        raise InvalidArgumentError(f"{flag}: malformed integer list {text!r}") from None


def _load_function(args):
    _, functions = functions_from_doc(load_json(args.input))
    signature = _ints(args.signature, "--signature") if args.signature else None
    return find_function(functions, name=args.function, signature=signature)


# --------------------------------------------------------------------------
# subcommand handlers; each imports the modules it runs, so one process
# loads only its own subcommand's code, and returns its report's (config,
# results, diagnostics or None, exit code) for main to write


# gen kinds and the type of each --params key (list: 'x'-separated integers)
_GEN_KINDS = {
    "membership": {"d": int, "k": int},
    "boolcomb": {"kprime": int, "k": int, "m": int, "sizes": list},
    "parity": {"n": int},
    "quasirandom": {"sizes": list, "signature": list, "p": float},
}


def _cmd_gen(args) -> tuple:
    from .gen import boolean_of_lower_arity, membership_gadget, parity_triple, quasirandom
    from .space import PartiteSpace, check_grid
    params = _parse_params(args.params, _GEN_KINDS[args.kind])
    if args.kind == "membership":
        rel = membership_gadget(params.get("d", 2), params.get("k", 1))
        functions = [rel]
    elif args.kind == "boolcomb":
        result = boolean_of_lower_arity(params.get("kprime", 3), params.get("k", 1),
                                        params.get("m", 2),
                                        params.get("sizes", [5, 5, 5]), seed=args.seed)
        functions = [result.relation] + [rel for _, rel in result.leaves]
    elif args.kind == "parity":
        result = parity_triple(params.get("n", 5), seed=args.seed)
        functions = [result.relation, result.F, result.G, result.H]
    else:
        sizes = params.get("sizes", [4, 4])
        check_grid(sizes)
        space = PartiteSpace.uniform(sizes)
        signature = params.get("signature", list(range(len(sizes))))
        functions = [quasirandom(space, signature, params.get("p", 0.5),
                                 seed=args.seed)]
    write_canonical(args.out, functions_to_doc(functions[0].space, functions))
    return ({"kind": args.kind, "params": args.params or "", "out": args.out},
            {"functions": [f.name for f in functions]}, None, 0)


def _cmd_vcdim(args) -> tuple:
    from .vck import vc_k
    f = _load_function(args)
    k = args.k if args.k is not None else f.arity - 1
    distinguished = args.distinguished if args.distinguished is not None else f.arity - 1
    result = vc_k(f, k, distinguished, args.r, args.s, cap=args.cap)
    results = {
        "dimension": result.dimension,
        "complete": result.complete,
        "certificate": result.certificate.to_doc() if result.certificate else None,
    }
    config = {"input": args.input, "function": f.name, "k": k,
              "distinguished": distinguished, "r": args.r, "s": args.s,
              "cap": args.cap}
    if not result.complete:
        print("warning: search capped; dimension is a certified lower bound",
              file=sys.stderr)
    return (config, results, {"levels": [level.to_doc() for level in result.levels]},
            0 if result.complete else 3)


def _cmd_gowers(args) -> tuple:
    from .gowers import box_norm
    f = _load_function(args)
    config = {"input": args.input, "function": f.name,
              "signature": args.signature or ""}
    return config, box_norm(f).to_doc(), None, 0


def _cmd_fibers(args) -> tuple:
    from .fibalg import FiberFamilySpec, atoms, fiber_family
    f = _load_function(args)
    anchors = _ints(args.anchors, "--anchors")
    if args.params:
        rows = [_ints(row, "--params") for row in args.params.split(";")]
    else:
        rows = [list(range(f.shape[i])) for i in range(f.arity - 1)]
    spec = FiberFamilySpec(args.t, tuple(anchors), tuple(tuple(r) for r in rows))
    family = fiber_family(f, spec)
    partition = atoms(family) if family else None
    results = {
        "family": functions_to_doc(f.space, family)["functions"],
        "partition": partition.to_doc() if partition else None,
    }
    config = {"input": args.input, "function": f.name, "t": args.t,
              "anchors": args.anchors, "params": args.params or ""}
    return config, results, None, 0


def _cmd_decompose(args) -> tuple:
    from .decomp import fit_boolean_cylinders, fit_weighted_cylinders
    if args.mode == "boolean" and args.seed != 0:
        raise InvalidArgumentError("--seed: the boolean fit draws nothing at random")
    f = _load_function(args)
    config = {"input": args.input, "function": f.name, "k": args.k,
              "n_max": args.n_max, "mode": args.mode, "als_iters": args.als_iters}
    diagnostics = None
    if args.mode == "weighted":
        decomposition, report = fit_weighted_cylinders(
            f, args.k, args.n_max, als_iters=args.als_iters, seed=args.seed)
        results = {"fit": report.to_doc(), "decomposition": decomposition.to_doc(),
                   "value_range": list(decomposition.value_range())}
        diagnostics = {"als_sweeps": report.iterations, "bvls_steps": report.bvls_steps,
                       "sweeps_per_term": list(report.sweeps_per_term),
                       "sweep_errors": list(report.sweep_errors)}
    else:
        expr, report = fit_boolean_cylinders(f, args.k, args.n_max)
        results = {"fit": report.to_doc(), "expression": expr.to_doc()}
    return config, results, diagnostics, 0


def _cmd_adversary(args) -> tuple:
    from .adversary import (inapproximability_scores, pattern_trials, quasirandomness_curve,
                            random_patterns)
    # refused before any work; the fits that also check them run last
    for flag, value in (("--k", args.k), ("--trials", args.trials),
                        ("--score-trials", args.score_trials),
                        ("--restarts", args.restarts), ("--n-terms", args.n_terms)):
        if value < 1:
            raise InvalidArgumentError(f"need {flag} >= 1, got {value}")
    d_values = _ints(args.d, "--d")
    if not d_values or min(d_values) < 1:
        raise InvalidArgumentError(f"--d needs one or more sizes >= 1, got {args.d!r}")
    pattern_trials(len(d_values), max(args.trials, args.score_trials))
    score_trials = min(args.score_trials, args.trials)
    patterns = [H for d, counters in zip(d_values, pattern_trials(len(d_values), score_trials))
                for H in random_patterns(d, args.k, args.p, args.seed, counters)]
    rows = []
    # the curve runs here while forked children start on the fits
    scores, diagnostics = inapproximability_scores(
        patterns, args.k, args.n_terms, seed=args.seed, restarts=args.restarts,
        meanwhile=lambda: rows.extend(quasirandomness_curve(
            args.k, d_values, args.trials, args.seed, p=args.p)))
    for di, row in enumerate(rows):
        trial_scores = scores[di * score_trials:(di + 1) * score_trials]
        row["mean_score"] = sum(trial_scores) / len(trial_scores)
    lines = ["d,mean_norm,std,mean_score"]
    for row in rows:
        lines.append(",".join([str(row["d"]), format_float(row["mean_norm"]),
                               format_float(row["std_norm"]),
                               format_float(row["mean_score"])]))
    _write("\n".join(lines) + "\n", args.out)
    config = {"k": args.k, "d": args.d, "trials": args.trials, "p": args.p,
              "n_terms": args.n_terms, "score_trials": score_trials,
              "restarts": args.restarts, "out": args.out}
    return config, {"curve": rows}, diagnostics, 0


def _cmd_verify(args) -> tuple:
    # the checker alone: a verify process imports no numpy and no search code
    from .check import read_certificate, read_instance, shatters
    cert = read_certificate(load_json(args.certificate))
    f = find_function(read_instance(load_json(args.instance)), name=args.function)
    valid = shatters(f.values, f.shape, cert)
    config = {"certificate": args.certificate, "instance": args.instance,
              "function": f.name}
    return config, {"valid": valid}, None, 0 if valid else 2


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vck-lab",
        description="Shattering dimension, box norms, and cylinder decompositions "
                    "on finite measured multipartite spaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand writes its report to args.report: the path of --out or
    # --report, or None for stdout (gen and adversary, whose --out is data)

    # subcommands that read one function of an instance file
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--input", required=True)
    source.add_argument("--function", default=None)
    source.add_argument("--signature", default=None, help="select by signature, e.g. 0,0,1")

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("--kind", required=True, choices=list(_GEN_KINDS))
    p.add_argument("--params", default="",
                   help="key=value pairs, comma separated; lists use 'x' (sizes=5x5x5)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen, report=None)

    p = sub.add_parser("vcdim", parents=[source], help="certified shattering dimension")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--distinguished", type=int, default=None)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--cap", type=int, default=defaults.GRID_CAP)
    p.add_argument("--out", dest="report", metavar="OUT", default=None)
    p.set_defaults(func=_cmd_vcdim)

    p = sub.add_parser("gowers", parents=[source],
                       help="box norm report for a stored function")
    p.add_argument("--out", dest="report", metavar="OUT", default=None)
    p.set_defaults(func=_cmd_gowers)

    p = sub.add_parser("fibers", parents=[source], help="fiber family and atom partition")
    p.add_argument("--t", type=int, default=defaults.DYADIC_HEIGHT)
    p.add_argument("--anchors", required=True, help="comma-separated vertices")
    p.add_argument("--params", default=None,
                   help="per-coordinate vertex rows: '0,1;2,3' (default: all)")
    p.add_argument("--out", dest="report", metavar="OUT", default=None)
    p.set_defaults(func=_cmd_fibers)

    p = sub.add_parser("decompose", parents=[source],
                       help="fit a low-arity cylinder decomposition")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, default=16)
    p.add_argument("--mode", choices=["weighted", "boolean"], default="weighted")
    p.add_argument("--als-iters", type=int, default=defaults.ALS_ITERS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("adversary", help="quasirandomness sweep with scores")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--d", default="2,4,8", help="comma-separated pattern sizes")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--n-terms", type=int, default=4)
    p.add_argument("--score-trials", type=int, default=3)
    p.add_argument("--restarts", type=int, default=defaults.SCORE_RESTARTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV path (d,mean_norm,std,mean_score)")
    p.set_defaults(func=_cmd_adversary, report=None)

    p = sub.add_parser("verify", help="check a shattering certificate")
    p.add_argument("certificate")
    p.add_argument("instance")
    p.add_argument("--function", default=None)
    p.add_argument("--out", dest="report", metavar="OUT", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


# the thread counts of OpenBLAS, OpenMP and MKL, whichever numpy was built with
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    # one BLAS thread unless the caller chose, set before numpy loads: most
    # matrices here are small, and each spare thread costs start-up CPU
    if not any(var in os.environ for var in BLAS_THREAD_VARS):
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if [] in vars(args).values():  # Python < 3.12 reads the value "--" as []
            raise InvalidArgumentError("an option's value cannot be '--'")
        started = time.perf_counter()
        config, results, diagnostics, code = args.func(args)
        # a subcommand without --seed draws nothing at random: seed 0
        _emit_report(args.command, config, results, getattr(args, "seed", 0), args.report,
                     started, diagnostics)
        return code
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno} column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return 2
    except OSError as exc:
        # every path the CLI opens was named by the user
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VckLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (MemoryError, RecursionError) as exc:
        # the host ran out before an explicit cap did
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
