"""Per-layer spans around vck-lab's public functions, recorded from outside.

Run as a script, this is a stand-in for the ``vck-lab`` entry point:

    python3 perfbench/tracer.py SPANS.json JOB_ID -- <vck-lab arguments>

It imports ``vck_lab.cli`` (timing the import), replaces each function in
``TARGETS`` by a wrapper in every ``vck_lab`` module that bound it, calls
``vck_lab.cli.main(argv)``, and writes the spans (name, start, end, parent)
and counters held in memory to SPANS.json when the process exits.

Imported, it offers ``aggregate`` to fold span files into per-layer metrics.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time

# (module, attribute) -> counter(args, kwargs, result) adding to "<name>.<counter>"
TARGETS = {
    ("serialize", "load_json"): None,
    ("serialize", "functions_from_doc"): None,
    ("serialize", "dumps_canonical"): lambda a, k, res: {"bytes_out": len(res.encode())},
    ("vck", "vc_k"): None,
    ("vck", "check_shattered"): lambda a, k, res: {"hits": int(res is not None)},
    ("vck", "verify_certificate"): None,
    ("gowers", "box_norm"): lambda a, k, res: {"doubled_cells": math.prod(a[0].shape) ** 2},
    ("decomp", "fit_weighted_cylinders"): lambda a, k, res: {"als_sweeps": res[1].iterations},
    ("decomp", "fit_boolean_cylinders"): None,
    ("decomp", "l2_error"): None,
    ("adversary", "quasirandomness_curve"): None,
    ("adversary", "inapproximability_score"): None,
    ("adversary", "random_pattern"): None,
    ("fibalg", "fiber_family"): lambda a, k, res: {"generators": len(res)},
    ("fibalg", "atoms"): lambda a, k, res: {"cells": res.cell_count},
    ("space", "fiber"): None,
    ("space", "integrate"): None,
    ("space", "PartiteSpace.weight_tensor"): None,
    ("gen", "quasirandom"): None,
    ("gen", "boolean_of_lower_arity"): None,
    ("gen", "parity_triple"): None,
    ("rng", "bernoulli"): lambda a, k, res: {"draws": res.size},
}


def layer_name(module: str, attr: str) -> str:
    """Metric prefix: the module and the function, without any class name."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Span stack and counters for one process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counters = {}
        self._stack = []

    def call(self, name, fn, args, kwargs, counter=None):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()
        if counter is not None:
            for key, value in counter(args, kwargs, result).items():
                full = f"{name}.{key}"
                self.counters[full] = self.counters.get(full, 0) + value
        return result

    def wrap(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Rebind every target in every vck_lab module that imported it
        (``from .space import fiber`` copies the name into the importer)."""
        import importlib

        modules = [m for n, m in list(sys.modules.items())
                   if n == "vck_lab" or n.startswith("vck_lab.")]
        for (mod, attr), counter in TARGETS.items():
            owner = importlib.import_module(f"vck_lab.{mod}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(layer_name(mod, attr), getattr(cls, meth), counter))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(layer_name(mod, attr), original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def _run(spans_path: str, job: str, argv: list) -> int:
    started = time.perf_counter()
    import vck_lab.cli as cli
    import_s = time.perf_counter() - started
    tracer = Tracer()
    tracer.install()
    rc = 1
    try:
        rc = tracer.call("cli.main", cli.main, (argv,), {})
    finally:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"job": job, "argv": argv, "import_s": import_s,
                       "cpu_s": usage.ru_utime + usage.ru_stime,
                       "spans": tracer.spans, "counters": tracer.counters}, fh)
    return rc


# --------------------------------------------------------------------------
# aggregation


def aggregate(docs) -> dict:
    """Fold span files into {metric: value}.

    ``<name>.calls`` counts calls; ``<name>.s`` is inclusive time, counted
    once when a function re-enters itself; ``<name>.self_s`` is time minus
    the time of child spans.  Counters and process totals are summed.
    """
    out = {"cli.import_s": 0.0, "cli.cpu_s": 0.0}
    for doc in docs:
        out["cli.import_s"] += doc["import_s"]
        out["cli.cpu_s"] += doc["cpu_s"]
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - child_time[i]
            ancestor, reentrant = parent, False
            while ancestor >= 0 and not reentrant:
                reentrant = spans[ancestor][0] == name
                ancestor = spans[ancestor][3]
            if not reentrant:
                out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
        for key, value in doc["counters"].items():
            out[key] = out.get(key, 0) + value
    return out


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: tracer.py SPANS.json JOB_ID -- <vck-lab arguments>")
    sys.exit(_run(sys.argv[1], sys.argv[2], sys.argv[4:]))
