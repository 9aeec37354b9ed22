"""vck-lab benchmark: one workload, run as its users run the CLI.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is taken from ``src/``.
Set-up runs three times and makes the seeded instances with ``vck-lab gen``.
Then one client runs a closed loop: each ``vck-lab`` process starts only
after the previous one exits, import included.  Every output is checked by
``checks`` (numpy only), and one instance runs twice, so its ``comparable``
sections must repeat byte for byte.

``--trace 0`` measures end-to-end metrics with nothing wrapped.  ``--trace 1``
runs one job of every workload twice, plain and through ``tracer.py``, and
reports per-layer metrics plus the tracing overhead.  The last line printed
is the result as JSON; a record with the environment and every job time is
appended to ``.perfbench/results.jsonl`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from compare import tail
from tracer import aggregate
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
ENTRY = "import sys; from vck_lab.cli import main; sys.exit(main())"
PROBE = ("import json, sys, numpy, scipy, vck_lab, vck_lab.cli; "
         "blas = lambda m: m.__config__.CONFIG['Build Dependencies']['blas']; "
         "print(json.dumps({'python': sys.version.split()[0], "
         "'numpy': numpy.__version__, 'scipy': scipy.__version__, "
         "'numpy_blas': blas(numpy).get('version'), 'scipy_blas': blas(scipy).get('version'), "
         "'vck_lab': vck_lab.__version__, 'vck_lab_file': vck_lab.__file__}))")
SETUP_REPEATS = 3
# settings that change how fast a vck-lab process runs, recorded with each run
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VCK_LAB_THREADS", "PYTHONDONTWRITEBYTECODE")


@dataclass
class Proc:
    returncode: int
    maxrss_kb: int
    error: str  # last line the process wrote to stderr, when it failed


class Launcher:
    """Starts one vck-lab process at a time and reaps it with wait4."""

    def __init__(self, spans_dir: Path | None = None):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.spans_dir = spans_dir
        self.procs = []
        self.spans = []

    def command(self, argv: list, job: str) -> list:
        if self.spans_dir is None:
            return [sys.executable, "-c", ENTRY, *argv]
        spans = self.spans_dir / f"{len(self.spans):05d}.json"
        self.spans.append(spans)
        return [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), job, "--", *argv]

    def run(self, cmd: list, cwd: Path, stdout: str | None = None) -> Proc:
        with open(cwd / (stdout or "stdout.log"), "wb") as out, \
                open(cwd / "stderr.log", "ab") as err:
            child = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        error = ""
        if child.returncode != 0:
            lines = (cwd / "stderr.log").read_text(errors="replace").strip().splitlines()
            error = lines[-1] if lines else ""
        proc = Proc(child.returncode, usage.ru_maxrss, error)
        self.procs.append(proc)
        return proc

    def vck_lab(self, cwd: Path, job: str):
        """A ``run(argv, stdout=None)`` callable for one job in ``cwd``."""
        return lambda argv, stdout=None: self.run(self.command(argv, job), cwd, stdout)


def environment(seed: int, probe: dict) -> dict:
    """Where and on what the numbers were taken."""
    env = {"seed": seed, "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "settings": {v: os.environ.get(v) for v in ENV_VARS}, **probe}
    try:
        env["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        env["git_sha"] = None  # a plain source checkout; see source_sha256
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    env["source_sha256"] = src.hexdigest()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), None)
    except OSError:
        env["cpu_model"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    env["caches"] = caches
    return env


# --------------------------------------------------------------------------
# set-up


def generate(workload, launcher: Launcher, cwd: Path, seed: int) -> None:
    """Write one instance's files into ``cwd`` with ``vck-lab gen``."""
    cwd.mkdir(parents=True)
    for argv in workload.gen_commands(seed):
        if launcher.run(launcher.command(argv, "setup"), cwd).returncode != 0:
            raise SystemExit(f"error: set-up failed: {argv}: "
                             f"{(cwd / 'stderr.log').read_text()}")


def set_up(workload, launcher: Launcher, cwd: Path, seed: int) -> tuple:
    """Check that the program starts, then generate one instance in ``cwd``.

    Returns (seconds, probe record, digest of the instance files).
    """
    started = time.perf_counter()
    probe = subprocess.run([sys.executable, "-c", PROBE], env=launcher.env,
                           capture_output=True, text=True)
    if probe.returncode != 0:
        raise SystemExit(f"error: vck_lab does not start: {probe.stderr}")
    generate(workload, launcher, cwd, seed)
    seconds = time.perf_counter() - started
    digest = hashlib.sha256()
    for path in sorted(cwd.glob("*.json")):
        digest.update(path.read_bytes())
    return seconds, json.loads(probe.stdout), digest.hexdigest()


def instance_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


# --------------------------------------------------------------------------
# jobs


def run_job(workload, launcher: Launcher, cwd: Path, seed: int, job: str) -> tuple:
    """(wall seconds, problems, comparable digest) of one checked job."""
    started = time.perf_counter()
    problems = workload.job(launcher.vck_lab(cwd, job), cwd, seed)
    wall = time.perf_counter() - started
    digest = None
    if not problems:
        try:
            problems = workload.check(cwd)
            digest = workload.digest(cwd)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return wall, problems, digest


def measure(workload, seed: int, seconds: float, work: Path) -> dict:
    """End-to-end run: timed set-ups, then the closed loop of jobs."""
    setups, problems, digests = [], [], {}
    for rep in range(SETUP_REPEATS):
        # set-up r makes instance r mod pool; a second make must match the first
        inst = rep % workload.pool
        cwd = work / (f"inst{inst}" if inst not in digests else f"again{rep}")
        secs, probe, digest = set_up(workload, Launcher(), cwd, instance_seed(seed, inst))
        setups.append(secs)
        if digests.setdefault(inst, digest) != digest:
            problems.append(f"set-up: instance {inst} came out different when made again")
    for inst in range(SETUP_REPEATS, workload.pool):
        generate(workload, Launcher(), work / f"inst{inst}", instance_seed(seed, inst))
    launcher = Launcher()
    times, completed, failed, seen = [], [], 0, {}
    j = 0
    # Every instance once, then instance 0 again, whose comparable output must
    # repeat byte for byte; then keep cycling through the pool while time remains.
    while j <= workload.pool or sum(times) < seconds:
        inst = j % workload.pool
        wall, job_problems, digest = run_job(workload, launcher, work / f"inst{inst}",
                                             instance_seed(seed, inst), f"job{j}")
        if digest is not None and seen.setdefault(inst, digest) != digest:
            job_problems.append(f"instance {inst}: comparable output changed on rerun")
        times.append(wall)
        if job_problems:
            failed += 1
        else:
            completed.append(wall)
        problems += [f"job {j}: {p}" for p in job_problems]
        j += 1
    return {"setup_s": setups, "job_s": times, "completed_s": completed, "failed": failed,
            "problems": problems,
            "peak_rss_mb": max(p.maxrss_kb for p in launcher.procs) / 1024.0,
            "probe": probe}


def end_to_end(raw: dict) -> dict:
    """Latency over the jobs that completed; throughput counts every job's time."""
    completed = raw["completed_s"]
    return {"setup_s": statistics.median(raw["setup_s"]),
            "job_s.p50": statistics.median(completed or raw["job_s"]),
            "jobs_per_s": len(completed) / sum(raw["job_s"]),
            "peak_rss_mb": raw["peak_rss_mb"]}


# --------------------------------------------------------------------------
# traced run


def traced(first: str, seed: int, work: Path) -> dict:
    """One job of every workload, plain then traced, on instance 0."""
    order = [first] + [n for n in WORKLOADS if n != first]
    spans_dir = work / "spans"
    spans_dir.mkdir(parents=True)
    launcher = Launcher(spans_dir)
    per_workload, problems, failed, probe = {}, [], 0, None
    for name in order:
        workload = WORKLOADS[name]
        first_span = len(launcher.spans)
        cwd = work / name
        _, probe, _ = set_up(workload, launcher, cwd, instance_seed(seed, 0))
        setup_spans = launcher.spans[first_span:]
        plain_s, plain_problems, plain_digest = run_job(workload, Launcher(), cwd,
                                                        instance_seed(seed, 0), "plain")
        first_span = len(launcher.spans)
        traced_s, traced_problems, traced_digest = run_job(workload, launcher, cwd,
                                                           instance_seed(seed, 0), name)
        job_spans = launcher.spans[first_span:]
        if plain_digest != traced_digest and not traced_problems:
            traced_problems.append("tracing changed the comparable output")
        for label, found in (("plain", plain_problems), ("traced", traced_problems)):
            failed += bool(found)
            problems += [f"{name} {label}: {p}" for p in found]
        per_workload[name] = {"plain_s": plain_s, "traced_s": traced_s,
                              "setup_spans": setup_spans, "job_spans": job_spans}
    return {"workloads": per_workload, "problems": problems, "failed": failed,
            "attempted": 2 * len(order), "probe": probe}


def _load_spans(paths: list) -> list:
    return [json.loads(p.read_text()) for p in paths]


def per_layer(raw: dict, names: list) -> tuple:
    """Per-layer totals over every traced process, and a per-workload breakdown."""
    all_docs, breakdown = [], {}
    for name, w in raw["workloads"].items():
        job_docs = _load_spans(w["job_spans"])
        all_docs += _load_spans(w["setup_spans"]) + job_docs
        job = aggregate(job_docs)
        breakdown[name] = {"in_process_s": job["cli.import_s"] + job["cli.main.s"],
                           "layers": job, "plain_s": w["plain_s"], "traced_s": w["traced_s"]}
    totals = aggregate(all_docs)
    calls = totals.get("vck.check_shattered.calls", 0)
    totals["vck.check_shattered.hit_frac"] = \
        totals.get("vck.check_shattered.hits", 0) / calls if calls else 0.0
    totals["trace.overhead_s"] = sum(w["traced_s"] - w["plain_s"]
                                     for w in raw["workloads"].values())
    return {n: totals.get(n, 0) for n in names}, breakdown


# the layers each workload was chosen to stress, as a share of its in-process time
CLAIMS = {
    "certify": ["vck.check_shattered.self_s"],
    "converse": ["decomp.fit_weighted_cylinders.s"],
    "structure": ["cli.import_s", "serialize.dumps_canonical.s"],
}


def print_breakdown(breakdown: dict) -> None:
    for name, b in breakdown.items():
        inproc = b["in_process_s"]
        print(f"# {name}: job {b['plain_s']:.3f} s plain, {b['traced_s']:.3f} s traced "
              f"(overhead {b['traced_s'] - b['plain_s']:+.3f} s); in-process {inproc:.3f} s")
        layers = b["layers"]
        top = sorted((k for k in layers if k.endswith(".self_s")),
                     key=lambda k: -layers[k])[:5]
        for key in top:
            print(f"#   {key:<42} {layers[key]:9.3f} s  {100 * layers[key] / inproc:5.1f}%")
        share = sum(layers.get(k, 0.0) for k in CLAIMS[name]) / inproc
        print(f"#   {' + '.join(CLAIMS[name])}: {100 * share:.1f}% of in-process time")


# --------------------------------------------------------------------------


def run_once(name: str, args, units: dict) -> dict:
    """One run of a workload, or the traced run starting with it: print its
    metrics, append its record to the results file and return the result."""
    work = ROOT / ".perfbench" / f"work-{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            raw = traced(name, args.seed, work)
            values, breakdown = per_layer(raw, list(units))
            print_breakdown(breakdown)
            attempted = raw["attempted"]
            record = {"breakdown": {n: {k: v for k, v in b.items() if k != "layers"}
                                    for n, b in breakdown.items()}}
        else:
            raw = measure(WORKLOADS[name], args.seed, args.seconds, work)
            values = end_to_end(raw)
            attempted = len(raw["job_s"])
            record = {"job_s": raw["job_s"], "setup_runs_s": raw["setup_s"]}
            print(f"# job_s.tail: {tail(raw['job_s'])}; compare.py pools the runs of a file")
            print(f"# fail_frac: {raw['failed']}/{attempted} = {raw['failed'] / attempted:.4f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in raw["problems"]:
        print(f"# FAILED {problem}")
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    for n, m in metrics.items():
        print(f"# {n:<44} {m['value']:.6g} {m['unit']}")
    result = {"correct": not raw["problems"], "attempted": attempted,
              "failed": raw["failed"], "metrics": metrics}
    record.update(workload=name, trace=args.trace, seconds=args.seconds,
                  env=environment(args.seed, raw["probe"]), result=result)
    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="'all' runs every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(ROOT / ".perfbench" / "results.jsonl"),
                        help="JSON-lines file the run record is appended to")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vck_lab" / "cli.py").is_file():
        print(f"error: no vck-lab source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.trace:
        names = names[:1]  # the traced run covers every workload
    results = {}
    for name in names:
        print(f"# == {name}")
        results[name] = run_once(name, args, units)
    if len(results) == 1:
        print(json.dumps(results[name]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
