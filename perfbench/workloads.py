"""The benchmark's workloads: how each generates its instances, what one job
runs, and how each job's outputs are checked.

A job is the list of ``vck-lab`` processes a user would run for one task, in
order, each started after the previous one exits.  All paths handed to the
program are relative to the instance directory the job runs in, so two jobs
on the same instance must write byte-identical ``comparable`` sections.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import checks


def comparable_bytes(path: Path) -> bytes:
    """The canonical ``comparable`` section of a report, as written."""
    text = path.read_bytes()
    head, tail = b'{"comparable":', b',"wall_time_s":'
    end = text.rfind(tail)
    if not text.startswith(head) or end < 0:
        raise ValueError(f"{path.name} is not a vck-lab report")
    return text[len(head):end]


def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _function(path: Path, index: int = 0):
    """(axis weights, values) of the index-th function of an instance file."""
    weights, functions = checks.load_functions(_report(path))
    _, sig, values = functions[index]
    return [weights[i] for i in sig], values


class Workload:
    name = ""
    pool = 2          # distinct instances per run; jobs cycle through them
    outputs = ()      # files whose comparable sections must repeat exactly

    def gen_commands(self, seed: int) -> list:
        return []

    def job(self, run, cwd: Path, seed: int) -> list:
        raise NotImplementedError

    def check(self, cwd: Path) -> list:
        """Problems with the outputs of a job that exited cleanly."""
        raise NotImplementedError

    def digest(self, cwd: Path) -> str:
        h = hashlib.sha256()
        for name in self.outputs:
            path = cwd / name
            h.update(name.encode())
            h.update(path.read_bytes() if name.endswith(".csv") else comparable_bytes(path))
        return h.hexdigest()


def _expect(proc, what: str) -> list:
    return [] if proc.returncode == 0 else [f"{what} exited {proc.returncode}: {proc.error}"]


class Certify(Workload):
    """vcdim then verify, on a k=1 16x512 and a k=2 8x8x256 relation."""

    name = "certify"
    tags = ("k1", "k2")
    outputs = ("vcdim_k1.json", "verify_k1.json", "vcdim_k2.json", "verify_k2.json")

    def gen_commands(self, seed):
        return [["gen", "--kind", "quasirandom", "--params", "sizes=16x512,p=0.5",
                 "--seed", str(seed), "--out", "k1.json"],
                ["gen", "--kind", "quasirandom", "--params", "sizes=8x8x256,p=0.5",
                 "--seed", str(seed), "--out", "k2.json"]]

    def job(self, run, cwd, seed):
        for tag in self.tags:
            proc = run(["vcdim", "--input", f"{tag}.json", "--out", f"vcdim_{tag}.json"])
            if proc.returncode != 0:
                return _expect(proc, f"vcdim {tag}")
            cert = _report(cwd / f"vcdim_{tag}.json")["comparable"]["results"]["certificate"]
            if cert is None:
                return [f"vcdim {tag} found no certificate to verify"]
            (cwd / f"cert_{tag}.json").write_text(json.dumps(cert), encoding="utf-8")
            proc = run(["verify", f"cert_{tag}.json", f"{tag}.json",
                        "--out", f"verify_{tag}.json"])
            if proc.returncode != 0:
                return _expect(proc, f"verify {tag}")
        return []

    def check(self, cwd):
        problems = []
        for tag in self.tags:
            _, values = _function(cwd / f"{tag}.json")
            problems += checks.check_vcdim_report(_report(cwd / f"vcdim_{tag}.json"), values)
            problems += checks.check_verify_report(_report(cwd / f"verify_{tag}.json"))
        return problems


class Converse(Workload):
    """The paper's converse experiment: one quasirandomness sweep with scores."""

    name = "converse"
    pool = 5          # fit times vary with the seed; instances cost nothing to make
    d_values = (2, 4, 8, 16, 32)
    outputs = ("adversary.json", "curve.csv")

    def job(self, run, cwd, seed):
        proc = run(["adversary", "--k", "1", "--d", ",".join(map(str, self.d_values)),
                    "--trials", "20", "--seed", str(seed), "--out", "curve.csv"],
                   stdout="adversary.json")
        return _expect(proc, "adversary")

    def check(self, cwd):
        return checks.check_adversary(_report(cwd / "adversary.json"),
                                      (cwd / "curve.csv").read_text(encoding="utf-8"),
                                      self.d_values)


class Structure(Workload):
    """Many short processes on a 3-ary Boolean combination and a parity triple."""

    name = "structure"
    anchors = (0, 1, 2, 3, 4, 5)
    height = 3
    outputs = ("fibers.json", "weighted.json", "boolean.json", "gowers.json")

    def gen_commands(self, seed):
        return [["gen", "--kind", "boolcomb",
                 "--params", "kprime=3,k=1,m=4,sizes=16x16x16",
                 "--seed", str(seed), "--out", "boolcomb.json"],
                ["gen", "--kind", "parity", "--params", "n=12",
                 "--seed", str(seed), "--out", "parity.json"]]

    def job(self, run, cwd, seed):
        steps = [
            ("fibers", ["fibers", "--input", "boolcomb.json", "--t", str(self.height),
                        "--anchors", ",".join(map(str, self.anchors)),
                        "--out", "fibers.json"]),
            ("decompose weighted", ["decompose", "--input", "boolcomb.json", "--k", "1",
                                    "--mode", "weighted", "--report", "weighted.json"]),
            ("decompose boolean", ["decompose", "--input", "boolcomb.json", "--k", "1",
                                   "--mode", "boolean", "--report", "boolean.json"]),
            ("gowers", ["gowers", "--input", "parity.json", "--out", "gowers.json"]),
        ]
        for what, argv in steps:
            problems = _expect(run(argv), what)
            if problems:
                return problems
        return []

    def check(self, cwd):
        weights, values = _function(cwd / "boolcomb.json")
        w = checks.weight_tensor(weights, range(values.ndim))
        # the family: (2**t + 1) thresholds x one fiber per vertex of each of
        # the two searched coordinates x anchors
        generators = (2 ** self.height + 1) * sum(values.shape[:2]) * len(self.anchors)
        problems = checks.check_fibers_report(_report(cwd / "fibers.json"),
                                              values.shape[:2], generators)
        problems += checks.check_weighted_report(_report(cwd / "weighted.json"), values, w)
        problems += checks.check_boolean_report(_report(cwd / "boolean.json"), values, w)
        parity_weights, parity = _function(cwd / "parity.json")
        problems += checks.check_gowers_report(_report(cwd / "gowers.json"),
                                               parity, parity_weights)
        return problems


WORKLOADS = {w.name: w for w in (Certify(), Converse(), Structure())}
