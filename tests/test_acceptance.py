"""Acceptance criteria, one test per criterion, tolerances pinned as stated.

Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion; each test also prints an ``ACCEPTANCE`` line (visible with -s).
"""

import json
import math
import pathlib
import sys
import time
from fractions import Fraction

import numpy as np

from vck_lab import (Box, MeasuredFunction, PartiteSpace,
                     PoolLeaf, Relation, all_traversals, atoms, average_out,
                     boolean_of_lower_arity, box_norm,
                     cylinder_correlation, dual_function, fit_boolean_cylinders,
                     fit_weighted_cylinders, inapproximability_score, inner,
                     integrate, l2_distance, membership_gadget,
                     project_simple, quasirandom, quasirandomness_curve,
                     random_pattern, round_to_cells, sauer_shelah_bound,
                     sym_diff, trace_count, vc_k)
from vck_lab.cli import main as cli_main
from vck_lab.decomp import CylinderDecomposition, CylinderTerm
from vck_lab.gowers import multiply_cylinders
from vck_lab.serialize import dumps_canonical, load_json

from oracles import (naive_average_out, naive_box_norm_11, traversal_count_oracle,
                     vc1_oracle)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_calibration.json").read_text())


def report(line: str) -> None:
    print(line, file=sys.stderr)


def relation_from_matrix(matrix, name="E") -> Relation:
    matrix = np.asarray(matrix, dtype=np.float64)
    space = PartiteSpace.uniform(list(matrix.shape))
    return Relation(space, (0, 1), matrix, name=name)


# -------------------------------------------------------------------------


def test_c01_vc_oracle_equivalence():
    started = time.perf_counter()
    for bits in range(512):
        matrix = np.array([[float(bits >> (3 * i + j) & 1) for j in range(3)]
                           for i in range(3)])
        E = relation_from_matrix(matrix)
        assert vc_k(E, 1, 1).dimension == vc1_oracle(matrix), bits
    space = PartiteSpace.uniform([4, 6])
    for seed in range(200):
        E = quasirandom(space, (0, 1), 0.5, seed=seed)
        assert vc_k(E, 1, 1).dimension == vc1_oracle(E.values), seed
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(f"ACCEPTANCE 01 vc-oracle-equivalence: PASS ({elapsed:.1f}s)")


def test_c02_sauer_shelah_conformance():
    space = PartiteSpace.uniform([8, 12])
    full_box = Box((tuple(range(8)),))
    violations = 0
    for seed in range(200):
        E = quasirandom(space, (0, 1), 0.5, seed=1000 + seed)
        d = vc_k(E, 1, 1).dimension
        traces = trace_count(E, full_box, 1)
        if traces > sauer_shelah_bound(8, 1, d + 1):
            violations += 1
    assert violations == 0
    report("ACCEPTANCE 02 sauer-shelah-conformance: PASS (200 relations, 0 violations)")


def test_c03_gowers_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(20260809)
    checked = 0
    for i in range(100):
        if i % 2 == 0:
            space = PartiteSpace.uniform([6, 6])
            sig = (0, 1)
        else:
            space = PartiteSpace.uniform([6, 6, 6])
            sig = (0, 1, 2)
        f = MeasuredFunction(space, sig, rng.random(space.sizes(sig)))
        rep = box_norm(f)
        D = dual_function(f)
        assert abs(inner(f, D) - rep.raw) <= 1e-9
        assert abs(integrate(f)) <= rep.norm + 1e-12
        cyl = [(Relation.from_bool(space, (0,), rng.random(6) < 0.5), (0,))]
        if len(sig) == 3:
            cyl.append((Relation.from_bool(space, (1, 2),
                                           rng.random((6, 6)) < 0.5), (1, 2)))
        g = multiply_cylinders(f, cyl)
        assert box_norm(g).norm <= rep.norm + 1e-12
        assert cylinder_correlation(f, cyl) <= rep.norm + 1e-12
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 100 and elapsed < 60.0
    report(f"ACCEPTANCE 03 gowers-identities: PASS (100 tensors, {elapsed:.1f}s)")


def test_c04_constant_and_rank_one_norms():
    for c in (0.0, 0.25, 1.0):
        for sizes, sig in [([4], (0,)), ([4, 4], (0, 1)), ([2, 2, 2], (0, 1, 2))]:
            f = MeasuredFunction.constant(PartiteSpace.uniform(sizes), sig, c)
            assert box_norm(f).norm == c
    space = PartiteSpace.uniform([5, 6])
    rng = np.random.default_rng(4)
    for _ in range(10):
        u, v = rng.random(5), rng.random(6)
        f = MeasuredFunction(space, (0, 1), np.outer(u, v))
        rep = box_norm(f)
        assert abs(rep.norm - naive_box_norm_11(f)) <= 1e-10
        nu = math.sqrt(math.fsum((u * u / 5).tolist()))
        nv = math.sqrt(math.fsum((v * v / 6).tolist()))
        assert abs(rep.norm - nu * nv) <= 1e-10
    report("ACCEPTANCE 04 constant-and-rank-one-norms: PASS")


def test_c05_power_box_inequality_exact():
    space = PartiteSpace.uniform([4, 4])
    violations = 0
    for seed in range(50):
        R = quasirandom(space, (0, 1), 0.5, seed=2000 + seed)
        sigma = all_traversals(R, (2, 2))
        count_sigma = traversal_count_oracle(R.values)
        assert int(sigma.values.sum()) == count_sigma  # library vs oracle
        mu_r = Fraction(int(R.values.sum()), 16)
        mu_sigma = Fraction(count_sigma, 256)
        if mu_sigma < mu_r ** 4:
            violations += 1
    assert violations == 0
    report("ACCEPTANCE 05 power-box-inequality: PASS (50 relations, exact)")


def test_c06_projection_optimality_and_cell_rounding():
    rng = np.random.default_rng(99)
    space = PartiteSpace.uniform([5, 5])
    for trial in range(50):
        f = MeasuredFunction(space, (0, 1), rng.random((5, 5)))
        gens = [Relation.from_bool(space, (0, 1), rng.random((5, 5)) < 0.5)
                for _ in range(2)]
        partition = atoms(gens)
        g, err = project_simple(f, partition)
        for cell in partition.cells:
            for delta in (1e-3, -1e-3):
                perturbed = np.array(g.values.ravel())
                perturbed[cell] = np.clip(perturbed[cell] + delta, 0.0, 1.0)
                h = MeasuredFunction(space, (0, 1), perturbed.reshape(5, 5))
                if not np.array_equal(h.values, g.values):
                    assert l2_distance(f, h) > err
    bound_checked = 0
    for trial in range(200):
        gens = [Relation.from_bool(space, (0, 1), rng.random((5, 5)) < 0.5)
                for _ in range(2)]
        partition = atoms(gens)
        base = np.zeros(25, dtype=bool)
        for cell in partition.cells:
            if rng.random() < 0.5:
                base[cell] = True
        flip = rng.integers(0, 25)
        base[flip] = ~base[flip]
        X = Relation.from_bool(space, (0, 1), base.reshape(5, 5))
        _, h = project_simple(X, partition)
        eps = math.sqrt(2 * h) if h > 0 else 0.05
        Y = round_to_cells(X, partition, eps)
        assert l2_distance(X, Y) <= 3 * eps + 1e-12
        bound_checked += 1
        if bound_checked == 50:
            break
    assert bound_checked == 50
    report("ACCEPTANCE 06 projection-optimality-and-rounding: PASS (50 + 50 instances)")


def test_c07_decomposition_closure():
    for seed in range(20):
        m = (seed % 3) + 1  # m in {1, 2, 3}
        out = boolean_of_lower_arity(3, 1, m, [5, 5, 5], seed=seed)
        pool = [PoolLeaf(pos, rel, f"gen{i}")
                for i, (pos, rel) in enumerate(out.leaves)]
        if not pool:
            continue
        expr, rep = fit_boolean_cylinders(out.relation, k=1, n_max=8, pool=pool)
        assert rep.error == 0.0, (seed, out.expression)
        assert rep.n <= 8
        assert sym_diff(out.relation, expr) == 0.0
    # weighted route: representable targets refit to zero under oracle init
    space = PartiteSpace.uniform([4, 4, 4])
    rng = np.random.default_rng(7)
    for trial in range(5):
        terms = tuple(
            CylinderTerm(Fraction(1, 2), {
                (pos,): MeasuredFunction(space, (pos,), rng.random(4))
                for pos in range(3)})
            for _ in range(2))
        d = CylinderDecomposition(space, (0, 1, 2), 1, terms)
        f = MeasuredFunction(space, (0, 1, 2), d.tensor())
        _, rep = fit_weighted_cylinders(f, 1, 2, init=d, seed=trial)
        assert rep.error <= 1e-9
    report("ACCEPTANCE 07 decomposition-closure: PASS (20 Boolean + 5 weighted)")


def test_c08_converse_sweep_against_goldens():
    cfg = GOLDEN["curve"]
    rows = quasirandomness_curve(cfg["k"], cfg["d_values"], cfg["trials"],
                                 cfg["seed"])
    means = [row["mean_norm"] for row in rows]
    assert means[0] > means[1] > means[2]
    for row, frozen in zip(rows, cfg["rows"]):
        assert abs(row["mean_norm"] - frozen["mean_norm"]) <= 0.1 * frozen["mean_norm"]
    s_cfg = GOLDEN["score"]
    H = random_pattern(8, 1, 0.5, s_cfg["pattern_seed"])
    score = inapproximability_score(H, 1, s_cfg["n_terms"],
                                    seed=s_cfg["fit_seed"],
                                    restarts=s_cfg["restarts"])
    space = PartiteSpace.uniform([8, 8], ["P1", "P2"])
    col = np.zeros((8, 8))
    col[:4, :] = 1.0
    control = Relation(space, (0, 1), col, name="control")
    control_score = inapproximability_score(
        control, 1, s_cfg["n_terms"], seed=s_cfg["fit_seed"], restarts=s_cfg["restarts"])
    assert score > 5 * control_score
    assert abs(score - s_cfg["random_score"]) <= 0.1 * s_cfg["random_score"]
    assert control_score <= 1e-6
    report(f"ACCEPTANCE 08 converse-sweep: PASS (means {means[0]:.3f} > "
           f"{means[1]:.3f} > {means[2]:.3f}; score {score:.3f} vs control "
           f"{control_score:.2e})")


def test_c09_averaging_preserves_values_and_dimension():
    rng = np.random.default_rng(31337)
    for trial in range(100):
        sizes = [int(rng.integers(2, 5)) for _ in range(3)]
        space = PartiteSpace.uniform(sizes)
        f = MeasuredFunction(space, (0, 1, 2), rng.random(tuple(sizes)))
        pos = int(rng.integers(0, 3))
        got = average_out(f, pos).values
        expected = naive_average_out(f, pos)
        assert np.max(np.abs(got - expected)) <= 1e-12
    # averaging a gadget lifted over a balancing dummy coordinate returns it
    for d in (1, 2):
        g = membership_gadget(d, 1)
        scaled = 0.25 + 0.5 * g.values
        lifted_space = PartiteSpace.uniform(list(g.shape) + [2])
        lifted = np.stack([scaled + 0.25, scaled - 0.25], axis=-1)
        F = MeasuredFunction(lifted_space, (0, 1, 2), lifted)
        avg = average_out(F, 2)
        assert np.array_equal(avg.values, scaled)
        base = vc_k(MeasuredFunction(lifted_space, (0, 1), scaled), 1, 1,
                    0.25, 0.75).dimension
        averaged = vc_k(avg, 1, 1, 0.25, 0.75).dimension
        assert base == averaged == d
    report("ACCEPTANCE 09 averaging: PASS (100 oracle checks + gadget d<=2)")


def test_c10_cli_determinism(tmp_path):
    def comparable(path):
        return dumps_canonical(load_json(path)["comparable"]).encode()

    inst = tmp_path / "inst.json"
    insts = [tmp_path / "inst_a.json", tmp_path / "inst_b.json"]
    for path in insts:
        assert cli_main(["gen", "--kind", "membership", "--params", "d=2,k=1",
                         "--seed", "3", "--out", str(path)]) == 0
    assert insts[0].read_bytes() == insts[1].read_bytes()
    inst = insts[0]
    # fibers cuts fibers of a 3-ary function; the gadget is 2-ary
    inst3 = tmp_path / "parity.json"
    assert cli_main(["gen", "--kind", "parity", "--params", "n=3", "--seed", "3",
                     "--out", str(inst3)]) == 0

    pairs = {
        "vcdim": ["vcdim", "--input", str(inst), "--k", "1"],
        "gowers": ["gowers", "--input", str(inst)],
        "fibers": ["fibers", "--input", str(inst3), "--function", "parity3", "--t", "1",
                   "--anchors", "0,1"],
        "decompose": ["decompose", "--input", str(inst), "--k", "1",
                      "--n-max", "2", "--seed", "4"],
    }
    outputs = {}
    for name, argv in pairs.items():
        reports = []
        for run_id in ("a", "b"):
            out = tmp_path / f"{name}_{run_id}.json"
            flag = "--report" if name == "decompose" else "--out"
            assert cli_main(argv + [flag, str(out)]) == 0
            reports.append(comparable(out))
        assert reports[0] == reports[1], name
        outputs[name] = reports[0]

    csvs = []
    for run_id in ("a", "b"):
        out = tmp_path / f"curve_{run_id}.csv"
        assert cli_main(["adversary", "--k", "1", "--d", "2,4", "--trials", "3",
                         "--score-trials", "1", "--restarts", "2",
                         "--seed", "6", "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]

    # verify twice on the certificate produced above
    cert_doc = load_json(tmp_path / "vcdim_a.json")["comparable"]["results"]["certificate"]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(dumps_canonical(cert_doc) + "\n")
    verifies = []
    for run_id in ("a", "b"):
        out = tmp_path / f"verify_{run_id}.json"
        assert cli_main(["verify", str(cert_path), str(inst),
                         "--out", str(out)]) == 0
        verifies.append(comparable(out))
    assert verifies[0] == verifies[1]
    report("ACCEPTANCE 10 cli-determinism: PASS (gen, vcdim, gowers, fibers, "
           "decompose, adversary, verify)")
