"""Self-tests of the benchmark's output checkers: each accepts a correct
output and rejects a tampered one.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import checks


def _membership(d: int) -> np.ndarray:
    """f[i, j] = 1 when grid point i belongs to subset j (bit i of j)."""
    return np.array([[float(j >> i & 1) for j in range(1 << d)] for i in range(d)])


def _certificate(d: int) -> dict:
    # witness j has f = 0 exactly on the subset, so j is the complement mask
    full = (1 << d) - 1
    return {"box": [list(range(d))], "distinguished": 1, "r": "1/2", "s": "1/2",
            "witnesses": [{"subset": [[i] for i in range(d) if m >> i & 1],
                           "witness": full & ~m} for m in range(1 << d)]}


def test_certificate_accepted():
    assert checks.check_certificate(_certificate(3), _membership(3)) == []


@pytest.mark.parametrize("tamper", [
    lambda c: c["witnesses"][2].update(witness=c["witnesses"][5]["witness"]),
    lambda c: c["witnesses"][1].update(witness=-1),
    lambda c: c["witnesses"][1].update(witness=8),
    lambda c: c["witnesses"].pop(),
    lambda c: c["witnesses"][0]["subset"].append([7]),
    lambda c: c.update(r="-1/2"),
])
def test_tampered_certificate_rejected(tamper):
    cert = _certificate(3)
    tamper(cert)
    assert checks.check_certificate(cert, _membership(3))


def _dense_raw(values: np.ndarray, weights) -> float:
    """The box-norm power straight from its definition, over both copies."""
    n = values.ndim
    total = []
    for x0 in itertools.product(*[range(s) for s in values.shape]):
        for x1 in itertools.product(*[range(s) for s in values.shape]):
            prod = math.prod(weights[i][x0[i]] * weights[i][x1[i]] for i in range(n))
            for alpha in itertools.product((0, 1), repeat=n):
                prod *= values[tuple((x0, x1)[a][i] for i, a in enumerate(alpha))]
            total.append(prod)
    return math.fsum(total)


@pytest.mark.parametrize("shape", [(3, 4), (2, 3, 2)])
def test_factorized_box_norm_matches_definition(shape):
    gen = np.random.default_rng(7)
    values = gen.uniform(-1.0, 1.0, shape)
    weights = [gen.dirichlet(np.ones(s)) for s in shape]
    raw = _dense_raw(values, weights)
    assert math.isclose(checks.box_norm_raw(values, weights), raw, rel_tol=1e-12)


def test_perturbed_raw_rejected():
    gen = np.random.default_rng(3)
    values = (gen.uniform(size=(3, 3, 3)) < 0.5).astype(float)
    weights = [np.full(3, 1 / 3)] * 3
    raw = _dense_raw(values, weights)
    report = {"comparable": {"results": {"degree": 3, "raw": raw, "norm": raw ** 0.125}}}
    assert checks.check_gowers_report(report, values, weights) == []
    bumped = raw * (1 + 1e-7)
    report["comparable"]["results"].update(raw=bumped, norm=bumped ** 0.125)
    assert checks.check_gowers_report(report, values, weights)


def _fibers_report(cells) -> dict:
    # generators on a 2x2 grid: g0 = first row, g1 = first column
    family = [{"values": [1.0, 1.0, 0.0, 0.0]}, {"values": [1.0, 0.0, 1.0, 0.0]}]
    return {"comparable": {"results": {"family": family, "partition": {"cells": cells}}}}


def test_partition_accepted():
    assert checks.check_fibers_report(_fibers_report([[0], [1], [2], [3]]), (2, 2), 2) == []


@pytest.mark.parametrize("cells", [
    [[0], [1], [2]],           # misses point 3
    [[0, 1], [1], [2], [3]],   # overlaps
    [[0, 3], [1], [2]],        # g0 and g1 both differ between 0 and 3
    [[0], [1, 2], [3]],        # generators not constant on {1, 2}
])
def test_bad_partition_rejected(cells):
    assert checks.check_fibers_report(_fibers_report(cells), (2, 2), 2)


def test_weighted_error_recomputed():
    values = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])
    w = np.full((2, 2, 2), 1 / 8)
    term = {"gamma": "1/4", "factors": [{"name": "a", "positions": [0], "values": [1.0, 1.0]}]}
    error = math.sqrt(math.fsum((w * (values - 0.25) ** 2).ravel()))
    baseline = error  # the fitted constant is the mean, 1/4
    report = {"comparable": {"results": {
        "fit": {"error": error, "baseline": baseline, "n": 1},
        "decomposition": {"k": 1, "terms": [term]}, "value_range": [0.0, 0.25]}}}
    assert checks.check_weighted_report(report, values, w) == []
    report["comparable"]["results"]["fit"]["error"] = error * 0.99
    assert checks.check_weighted_report(report, values, w)


def test_boolean_error_recomputed():
    values = np.array([[1.0, 0.0], [1.0, 1.0]])
    w = np.full((2, 2), 0.25)
    expr = {"expr": {"op": "or", "left": {"op": "leaf", "name": "a"},
                     "right": {"op": "not", "arg": {"op": "leaf", "name": "b"}}},
            "leaves": {"a": {"positions": [0], "values": [0.0, 1.0]},
                       "b": {"positions": [1], "values": [0.0, 1.0]}}}
    report = {"comparable": {"results": {"expression": expr,
                                         "fit": {"error": 0.0, "n": 2, "baseline": 0.25}}}}
    assert checks.check_boolean_report(report, values, w) == []
    report["comparable"]["results"]["fit"]["error"] = 0.25
    assert checks.check_boolean_report(report, values, w)


def test_adversary_ranges():
    curve = [{"d": 2, "mean_norm": 0.5, "std_norm": 0.1, "mean_score": 0.0}]
    report = {"comparable": {"results": {"curve": curve}}}
    good = "d,mean_norm,std,mean_score\n2,5.0e-01,1.0e-01,0.0e+00\n"
    assert checks.check_adversary(report, good, [2]) == []
    assert checks.check_adversary(report, good.replace("0.0e+00", "6.0e-01"), [2])
    assert checks.check_adversary(report, good.replace("5.0e-01", "nan"), [2])
    assert checks.check_adversary(report, good, [2, 4])


def test_constant_target_allows_rounding_only():
    values = np.ones((2, 2, 2))
    w = np.full((2, 2, 2), 1 / 8)
    almost = 1 - 2 ** -52  # a fit that reaches the constant up to rounding
    term = {"gamma": "1/1", "factors": [
        {"name": "a", "positions": [0], "values": [almost, almost]}]}
    error = math.sqrt(math.fsum((w * (values - almost) ** 2).ravel()))
    assert error > 0.0
    report = {"comparable": {"results": {
        "fit": {"error": error, "baseline": 0.0, "n": 1},
        "decomposition": {"k": 1, "terms": [term]}, "value_range": [0.0, 1.0]}}}
    assert checks.check_weighted_report(report, values, w) == []
    term["factors"][0]["values"] = [0.999, 0.999]
    report["comparable"]["results"]["fit"]["error"] = 1e-3
    assert checks.check_weighted_report(report, values, w)
