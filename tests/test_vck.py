"""Shattering search, certificates, trace counts, and combinatorial bounds."""

import itertools
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vck_lab import (Box, MeasuredFunction, PartiteSpace, Relation, ShatteringCertificate,
                     check_shattered, membership_gadget, parity_triple,
                     sauer_shelah_bound, trace_count, vc_k, vc_k_slicewise,
                     verify_certificate)
from vck_lab.check import read_certificate, read_instance, shatters
from vck_lab.cli import main
from vck_lab.errors import InvalidArgumentError, ResourceLimitError
from vck_lab.serialize import dumps_canonical, functions_to_doc, write_canonical
from vck_lab.vck import _LevelScan

from oracles import covered_bound_oracle, vc_k_oracle, verify_certificate_oracle


def vc1_oracle(matrix) -> int:
    """Definition-literal classical VC dimension of the fiber family
    {E_b : b in columns} over the row set: largest d such that some
    d-element row subset A has all 2**d subsets realized as A & E_b."""
    n_rows, n_cols = matrix.shape
    fibers = [frozenset(np.nonzero(matrix[:, b])[0].tolist()) for b in range(n_cols)]
    best = 0
    for d in range(1, n_rows + 1):
        found = False
        for A in itertools.combinations(range(n_rows), d):
            a_set = frozenset(A)
            traces = {a_set & fb for fb in fibers}
            if len(traces) == 2 ** d:
                found = True
                break
        if not found:
            break
        best = d
    return best


def relation_from_matrix(matrix) -> Relation:
    matrix = np.asarray(matrix, dtype=np.float64)
    space = PartiteSpace.uniform(list(matrix.shape))
    return Relation(space, (0, 1), matrix)


# -- check_shattered -----------------------------------------------------------

def test_membership_gadget_box_has_all_witnesses():
    g = membership_gadget(2, 1)
    cert = check_shattered(g, Box(((0, 1),)), 1, 0.5, 0.5)
    assert cert is not None
    assert len(cert.witnesses) == 4
    assert verify_certificate(g, cert)


def test_all_ones_function_cannot_shatter():
    f = MeasuredFunction.constant(PartiteSpace.uniform([2, 3]), (0, 1), 1.0)
    assert check_shattered(f, Box(((0, 1),)), 1, 0.3, 0.7) is None


def test_equality_relation_two_box_unshatterable():
    # oracle: exhaustive witness scan for the full-box subset
    eq = relation_from_matrix(np.eye(3))
    box = Box(((0, 1),))
    full_possible = any(
        all(eq.values[a, b] == 1.0 for a in (0, 1)) for b in range(3))
    assert not full_possible
    assert check_shattered(eq, box, 1, 0.5, 0.5) is None


@pytest.mark.parametrize("side", [(0, 1.5), (0, 1.0), (0, "1")])
def test_box_vertices_must_be_integers(side):
    # int() once truncated 1.5 to vertex 1
    with pytest.raises(InvalidArgumentError, match="box vertices must be integers"):
        Box((side,))
    assert Box(((np.int64(0), 1),)).subsets == ((0, 1),)


def test_check_shattered_cap_is_explicit():
    g = membership_gadget(2, 1)
    with pytest.raises(ResourceLimitError):
        check_shattered(g, Box(((0, 1),)), 1, 0.5, 0.5, cap=1)


def test_certificate_round_trip():
    g = membership_gadget(2, 1)
    cert = check_shattered(g, Box(((0, 1),)), 1, 0.5, 0.5)
    back = read_certificate(json.loads(dumps_canonical(cert.to_doc())))
    assert _fields(back) == _fields(cert)
    assert [mask for mask, _ in back.witnesses] == list(range(4))


def _fields(cert) -> tuple:
    return cert.box, cert.distinguished, cert.r, cert.s, cert.witnesses


def _replace(cert, **changes) -> ShatteringCertificate:
    """The certificate with some fields changed, built anew under its rules."""
    fields = dict(zip(("box", "distinguished", "r", "s", "witnesses"), _fields(cert)))
    return ShatteringCertificate(**{**fields, **changes})


def _verify_exit(cert_doc, f) -> int:
    """The exit code of `vck-lab verify` on the certificate document and f."""
    with tempfile.TemporaryDirectory() as tmp:
        cert_path, inst_path = os.path.join(tmp, "cert.json"), os.path.join(tmp, "inst.json")
        write_canonical(cert_path, cert_doc)
        write_canonical(inst_path, functions_to_doc(f.space, [f]))
        return main(["verify", cert_path, inst_path, "--out", os.path.join(tmp, "v.json")])


def test_certificate_with_r_above_s_is_refused():
    # verify once accepted r = 1, s = 0 with one witness for every subset
    g = membership_gadget(2, 1)
    cert = check_shattered(g, Box(((0, 1),)), 1, 0.5, 0.5)
    with pytest.raises(InvalidArgumentError, match="r <= s"):
        _replace(cert, r=1.0, s=0.0)
    cert_doc = dict(cert.to_doc(), r="1/1", s="0/1",
                    witnesses=[dict(rec, witness=0) for rec in cert.to_doc()["witnesses"]])
    with pytest.raises(InvalidArgumentError, match="r <= s"):
        read_certificate(cert_doc)
    assert _verify_exit(cert_doc, g) == 2


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(-2, 5), st.integers(-5, 8), max_size=6),
       st.lists(st.lists(st.integers(-1, 2), min_size=1, max_size=3),
                min_size=1, max_size=2),
       st.integers(-1, 2))
# witness vertices -1 (numpy would wrap it) and one past the last vertex
@example({0: -1}, [[0, 1]], 1)
@example({0: 4}, [[0, 1]], 1)
def test_tampered_certificate_is_false_never_raises(witnesses, box, distinguished):
    g = membership_gadget(2, 1)
    cert = check_shattered(g, Box(((0, 1),)), 1, 0.5, 0.5)
    sides = tuple(tuple(dict.fromkeys(side)) for side in box)
    for tampered in (_replace(cert, witnesses={**dict(cert.witnesses), **witnesses}.items()),
                     _replace(cert, box=sides),
                     _replace(cert, distinguished=distinguished)):
        if _fields(tampered) == _fields(cert):
            continue
        assert verify_certificate(g, tampered) is False


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_verify_matches_per_bit_oracle(data):
    if data.draw(st.booleans()):
        d, k = data.draw(st.sampled_from([(2, 1), (3, 1), (1, 2), (2, 2)]))
        f = membership_gadget(d, k)
        box = Box(tuple(tuple(range(d)) for _ in range(k)))
    else:
        k = data.draw(st.integers(1, 2))
        sizes = [data.draw(st.integers(1, 3 - k)) for _ in range(k)] \
            + [data.draw(st.integers(1, 8))]
        vals = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                                  min_size=math.prod(sizes), max_size=math.prod(sizes)))
        f = MeasuredFunction(PartiteSpace.uniform(sizes), tuple(range(k + 1)),
                             np.reshape(vals, sizes))
        box = Box(tuple(tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                                 max_size=n, unique=True)))
                        for n in sizes[:k]))
    r = data.draw(st.sampled_from([0.0, 0.25, 0.5]))
    s = data.draw(st.sampled_from([0.5, 0.75, 1.0]))
    witness = st.integers(-2, f.shape[k] + 1)
    cert = check_shattered(f, box, k, r, s)
    if cert is None:
        cert = ShatteringCertificate(box.subsets, k, r, s, [
            (mask, data.draw(witness)) for mask in range(1 << box.grid_size)])
    witnesses = dict(cert.witnesses)
    masks = st.sampled_from(sorted(witnesses))
    tamper = data.draw(st.sampled_from(["none", "witness", "drop", "extra", "r", "s",
                                        "distinguished", "box"]))
    if tamper == "witness":
        cert = _replace(cert, witnesses={**witnesses,
                                         data.draw(masks): data.draw(witness)}.items())
    elif tamper == "drop":
        drop = data.draw(masks)
        cert = _replace(cert, witnesses=[(m, b) for m, b in cert.witnesses if m != drop])
    elif tamper == "extra":
        cert = _replace(cert, witnesses=cert.witnesses + ((1 << box.grid_size, 0),))
    elif tamper in ("r", "s"):
        thresholds = {"r": cert.r, "s": cert.s,
                      tamper: data.draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))}
        if thresholds["r"] > thresholds["s"]:
            # no certificate has r > s: none is built, and verify refuses one
            with pytest.raises(InvalidArgumentError, match="r <= s"):
                _replace(cert, **thresholds)
            assert _verify_exit(dict(cert.to_doc(), **thresholds), f) == 2
            return
        cert = _replace(cert, **thresholds)
    elif tamper == "distinguished":
        cert = _replace(cert, distinguished=data.draw(st.integers(-1, k + 1)))
    elif tamper == "box":
        cert = _replace(cert, box=tuple(
            tuple(data.draw(st.lists(st.integers(-1, 3), min_size=1, max_size=3,
                                     unique=True))) for _ in range(data.draw(st.integers(1, 2)))))
    expected = verify_certificate_oracle(f, cert)
    assert verify_certificate(f, cert) is expected
    # as documents, through the checker's reader and `vck-lab verify`; an
    # extra mask is written as a subset listed twice, which is invalid too
    cert_doc = json.loads(dumps_canonical(cert.to_doc()))
    function = read_instance(json.loads(dumps_canonical(functions_to_doc(f.space, [f]))))[0]
    assert shatters(function.values, function.shape, read_certificate(cert_doc)) is expected
    assert _verify_exit(cert_doc, f) == (0 if expected else 2)


def test_certificate_subset_outside_box_rejected():
    g = membership_gadget(2, 1)
    doc = check_shattered(g, Box(((0, 1),)), 1, 0.5, 0.5).to_doc()
    doc["witnesses"][-1]["subset"].append([5])
    with pytest.raises(InvalidArgumentError, match="lies outside the box"):
        read_certificate(doc)


def test_cap_beyond_int64_bitmask_refused():
    g = membership_gadget(2, 1)
    with pytest.raises(InvalidArgumentError):
        check_shattered(g, Box(((0, 1),)), 1, 0.5, 0.5, cap=63)
    assert check_shattered(g, Box(((0, 1),)), 1, 0.5, 0.5, cap=62) is not None


# -- vc_k ----------------------------------------------------------------------

def test_unary_function_has_no_searched_coordinate():
    f = MeasuredFunction(PartiteSpace.uniform([2]), (0,), np.array([0.0, 1.0]))
    with pytest.raises(InvalidArgumentError):
        vc_k(f, 0, 0)


def test_full_relation_has_dimension_zero():
    full = relation_from_matrix(np.ones((3, 4)))
    res = vc_k(full, 1, 1)
    assert res.dimension == 0 and res.certificate is None and res.complete


def test_equality_relation_dimension_one():
    for n in (2, 3, 5):
        eq = relation_from_matrix(np.eye(n))
        res = vc_k(eq, 1, 1)
        assert res.dimension == 1
        assert verify_certificate(eq, res.certificate)
        assert vc1_oracle(np.eye(n)) == 1


def test_membership_gadget_dimension_exact():
    for d, k in [(1, 1), (2, 1), (3, 1), (2, 2)]:
        g = membership_gadget(d, k)
        res = vc_k(g, k, k)
        assert res.dimension == d, (d, k)
        assert res.complete
        assert verify_certificate(g, res.certificate)


def test_membership_gadget_d1_shape():
    g = membership_gadget(1, 1)
    assert g.shape == (1, 2)
    assert g.values.tolist() == [[0.0, 1.0]]


def test_incomplete_flag_when_capped():
    g = membership_gadget(4, 1)
    res = vc_k(g, 1, 1, cap=2)
    assert not res.complete
    assert res.dimension == 2
    assert verify_certificate(g, res.certificate)


def test_threshold_narrowing_never_shrinks_dimension():
    # a certificate at (r, s) stays valid at any inner pair (r', s')
    rng = np.random.default_rng(5)
    space = PartiteSpace.uniform([4, 6])
    for seed in range(10):
        vals = np.random.default_rng(seed).random((4, 6))
        f = MeasuredFunction(space, (0, 1), vals)
        wide = vc_k(f, 1, 1, 0.25, 0.75).dimension
        inner_pair = vc_k(f, 1, 1, 0.4, 0.6).dimension
        assert wide <= inner_pair


# -- slicewise -----------------------------------------------------------------

def test_slicewise_matches_max_over_distinguished_at_base_arity():
    vals = (np.random.default_rng(3).random((3, 3)) < 0.5).astype(float)
    E = relation_from_matrix(vals)
    by_hand = max(vc_k(E, 1, d).dimension for d in (0, 1))
    assert vc_k_slicewise(E, 1) == by_hand


def test_slicewise_constant_is_zero():
    f = MeasuredFunction.constant(PartiteSpace.uniform([3, 3, 3]), (0, 1, 2), 0.5)
    assert vc_k_slicewise(f, 2, 0.25, 0.75) == 0


@pytest.mark.parametrize("k", [-1, 0, 2])
def test_slicewise_refuses_k_outside_the_arity(k):
    # k = -1 once pinned every coordinate and read 0
    E = Relation(PartiteSpace.uniform([2, 2]), (0, 1), np.eye(2), name="E")
    with pytest.raises(InvalidArgumentError, match=r"k must be in \[1, 2\), got"):
        vc_k_slicewise(E, k)


def test_slicewise_boolean_combination_reported():
    # ternary Boolean combination of binary relations has a finite value
    from vck_lab import boolean_of_lower_arity
    out = boolean_of_lower_arity(3, 2, 3, [3, 3, 3], seed=1)
    val = vc_k_slicewise(out.relation, 2)
    assert 0 <= val <= 3


# -- trace counting -------------------------------------------------------------

def test_trace_count_full_relation():
    full = relation_from_matrix(np.ones((4, 5)))
    assert trace_count(full, Box(((0, 1, 2),)), 1) == 1


def test_trace_count_membership_gadget_all_traces():
    g = membership_gadget(3, 1)
    assert trace_count(g, Box(((0, 1, 2),)), 1) == 8


def test_trace_count_equality_on_five():
    # oracle: direct enumeration of fiber intersections
    eq = relation_from_matrix(np.eye(5))
    box = (0, 1, 2)
    traces = {frozenset(i for i in box if np.eye(5)[i, b] == 1.0) for b in range(5)}
    assert len(traces) == 4
    assert trace_count(eq, Box((box,)), 1) == 4


def test_trace_count_requires_boolean():
    f = MeasuredFunction.constant(PartiteSpace.uniform([3, 3]), (0, 1), 0.5)
    with pytest.raises(InvalidArgumentError):
        trace_count(f, Box(((0, 1),)), 1)


# -- combinatorial bounds --------------------------------------------------------

def test_sauer_shelah_small_values():
    assert sauer_shelah_bound(5, 1, 3) == 16
    assert sauer_shelah_bound(7, 1, 1) == 1
    assert sauer_shelah_bound(3, 2, 7) == 466


def test_sauer_shelah_big_integers():
    # far beyond 128-bit
    val = sauer_shelah_bound(50, 3, 40)
    assert val > 2 ** 200


# -- permutation bound and parity sentinel ---------------------------------------

def test_permutation_dimension_bound():
    # any coordinate permutation of f has dimension at most 2**(d**k)
    space = PartiteSpace.uniform([3, 3, 3])
    r, s = 0.25, 0.75
    for seed in range(6):
        vals = np.random.default_rng(seed).random((3, 3, 3))
        f = MeasuredFunction(space, (0, 1, 2), vals)
        d = vc_k(f, 2, 2, r, s).dimension
        bound = 2 ** (d ** 2) if d > 0 else 1
        for sigma in itertools.permutations(range(3)):
            g = MeasuredFunction(space, (0, 1, 2), np.transpose(vals, sigma))
            dg = vc_k(g, 2, 2, r, s).dimension
            assert dg <= bound, (seed, sigma, d, dg)


def test_parity_sentinel_under_bound():
    # regression sentinel: small parity instances stay far below 65
    for n in (4, 6):
        triple = parity_triple(n, seed=n)
        dims = [vc_k(triple.relation, 2, dist).dimension for dist in (0, 1, 2)]
        assert max(dims) <= 65
        assert max(dims) <= 3  # attainable box size at |V| <= 6 with grid cap


# -- batched level scan against the per-box oracle ---------------------------------

LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
# equal pairs put grid values exactly on r = s; the others leave values
# strictly inside (r, s)
THRESHOLDS = ((0.5, 0.5), (0.0, 0.0), (1.0, 1.0), (0.25, 0.75), (0.25, 0.5), (0.5, 0.75))


@st.composite
def search_problems(draw):
    """A (k+1)-ary function on small parts whose witness columns repeat,
    with a threshold pair and a grid cap that may stop the search."""
    k = draw(st.sampled_from((1, 2)))
    sides = draw(st.lists(st.integers(1, 6 if k == 1 else 3), min_size=k, max_size=k))
    cells = math.prod(sides)
    distinct = draw(st.integers(1, 12))
    columns = np.array(draw(st.lists(st.sampled_from(LEVELS), min_size=cells * distinct,
                                     max_size=cells * distinct))).reshape(cells, distinct)
    # 1 to 40 witnesses: fewer and more than the 2**(d**k) a level needs
    picks = draw(st.lists(st.integers(0, distinct - 1), min_size=1, max_size=40))
    distinguished = draw(st.integers(0, k))
    values = np.moveaxis(columns[:, picks].reshape(sides + [len(picks)]), -1, distinguished)
    f = MeasuredFunction(PartiteSpace.uniform(list(values.shape)), tuple(range(k + 1)),
                         values)
    r, s = draw(st.sampled_from(THRESHOLDS))
    cap = draw(st.sampled_from((1, 2, 4, 16)))
    return f, k, distinguished, r, s, cap


@settings(max_examples=300, deadline=None)
@given(search_problems())
def test_vc_k_matches_per_box_oracle(problem):
    f, k, distinguished, r, s, cap = problem
    result = vc_k(f, k, distinguished, r, s, cap=cap)
    dimension, cert, complete = vc_k_oracle(f, k, distinguished, r, s, cap=cap)
    assert (result.dimension, result.complete) == (dimension, complete)
    assert (result.certificate is None) == (cert is None)
    if cert is not None:
        assert result.certificate.to_doc() == cert.to_doc()
    assert [level.d for level in result.levels] == list(range(1, len(result.levels) + 1))
    assert all(level.checked <= level.boxes for level in result.levels)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_covered_bound_matches_sort_oracle(data):
    # random <= r tables: values 0 or 1 against r = 0.5, batches of sorted
    # vertex combinations per side, keys of 1 to 9 bits (uint8 and uint16)
    k = data.draw(st.sampled_from((1, 2)))
    d = data.draw(st.integers(1, 9 if k == 1 else 3))
    sides = [data.draw(st.integers(d, d + 3)) for _ in range(k)]
    witnesses = data.draw(st.integers(1, 70))
    bits = data.draw(st.lists(st.booleans(), min_size=math.prod(sides) * witnesses,
                              max_size=math.prod(sides) * witnesses))
    values = np.array(bits, dtype=np.float64).reshape(sides + [witnesses])
    f = MeasuredFunction(PartiteSpace.uniform(sides + [witnesses]), tuple(range(k + 1)),
                         values)
    scan = _LevelScan(f, k, 0.5, 0.5)
    boxes = data.draw(st.lists(st.tuples(*[
        st.lists(st.integers(0, n - 1), min_size=d, max_size=d, unique=True).map(sorted)
        for n in sides]), min_size=1, max_size=12))
    combos = np.array(boxes, dtype=np.int64)
    assert scan.covered_bound(combos).tolist() == covered_bound_oracle(scan, combos).tolist()


def test_count_bound_ends_search_without_scanning():
    # 3x3 boxes need 512 distinct witnesses; 256 cannot supply them
    space = PartiteSpace.uniform([4, 4, 256])
    vals = np.random.default_rng(3).integers(0, 2, (4, 4, 256)).astype(float)
    res = vc_k(MeasuredFunction(space, (0, 1, 2), vals), 2, 2)
    assert res.dimension == 2 and res.complete
    last = res.levels[-1]
    assert (last.d, last.boxes, last.checked, last.count_bound) == (3, 0, 0, True)


def test_level_counters_on_membership_gadget():
    g = membership_gadget(3, 1)
    res = vc_k(g, 1, 1)
    assert res.dimension == 3
    # the gadget's first box of every level is shattered
    assert [(lv.d, lv.checked, lv.count_bound) for lv in res.levels] == [
        (1, 1, False), (2, 1, False), (3, 1, False)]


@pytest.mark.parametrize("r, s, cap", [
    (math.nan, math.nan, 16), (0.5, math.inf, 16), (-math.inf, 0.5, 16),
    (0.75, 0.25, 16), (0.5, 0.5, 0), (0.5, 0.5, -1), (0.5, 0.5, 63)])
def test_vc_k_refuses_bad_arguments(r, s, cap):
    g = membership_gadget(2, 1)
    with pytest.raises(InvalidArgumentError):
        vc_k(g, 1, 1, r, s, cap=cap)
