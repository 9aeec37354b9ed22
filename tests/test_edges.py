"""Edge paths: diagnostic failures, tie thresholds, stream stability."""

import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vck_lab import (Box, MeasuredFunction, PartiteSpace, Relation, atoms,
                     check_shattered,
                     fuzziness, random_pattern, verify_certificate)
from vck_lab import rng as _rng_mod
from vck_lab.errors import DiagnosticFailureError, InvalidArgumentError, indices
from vck_lab.rng import STREAM_PATTERN, raw64, uniforms
from vck_lab import serialize
from vck_lab.serialize import dumps_canonical, format_float, functions_from_doc

from oracles import dumps_canonical_oracle


def test_fuzziness_height_cap_raises_with_trace():
    # values 0.3 and 0.4 in one cell need two dyadics inside (0.3, 0.4],
    # which first happens at height 4 (5/16 and 3/8); capping at 2 fails loudly
    space = PartiteSpace.uniform([2])
    f = MeasuredFunction(space, (0,), np.array([0.3, 0.4]))
    partition = atoms([], space=space, signature=(0,))
    with pytest.raises(DiagnosticFailureError) as exc:
        fuzziness(f, partition, 0.01, height_cap=2)
    assert len(exc.value.trace) == 2
    witness = fuzziness(f, partition, 0.01, height_cap=6)
    assert witness is not None and witness.height == 4


def test_equal_thresholds_enumerate_free_subsets():
    # at r == s, grid values equal to the threshold sit in both level sets,
    # so one witness covers a whole interval of subsets
    space = PartiteSpace.uniform([2, 1])
    f = MeasuredFunction(space, (0, 1), np.full((2, 1), 0.5))
    cert = check_shattered(f, Box(((0, 1),)), 1, 0.5, 0.5)
    assert cert is not None
    assert [mask for mask, _ in cert.witnesses] == [0, 1, 2, 3]
    assert verify_certificate(f, cert)


def test_unknown_document_keys_rejected():
    with pytest.raises(InvalidArgumentError):
        functions_from_doc({"parts": [], "bogus": 1})
    with pytest.raises(InvalidArgumentError):
        functions_from_doc({"parts": [{"name": "V", "size": 1, "weights": [1.0],
                                       "extra": 2}]})


def test_non_finite_values_cannot_serialize():
    with pytest.raises(InvalidArgumentError):
        dumps_canonical({"x": float("nan")})


EXTREME_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                   2.2250738585072014e-308, 1.7976931348623157e308,
                   -1.7976931348623157e308, 0.1, 1 / 3]


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=8),
                  elements=st.floats(allow_nan=False, allow_infinity=False)
                  | st.sampled_from(EXTREME_DOUBLES)))
@example(np.array(EXTREME_DOUBLES))
def test_float_text_round_trips_bit_for_bit(values):
    text = dumps_canonical({"values": values})
    back = np.array(json.loads(text)["values"], dtype=np.float64)
    assert np.array_equal(back.view(np.int64), values.view(np.int64))
    # the CSV writer spells each double as the JSON encoder does
    flat = values.ravel().tolist()
    assert [format_float(x) for x in flat] == [dumps_canonical(x) for x in flat]
    # files written in the earlier 17-significant-digit spelling load unchanged
    old = np.array([float(f"{x:.16e}") for x in flat], dtype=np.float64)
    assert np.array_equal(old.view(np.int64), values.ravel().view(np.int64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_array_cannot_serialize(bad):
    with pytest.raises(InvalidArgumentError):
        dumps_canonical({"values": np.array([0.5, bad])})
    with pytest.raises(InvalidArgumentError):
        format_float(bad)


def test_numpy_scalars_and_fractions_serialize_as_plain_json():
    doc = {"b": np.bool_(True), "f": np.float32(0.5), "i": np.int64(7),
           "q": Fraction(3, 4), "t": (1, 2.5)}
    assert dumps_canonical(doc) == '{"b":true,"f":0.5,"i":7,"q":"3/4","t":[1,2.5]}'
    with pytest.raises(InvalidArgumentError, match="cannot serialize object"):
        dumps_canonical({"x": object()})


# values whose text the byte table must not write: -0.0 prints "-0.0", the
# others are not 0/1, and the non-finite ones are refused
_NOT_ZERO_ONE = [-0.0, 0.5, 2.0, -1.0, 5e-324, 1.0000000000000002, 0.9999999999999999,
                 1e300, float("nan"), float("inf")]


@st.composite
def _float64_arrays(draw):
    """0/1 float64 arrays of 1-3 axes, empty ones included, some with other
    values mixed in, some strided, transposed or big-endian."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5))
    a = draw(hnp.arrays(np.bool_, shape)).astype(np.float64)
    for _ in range(draw(st.integers(0, 2)) if a.size else 0):
        a.flat[draw(st.integers(0, a.size - 1))] = draw(st.sampled_from(_NOT_ZERO_ONE))
    view = draw(st.sampled_from(["plain", "transposed", "strided", "big-endian"]))
    if view == "transposed":
        return a.T
    if view == "strided":
        return a[..., ::2]
    return a.astype(">f8") if view == "big-endian" else a


_DOCUMENT_VALUES = st.recursive(
    st.one_of(_float64_arrays(), _float64_arrays(),
              hnp.arrays(st.sampled_from([np.bool_, np.int64, np.float32]),
                         hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)),
              st.sampled_from([np.float64(1.0), np.float64(-0.0), np.int64(7), np.bool_(True),
                               np.float32(0.5), np.array(1.0), Fraction(3, 4), 0.0, 1.0,
                               -0.0, True, None, serialize._HOLE,
                               serialize._HOLE_TEXT]),
              st.text(max_size=4)),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["a", "b", "values", serialize._HOLE]), children,
                      max_size=4),
    max_leaves=12)


def _written(dumps, doc):
    try:
        return dumps(doc)
    except InvalidArgumentError as exc:
        return ("refused", str(exc))


@settings(max_examples=300, deadline=None)
@given(_DOCUMENT_VALUES, st.sampled_from([1, 2, 3, 7, serialize._CHUNK]))
def test_canonical_writer_matches_the_standard_encoder(doc, chunk):
    # small chunks put many groups and group boundaries in a small document
    with mock.patch.object(serialize, "_CHUNK", chunk):
        assert _written(dumps_canonical, doc) == _written(dumps_canonical_oracle, doc)


def test_canonical_writer_groups_arrays_across_chunks():
    # arrays on both sides of every group boundary, one longer than a group,
    # and a value in the long one that the byte table must not write
    chunk = serialize._CHUNK
    rng = np.random.default_rng(5)
    arrays = [(rng.random(n) < 0.5).astype(np.float64)
              for n in (chunk - 1, 3, 2 * chunk + 5, 0, 7, chunk)]
    doc = {"arrays": arrays}
    assert dumps_canonical(doc) == dumps_canonical_oracle(doc)
    arrays[2][chunk + 1] = -0.0
    assert dumps_canonical(doc) == dumps_canonical_oracle(doc)
    assert "-0.0" in dumps_canonical(doc)


def test_raw_stream_values_frozen():
    # locks the documented stream layout; these values come from the Philox
    # raw output and must never drift across platforms or library versions
    got = raw64(5, STREAM_PATTERN, 3).tolist()
    assert got == [16212268628386266232, 13728733270418009737, 10160460378280109672]
    u = uniforms(5, STREAM_PATTERN, 2)
    assert np.all((0 <= u) & (u < 1))
    assert u.tolist() == [(v >> 11) * 2.0 ** -53 for v in got[:2]]


def test_pattern_reproducible_after_module_reload():
    a = random_pattern(4, 1, 0.5, seed=123).values.tobytes()
    import importlib
    importlib.reload(_rng_mod)
    b = random_pattern(4, 1, 0.5, seed=123).values.tobytes()
    assert a == b


def _integer_entry_points():
    from vck_lab import (FiberFamilySpec, all_traversals, boolean_of_lower_arity,
                         build_instance, fiber_family, fit_weighted_cylinders,
                         membership_gadget, parity_triple, quasirandomness_curve, vc_k)
    from vck_lab.adversary import inapproximability_scores
    from vck_lab.decomp import fit_boolean_cylinders
    from vck_lab.gowers import multiply_cylinders
    from vck_lab.space import average_out, dyadics, fiber, index_sets
    from vck_lab.serialize import find_function
    from vck_lab.vck import sauer_shelah_bound, vc_k_slicewise
    space = PartiteSpace.uniform([2, 2])
    E = Relation(space, (0, 1), np.eye(2), name="E")
    row = Relation(space, (0,), np.ones(2), name="row")
    H = random_pattern(2, 1, 0.5, 0)
    # a 3-ary relation with a Boolean fit to make and a coordinate to anchor
    E3 = boolean_of_lower_arity(3, 1, 2, [6, 6, 6], seed=2).relation
    # name -> (call, an integer argument it accepts)
    return {
        "fiber anchors": (lambda i: FiberFamilySpec(1, (i,), ((0,),)), 0),
        "fiber params": (lambda i: FiberFamilySpec(1, (0,), ((i,),)), 0),
        "find_function": (lambda i: find_function([E], signature=[0, i]), 1),
        "multiply_cylinders": (lambda i: multiply_cylinders(E, [(row, [i])]), 0),
        "all_traversals": (lambda i: all_traversals(E, [i, 1]), 1),
        "boolean_of_lower_arity": (lambda i: boolean_of_lower_arity(2, 1, 1, [i, 2]), 2),
        "embedding coordinate": (lambda i: build_instance(E, {i: (0, 1), 1: (0, 1)}, H), 0),
        "embedded vertex": (lambda i: build_instance(E, {0: (i, 1), 1: (0, 1)}, H), 0),
        "anchor vertex": (
            lambda i: build_instance(E3, {0: (0, 1), 1: (0, 1)}, H, anchors={2: i}), 0),
        "fiber position": (lambda i: fiber(E, {i: 0}), 1),
        "fiber vertex": (lambda i: fiber(E, {0: i}), 1),
        "average_out position": (lambda i: average_out(E, i), 1),
        "vc_k_slicewise k": (lambda i: vc_k_slicewise(E, i), 1),
        "sauer_shelah_bound": (lambda i: sauer_shelah_bound(i, 1, 2), 2),
        # counts, which once failed with a bare TypeError deep inside
        "fiber height": (lambda i: fiber_family(E, FiberFamilySpec(i, (0,), ((0,),))), 2),
        "membership_gadget": (lambda i: membership_gadget(i, 1), 2),
        "parity_triple": (lambda i: parity_triple(i), 3),
        "uniform part sizes": (lambda i: PartiteSpace.uniform([i]), 2),
        "boolean_of_lower_arity leaves": (
            lambda i: boolean_of_lower_arity(3, 1, i, [2, 2, 2]), 1),
        # counts and seeds that were truncated or failed with a bare TypeError
        "fit k": (lambda i: fit_weighted_cylinders(H, i, 2), 1),
        "fit terms": (lambda i: fit_weighted_cylinders(H, 1, i), 2),
        "fit sweeps": (lambda i: fit_weighted_cylinders(H, 1, 2, als_iters=i), 2),
        "fit seed": (lambda i: fit_weighted_cylinders(H, 1, 2, seed=i), 3),
        # the Boolean fitter once fitted 3 rules for n_max = 2.5
        "boolean fit k": (lambda i: fit_boolean_cylinders(E3, i, 2), 1),
        "boolean fit terms": (lambda i: fit_boolean_cylinders(E3, 1, i), 2),
        "score terms": (lambda i: inapproximability_scores([H], 1, i), 2),
        "score restarts": (lambda i: inapproximability_scores([H], 1, 2, restarts=i), 2),
        "pattern arity": (lambda i: random_pattern(2, i, 0.5, 0), 1),
        "pattern seed": (lambda i: random_pattern(2, 1, 0.5, i), 0),
        "pattern trial": (lambda i: random_pattern(2, 1, 0.5, 0, i), 1),
        "curve trials": (lambda i: quasirandomness_curve(1, [2], i, 0), 2),
        "vc_k k": (lambda i: vc_k(E, i, 1), 1),
        "vc_k distinguished": (lambda i: vc_k(E, 1, i), 1),
        "vc_k cap": (lambda i: vc_k(E, 1, 1, cap=i), 4),
        "check_shattered distinguished": (
            lambda i: check_shattered(E, Box(((0, 1),)), i, 0.5, 0.5), 1),
        "dyadics": (lambda i: dyadics(i), 2),
        "index_sets": (lambda i: index_sets(i, 1), 3),
    }


@pytest.mark.parametrize("entry", sorted(_integer_entry_points()))
def test_integer_arguments_refuse_floats(entry):
    # int() once truncated these: anchor 0.9 became 0, signature [0.2, 1.9]
    # matched (0, 1); numpy integers still pass
    call, good = _integer_entry_points()[entry]
    call(np.int64(good))
    with pytest.raises(InvalidArgumentError, match="must be integers"):
        call(good + 0.2)


@pytest.mark.parametrize("entry", sorted(_integer_entry_points()))
def test_integer_arguments_refuse_bools(entry):
    # operator.index(True) is 1: fiber(f, {True: 2}) once pinned coordinate 1
    call, _ = _integer_entry_points()[entry]
    with pytest.raises(InvalidArgumentError, match="must be integers"):
        call(True)


_index_values = st.one_of(st.integers(-4, 4), st.booleans(), st.floats(-4, 4),
                          st.integers(-4, 4).map(np.int64), st.integers(0, 4).map(np.uint8),
                          st.booleans().map(np.bool_))
_bounds = st.none() | st.integers(-4, 4)


@settings(max_examples=300, deadline=None)
@given(st.lists(_index_values, max_size=4), _bounds, _bounds)
def test_indices_is_one_literal_rule(values, low, high):
    integral = [isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values]
    outside = [v for v in values
               if (low is not None and v < low) or (high is not None and v >= high)]
    if not all(integral):
        with pytest.raises(InvalidArgumentError, match="^x must be integers: "):
            indices(iter(values), "x", low, high)
    elif outside:
        with pytest.raises(InvalidArgumentError, match=f"^x must be .*, got {outside[0]}$"):
            indices(iter(values), "x", low, high)
    else:
        got = indices(iter(values), "x", low, high)
        assert got == tuple(map(int, values)) and all(type(v) is int for v in got)


# -- refusals ---------------------------------------------------------------------------

def _uniform(sizes, signature=None, values=None, signed=False):
    """A function on a uniform space: zeros unless values are given."""
    space = PartiteSpace.uniform(sizes)
    signature = tuple(range(len(sizes))) if signature is None else signature
    values = np.zeros(space.sizes(signature)) if values is None else values
    return MeasuredFunction(space, signature, values, signed=signed)


def _pattern(sizes):
    """A 0/1 pattern on a uniform grid, for ``build_instance``."""
    return Relation.from_bool(PartiteSpace.uniform(sizes), tuple(range(len(sizes))),
                              np.indices(sizes).sum(axis=0) % 2 == 0)


def _build(cert, pattern_sizes=(2, 2)):
    from vck_lab import build_instance
    return build_instance(_uniform([4, 4]), cert, _pattern(pattern_sizes))


def _cert(box, witnesses=()):
    from vck_lab import ShatteringCertificate
    return ShatteringCertificate(box, 1, 0.5, 0.5, witnesses)


def _decomposition(signature, terms=()):
    from vck_lab import CylinderDecomposition
    return CylinderDecomposition(PartiteSpace.uniform([2, 3]), signature, 1, terms)


def _half():
    return _uniform([2, 2], values=np.full((2, 2), 0.5))


def _refusals():
    """(id, call, error type, message fragment): one refusal of each kind
    that the module tests do not otherwise reach."""
    from vck_lab import (CylinderTerm, FiberFamilySpec, all_traversals, approx_by_fibers,
                         fiber_family, fit_boolean_cylinders, fit_weighted_cylinders,
                         inner, l2_error, project_simple, sym_diff, vc_k)
    from vck_lab.check import box_side, read_certificate
    from vck_lab.cli import _parse_params
    from vck_lab.decomp import fiber_pool
    from vck_lab.errors import ResourceLimitError
    from vck_lab.gowers import multiply_cylinders
    from vck_lab.space import grid_masks

    space = PartiteSpace.uniform([2, 3])
    wrong_factor = CylinderTerm(Fraction(1), {(0,): MeasuredFunction(space, (1,), np.zeros(3))})
    spec = FiberFamilySpec(1, (0,), ())
    unary = Relation.from_bool(PartiteSpace.uniform([2, 2]), (0,), np.array([True, False]))
    other = Relation.from_bool(unary.space, (1,), np.array([True, False]))
    return [
        ("pattern-sides", lambda: _build({}, (2, 3)), InvalidArgumentError,
         "pattern must have equal part sizes"),
        ("certificate-arity", lambda: _build(_cert([(0, 1)]), (2, 2, 2)),
         InvalidArgumentError, "pattern arity 3 does not match certificate box dimension 1"),
        ("certificate-sides", lambda: _build(_cert([(0, 1, 2)])), InvalidArgumentError,
         "certificate box sides must match pattern size"),
        ("certificate-slices", lambda: _build(_cert([(0, 1)])), InvalidArgumentError,
         "certificate does not cover every pattern slice"),
        ("embedding-arity", lambda: _build({0: (0, 1)}), InvalidArgumentError,
         "embedding fixes 1 coordinates for a 2-ary pattern"),
        ("embedding-sides", lambda: _build({0: (0, 1), 1: (0, 1, 2)}), InvalidArgumentError,
         "embedded vertex tuples must match pattern size"),
        ("box-side-empty", lambda: box_side([]), InvalidArgumentError,
         "box sides must be non-empty"),
        ("box-side-repeats", lambda: box_side([1, 1]), InvalidArgumentError,
         "duplicate vertices in box side (1, 1)"),
        ("certificate-grid", lambda: read_certificate(
            {"box": [list(range(63))], "distinguished": 1, "r": "1/2", "s": "1/2",
             "witnesses": []}), InvalidArgumentError, "certificate box has 63 grid points"),
        ("params-item", lambda: _parse_params("n=3,p", {"n": int, "p": float}),
         InvalidArgumentError, "malformed parameter 'p' (expected key=value)"),
        ("gamma", lambda: CylinderTerm(Fraction(3, 2), {}), InvalidArgumentError,
         "gamma 3/2 outside [0, 1]"),
        ("factor-signature", lambda: _decomposition((0, 1), (wrong_factor,)),
         InvalidArgumentError, "factor signature (1,) != (0,)"),
        ("l2-signature", lambda: l2_error(_uniform([2, 3]), _decomposition((1, 0))),
         InvalidArgumentError, "decomposition targets a different signature"),
        ("sym-diff-values", lambda: sym_diff(_half(), None), InvalidArgumentError,
         "sym_diff needs a Boolean relation"),
        ("pool-values", lambda: fiber_pool(_half(), 1), InvalidArgumentError,
         "fiber_pool needs a Boolean relation"),
        ("boolean-fit-values", lambda: fit_boolean_cylinders(_half(), 1, 2),
         InvalidArgumentError, "fit_boolean_cylinders needs a Boolean relation"),
        ("init-signature", lambda: fit_weighted_cylinders(
            _uniform([2, 3]), 1, 2, init=_decomposition((1, 0))), InvalidArgumentError,
         "init decomposition targets a different signature"),
        ("family-arity", lambda: fiber_family(_uniform([3]), spec), InvalidArgumentError,
         "function must have arity >= 2"),
        ("approx-arity", lambda: approx_by_fibers(_uniform([3]), 0.1, 1, spec),
         InvalidArgumentError, "need arity >= 2"),
        ("atoms-signatures", lambda: atoms([unary, other]), InvalidArgumentError,
         "generators must share a signature"),
        ("atoms-nothing", lambda: atoms([]), InvalidArgumentError,
         "atoms with no generators needs space and signature"),
        ("partition-cover", lambda: project_simple(
            _uniform([2, 2]), atoms([], space=unary.space, signature=(0,))),
         InvalidArgumentError, "partition does not cover the function grid"),
        ("cylinder-every-coordinate", lambda: multiply_cylinders(
            _uniform([2, 2]), [(_uniform([2, 2]), (0, 1))]), InvalidArgumentError,
         "cylinder element must depend on a strict subset of coordinates"),
        ("cylinder-signature", lambda: multiply_cylinders(
            _uniform([2, 3]), [(_uniform([2, 3], (1,)), (0,))]), InvalidArgumentError,
         "cylinder factor signature (1,) != (0,)"),
        ("tensor-shape", lambda: _uniform([2, 2], values=np.zeros((2, 3))),
         InvalidArgumentError, "tensor shape (2, 3) != signature extents (2, 2)"),
        ("grid-masks", lambda: grid_masks(np.zeros((63, 1), dtype=bool)), ResourceLimitError,
         "63 grid points overflow an int64 bitmask"),
        ("inner-signature", lambda: inner(_uniform([2, 2]), _uniform([2, 2], (1, 0))),
         InvalidArgumentError, "signature mismatch: (0, 1) vs (1, 0)"),
        ("traversal-counts", lambda: all_traversals(_uniform([2, 2]), [1]),
         InvalidArgumentError, "need one count per coordinate, got (1,)"),
        ("box-sides", lambda: check_shattered(_uniform([2, 2]), Box(((0,), (0,))), 1, 0.5, 0.5),
         InvalidArgumentError, "box has 2 sides for 1 searched coordinates"),
        ("vc-k-arity", lambda: vc_k(_uniform([2, 2]), 2, 0), InvalidArgumentError,
         "vc_k needs arity k+1, got k=2 and arity 2"),
    ]


@pytest.mark.parametrize("case", _refusals(), ids=lambda case: case[0])
def test_refusals_name_what_they_refuse(case):
    _, call, error, fragment = case
    with pytest.raises(error) as exc:
        call()
    assert fragment in str(exc.value)


def test_signed_function_round_trips_through_its_document():
    from vck_lab.serialize import functions_to_doc
    f = _uniform([2, 3], values=np.array([[-1.0, -0.5, 0.0], [0.25, 0.5, 1.0]]), signed=True)
    doc = json.loads(dumps_canonical(functions_to_doc(f.space, [f])))
    assert doc["functions"][0]["signed"] is True
    space, (g,) = functions_from_doc(doc)
    assert space == f.space and g.signed and g == f and type(g) is MeasuredFunction
