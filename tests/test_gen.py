"""Instance generators: structure, density bands, determinism."""

import hashlib
import itertools

import numpy as np
import pytest

from vck_lab import (Box, PartiteSpace, boolean_of_lower_arity, check_shattered,
                     integrate, membership_gadget, parity_triple, quasirandom,
                     vc_k)
from vck_lab.cli import main
from vck_lab.errors import InvalidArgumentError, ResourceLimitError


# -- membership gadget -----------------------------------------------------------

def test_gadget_d1_k1_pattern():
    g = membership_gadget(1, 1)
    assert g.values.tolist() == [[0.0, 1.0]]
    assert vc_k(g, 1, 1).dimension == 1


def test_gadget_d2_witness_part_covers_all_subsets():
    g = membership_gadget(2, 1)
    assert g.shape == (2, 4)
    columns = {tuple(g.values[:, j].tolist()) for j in range(4)}
    assert columns == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}


def test_gadget_d2_k2_exhaustive_dimension():
    g = membership_gadget(2, 2)
    assert g.shape == (2, 2, 16)
    assert vc_k(g, 2, 2).dimension == 2


def test_gadget_canonical_shattering_witnesses():
    g = membership_gadget(3, 1)
    cert = check_shattered(g, Box((tuple(range(3)),)), 1, 0.5, 0.5)
    assert cert is not None and len(cert.witnesses) == 8


def test_gadget_size_cap():
    with pytest.raises(ResourceLimitError):
        membership_gadget(5, 2)


# -- boolean combinations -----------------------------------------------------------

def test_boolcomb_m1_is_single_cylinder():
    out = boolean_of_lower_arity(3, 1, 1, [4, 4, 4], seed=3)
    positions, leaf = out.leaves[0]
    # the relation is the leaf's cylinder or its complement
    from vck_lab.space import cylinder
    cyl = np.broadcast_to(cylinder(leaf.bool_values, positions, 3), (4, 4, 4))
    vals = out.relation.bool_values
    assert np.array_equal(vals, cyl) or np.array_equal(vals, ~cyl)


def test_boolcomb_m0_is_constant():
    out = boolean_of_lower_arity(3, 1, 0, [3, 3, 3], seed=1)
    assert out.relation.values.min() == out.relation.values.max()
    assert out.expression in ("0", "1")


@pytest.mark.parametrize("args, expression, expression_sha, relation_sha", [
    ((3, 1, 5, (4, 4, 4), 11), "((g0|((g1&g2)&~g3))|~g4)", None, "42de71b6c26e0a9a"),
    ((4, 2, 9, (3, 2, 3, 2), 4), "(~g0&(~g1|((((g2|((g3&~g4)&~g5))&~g6)|~g7)&g8)))", None,
     "5c772eadf9df4096"),
    ((3, 1, 40, (5, 5, 5), 7), None, "204d85ac32468cf9", "9e37c756f7c759d1")])
def test_boolcomb_frozen_outputs(args, expression, expression_sha, relation_sha):
    # the expressions and relations the recursive tree builder produced
    *params, seed = args
    out = boolean_of_lower_arity(*params, seed=seed)
    if expression is not None:
        assert out.expression == expression
    else:
        assert hashlib.sha256(out.expression.encode()).hexdigest()[:16] == expression_sha
    bits = np.packbits(out.relation.bool_values).tobytes()
    assert hashlib.sha256(bits).hexdigest()[:16] == relation_sha


def test_boolcomb_deeper_than_the_recursion_limit(tmp_path):
    # every split peels one leaf off, so the tree is about m deep
    m = 2000
    out = boolean_of_lower_arity(3, 1, m, [2, 2, 2], seed=5)
    assert out.expression.count("g") == m
    assert main(["gen", "--kind", "boolcomb", "--params", f"m={m}",
                 "--out", str(tmp_path / "bc.json")]) == 0


def test_boolcomb_leaves_have_bounded_arity():
    out = boolean_of_lower_arity(4, 2, 5, [3, 3, 3, 3], seed=9)
    for positions, leaf in out.leaves:
        assert 1 <= len(positions) <= 2


# -- parity triple ----------------------------------------------------------------------

def test_parity_degenerate_components():
    from vck_lab.gen import parity_relation
    from vck_lab import Relation
    space = PartiteSpace.uniform([3, 3, 3])
    empty = Relation.from_bool(space, (0, 1), np.zeros((3, 3), dtype=bool))
    emptyG = Relation.from_bool(space, (0, 2), np.zeros((3, 3), dtype=bool))
    emptyH = Relation.from_bool(space, (1, 2), np.zeros((3, 3), dtype=bool))
    full = Relation.from_bool(space, (0, 1), np.ones((3, 3), dtype=bool))
    # zero memberships is even; exactly one pair is odd
    assert np.all(parity_relation(empty, emptyG, emptyH).values == 0.0)
    assert np.all(parity_relation(full, emptyG, emptyH).values == 1.0)


def test_parity_rule_oracle():
    pt = parity_triple(4, seed=6)
    for x, y, z in itertools.product(range(4), repeat=3):
        count = pt.F.values[x, y] + pt.G.values[x, z] + pt.H.values[y, z]
        assert pt.relation.values[x, y, z] == count % 2


def test_parity_density_band():
    # 125 cells, p = 1/2: three sigma ~ 0.134
    pt = parity_triple(5, seed=12)
    assert abs(integrate(pt.relation) - 0.5) < 0.14


# -- quasirandom tensors --------------------------------------------------------------------

def test_quasirandom_degenerate():
    space = PartiteSpace.uniform([4, 4])
    assert np.all(quasirandom(space, (0, 1), 0.0, 1).values == 0.0)
    assert np.all(quasirandom(space, (0, 1), 1.0, 1).values == 1.0)


@pytest.mark.parametrize("p", [True, np.True_])
def test_quasirandom_probability_must_be_a_number(p):
    with pytest.raises(InvalidArgumentError, match="must be numbers"):
        quasirandom(PartiteSpace.uniform([2, 2]), (0, 1), p)


def test_quasirandom_density_band():
    space = PartiteSpace.uniform([8, 8])
    R = quasirandom(space, (0, 1), 0.5, seed=21)
    assert abs(integrate(R) - 0.5) < 0.2


def test_quasirandom_determinism_bit_identical():
    space = PartiteSpace.uniform([5, 5])
    a = quasirandom(space, (0, 1), 0.4, seed=33)
    b = quasirandom(space, (0, 1), 0.4, seed=33)
    assert a.values.tobytes() == b.values.tobytes()


def test_generators_identical_across_reconstruction():
    a = parity_triple(4, seed=88)
    b = parity_triple(4, seed=88)
    assert a.relation.values.tobytes() == b.relation.values.tobytes()
    c = boolean_of_lower_arity(3, 1, 3, [4, 4, 4], seed=88)
    d = boolean_of_lower_arity(3, 1, 3, [4, 4, 4], seed=88)
    assert c.relation.values.tobytes() == d.relation.values.tobytes()
    assert c.expression == d.expression


def test_invalid_parameters():
    with pytest.raises(InvalidArgumentError):
        membership_gadget(0, 1)
    with pytest.raises(InvalidArgumentError):
        boolean_of_lower_arity(2, 2, 1, [3, 3], seed=0)
    with pytest.raises(InvalidArgumentError):
        quasirandom(PartiteSpace.uniform([3]), (0,), 1.5, 0)
