import cmath
import itertools
import math

import numpy as np
import pytest

from etfforge.groupring import (
    MAX_GROUP_ORDER,
    AbelianGroup,
    Character,
    characters_of,
    real_character,
)
from reference_ring import GroupRingElement

GROUPS = [
    AbelianGroup([2]),
    AbelianGroup([3]),
    AbelianGroup([6]),
    AbelianGroup([2, 4]),
    AbelianGroup([3, 3]),
    AbelianGroup([2, 2, 2]),
]


def _random_element(group, rng):
    return GroupRingElement(group, rng.integers(-5, 6, size=group.order))


# tuple arithmetic, the reference for the index tables of AbelianGroup
def _add(group, g, h):
    return tuple((a + b) % q for a, b, q in zip(g, h, group.factors))


def _sub(group, g, h):
    return tuple((a - b) % q for a, b, q in zip(g, h, group.factors))


def _neg(group, g):
    return tuple((-a) % q for a, q in zip(g, group.factors))


def _translation_lift(x: GroupRingElement) -> np.ndarray:
    """The f x f integer matrix with (a, b) entry x(a - b)."""
    g = x.group
    return x.coeffs[g.add_index[:, g.neg_index]]


def test_group_indexing_row_major():
    g = AbelianGroup([2, 3])
    assert g.elements == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
    for i, el in enumerate(g.elements):
        assert g.index(el) == i
        assert g.element(i) == el
    assert g.element(g.add_index[g.index((1, 2)), g.index((1, 2))]) == (0, 1)
    assert g.element(g.neg_index[g.index((1, 1))]) == (1, 2)
    assert _sub(g, (0, 1), (1, 2)) == (1, 2)


@pytest.mark.parametrize("factors", [(2,), (9,), (2,) * 6, (3, 3, 3), (2, 3)])
def test_index_tables_match_tuple_arithmetic(factors):
    g = AbelianGroup(factors)
    neg = [g.index(_neg(g, x)) for x in g.elements]
    add = [[g.index(_add(g, x, y)) for y in g.elements] for x in g.elements]
    assert np.array_equal(g.neg_index, neg)
    assert np.array_equal(g.add_index, add)


def _per_digit_tables(factors):
    """neg_index and add_index built one mixed-radix digit at a time, each
    digit a pass over full-size tables: the earlier construction."""
    order = math.prod(factors)
    digits = np.indices(factors).reshape(len(factors), order)
    neg = np.zeros(order, dtype=np.intp)
    add = np.zeros((order, order), dtype=np.intp)
    for d, q in zip(digits, factors):
        neg *= q
        neg += -d % q
        add *= q
        add += (d[:, None] + d) % q
    return neg, add


@pytest.mark.parametrize("factors", [(2,) * 10, (1024,), (3, 3, 3), (2, 3, 4), (5,), (4, 2)],
                         ids=str)
def test_index_tables_match_per_digit_build(factors):
    g = AbelianGroup(factors)
    neg, add = _per_digit_tables(factors)
    assert g.neg_index.dtype == g.add_index.dtype == np.intp
    assert np.array_equal(g.neg_index, neg) and np.array_equal(g.add_index, add)


def _comprehension_values(group, exponents):
    """A character's values from one Python sum per element of the phases
    reduced mod each factor, then mod 1: characters_of must match it bit
    for bit."""
    phases = np.array(
        [
            sum(e * g % q / q for e, g, q in zip(exponents, g_tup, group.factors)) % 1
            for g_tup in group.elements
        ]
    )
    values = np.exp(2j * np.pi * phases)
    for part in (values.real, values.imag):
        near = np.abs(part - np.rint(part)) < 1e-12
        part[near] = np.rint(part[near])
    return values


@pytest.mark.parametrize("factors", [(2,), (6,), (2, 4), (3, 3, 3), (2, 3, 4), (12, 5), (64,),
                                     (2,) * 6, (1024,)], ids=str)
def test_characters_match_comprehension_bitwise(factors):
    group = AbelianGroup(factors)
    chars = characters_of(group)
    assert [c.exponents for c in chars] == list(group.elements)
    # at order 1024 the comprehension takes seconds per character, so a sample
    picks = range(group.order) if group.order <= 64 else (0, 1, 2, 255, 256, 511, 512, 513, 1023)
    for i in picks:
        want = _comprehension_values(group, group.elements[i]).view(np.uint64)
        assert np.array_equal(chars[i].values.view(np.uint64), want), i
        single = Character(group, group.elements[i]).values
        assert np.array_equal(single.view(np.uint64), want), i


@pytest.mark.parametrize("factors", [(1024,), (32, 32), (10,)], ids=str)
def test_character_values_within_4_ulp_of_the_reduced_phase(factors):
    # the exact phase of character e at g is sum_i e_i g_i / q_i mod 1,
    # N / L over L = lcm(q_i); cmath.exp there is the reference, one value
    # per residue N
    group = AbelianGroup(factors)
    lcm = math.lcm(*factors)
    ref = np.array([cmath.exp(2j * cmath.pi * (t / lcm)) for t in range(lcm)])
    e = np.array(group.elements)
    residue = sum(np.outer(e[:, i], e[:, i]) % q * (lcm // q) for i, q in enumerate(factors))
    got = np.array([c.values for c in characters_of(group)])
    assert np.max(np.abs(got - ref[residue % lcm])) <= 4 * np.spacing(1.0)


def test_group_order_capped():
    assert MAX_GROUP_ORDER == 2**10
    assert AbelianGroup([2] * 10).order == 1024
    for factors in ([1500], [2] * 11, [32, 33], [10**30]):
        with pytest.raises(ValueError, match="exceeds the cap 1024"):
            AbelianGroup(factors)


def test_group_name_roundtrip():
    for g in GROUPS:
        assert AbelianGroup.from_name(g.name()) == g
    assert AbelianGroup([2, 4]).name() == "Z2xZ4"
    with pytest.raises(ValueError):
        AbelianGroup.from_name("Z2xW4")
    with pytest.raises(ValueError):
        AbelianGroup([1, 3])


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name())
def test_characters_are_homomorphisms(group):
    chars = characters_of(group)
    assert len(chars) == group.order
    assert chars[0].is_trivial
    # ordering is lexicographic on exponent tuples
    assert [c.exponents for c in chars] == list(group.elements)
    for gamma in chars:
        for g, h in itertools.product(group.elements, repeat=2):
            assert abs(gamma(_add(group, g, h)) - gamma(g) * gamma(h)) < 1e-12
        assert abs(gamma((0,) * len(group.factors)) - 1) < 1e-12


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name())
def test_character_orthogonality(group):
    chars = characters_of(group)
    for c1, c2 in itertools.product(chars, repeat=2):
        ip = np.vdot(c2.values, c1.values)
        expected = group.order if c1 == c2 else 0.0
        assert abs(ip - expected) < 1e-9


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name())
def test_parseval_rows(group):
    chars = characters_of(group)
    f = group.order
    for g, h in itertools.product(group.elements, repeat=2):
        dg = GroupRingElement.delta(group, g)
        dh = GroupRingElement.delta(group, h)
        s = sum(dg.evaluate(c) * np.conj(dh.evaluate(c)) for c in chars)
        assert abs(s - (f if g == h else 0)) < 1e-9


def test_fourier_separates_elements():
    for group in GROUPS:
        chars = characters_of(group)
        rows = set()
        for g in group.elements:
            d = GroupRingElement.delta(group, g)
            rows.add(tuple(np.round(d.evaluate(c), 9) for c in chars))
        assert len(rows) == group.order


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name())
def test_evaluate_is_ring_homomorphism(group):
    rng = np.random.default_rng(7)
    chars = characters_of(group)
    for _ in range(20):
        x = _random_element(group, rng)
        y = _random_element(group, rng)
        for gamma in chars:
            assert abs((x * y).evaluate(gamma) - x.evaluate(gamma) * y.evaluate(gamma)) < 1e-10
            assert abs((x + y).evaluate(gamma) - x.evaluate(gamma) - y.evaluate(gamma)) < 1e-10


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name())
def test_involution(group):
    rng = np.random.default_rng(8)
    chars = characters_of(group)
    for _ in range(10):
        x = _random_element(group, rng)
        y = _random_element(group, rng)
        assert x.involution().involution() == x
        assert (x * y).involution() == x.involution() * y.involution()
        for gamma in chars:
            assert abs(x.involution().evaluate(gamma) - np.conj(x.evaluate(gamma))) < 1e-10
        assert np.array_equal(_translation_lift(x.involution()), _translation_lift(x).T)


def test_convolution_matches_direct_sum_formula():
    group = AbelianGroup([2, 4])
    rng = np.random.default_rng(9)
    x = _random_element(group, rng)
    y = _random_element(group, rng)
    prod = x * y
    for g in group.elements:
        direct = sum(
            int(x.coeffs[group.index(h)]) * int(y.coeffs[group.index(_sub(group, g, h))])
            for h in group.elements
        )
        assert prod.coeffs[group.index(g)] == direct


def test_delta_convolution_is_group_law():
    group = AbelianGroup([3, 3])
    for g, h in itertools.product(group.elements, repeat=2):
        dg = GroupRingElement.delta(group, g)
        dh = GroupRingElement.delta(group, h)
        assert dg * dh == GroupRingElement.delta(group, _add(group, g, h))


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name())
def test_geometric_sum(group):
    ones = GroupRingElement(group, np.ones(group.order, dtype=np.int64))
    f = group.order
    for g in group.elements:
        assert GroupRingElement.delta(group, g) * ones == ones
    for gamma in characters_of(group):
        val = ones.evaluate(gamma)
        assert abs(val - (f if gamma.is_trivial else 0)) < 1e-12
    assert np.array_equal(_translation_lift(ones), np.ones((f, f), dtype=np.int64))


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name())
def test_translation_lift_is_ring_isomorphism(group):
    rng = np.random.default_rng(10)
    x = _random_element(group, rng)
    y = _random_element(group, rng)
    assert np.array_equal(_translation_lift(x * y), _translation_lift(x) @ _translation_lift(y))
    assert np.array_equal(_translation_lift(x + y), _translation_lift(x) + _translation_lift(y))
    assert np.array_equal(
        _translation_lift(GroupRingElement.delta(group)),
        np.eye(group.order, dtype=np.int64),
    )


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name())
def test_delta_lifts_form_permutation_group(group):
    f = group.order
    lifts = {}
    for g in group.elements:
        L = _translation_lift(GroupRingElement.delta(group, g))
        assert np.array_equal(L.sum(axis=0), np.ones(f, dtype=np.int64))
        assert np.array_equal(L.sum(axis=1), np.ones(f, dtype=np.int64))
        lifts[g] = L
    keys = set(L.tobytes() for L in lifts.values())
    assert len(keys) == f  # all distinct
    for g, h in itertools.product(group.elements, repeat=2):
        assert np.array_equal(lifts[g] @ lifts[h], lifts[_add(group, g, h)])


def test_real_character_designation():
    gamma = real_character(AbelianGroup([2, 4]))
    assert gamma.exponents == (1, 0)
    assert gamma.is_real()
    gamma = real_character(AbelianGroup([3, 4]))
    assert gamma.exponents == (0, 2)
    assert gamma.is_real()
    assert set(np.round(gamma.values.real)) <= {-1.0, 1.0}
    gamma = real_character(AbelianGroup([4]))
    assert gamma.exponents == (2,)
    with pytest.raises(ValueError):
        real_character(AbelianGroup([3, 3]))


def test_mismatched_operands_rejected():
    x = GroupRingElement.delta(AbelianGroup([2]))
    y = GroupRingElement.delta(AbelianGroup([3]))
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        x * y
    with pytest.raises(ValueError):
        x.evaluate(Character(AbelianGroup([3]), (1,)))
