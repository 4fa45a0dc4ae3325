import numpy as np
import pytest

from etfforge.groupring import AbelianGroup, GroupRingElement, characters_of
from etfforge.polymat import (
    GroupRingMatrix,
    PolyphaseMatrix,
    format_complex_csv,
    format_incidence,
    format_polyphase,
    parse_incidence,
    parse_polyphase,
    require_float_exact,
)

GROUPS = [AbelianGroup([2]), AbelianGroup([4]), AbelianGroup([2, 3]), AbelianGroup([3, 3])]


def _random_polyphase(group, rows, cols, rng, density=0.6):
    support = rng.random((rows, cols)) < density
    exps = rng.integers(0, group.order, size=(rows, cols))
    return PolyphaseMatrix(group, support, exps)


def _random_grm(group, rows, cols, rng):
    return GroupRingMatrix(group, rng.integers(-3, 4, size=(rows, cols, group.order)))


def _blockwise_lift(m: GroupRingMatrix) -> np.ndarray:
    """Oracle: lift each entry separately via the group-ring lift."""
    f = m.group.order
    out = np.zeros((m.rows * f, m.cols * f), dtype=np.int64)
    for i in range(m.rows):
        for j in range(m.cols):
            out[i * f : (i + 1) * f, j * f : (j + 1) * f] = m.entry(i, j).translation_lift()
    return out


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name())
def test_text_roundtrip(group):
    rng = np.random.default_rng(1)
    m = _random_polyphase(group, 5, 7, rng)
    text = format_polyphase(m)
    back = parse_polyphase(text)
    assert back == m
    assert format_polyphase(back) == text  # byte-stable
    assert text.startswith(f"POLYPHASE rows=5 cols=7 group={group.name()}")


def test_parse_polyphase_errors():
    with pytest.raises(ValueError):
        parse_polyphase("no header\n. .\n")
    with pytest.raises(ValueError):
        parse_polyphase("POLYPHASE rows=2 cols=2 group=Z2\n0 0\n")
    with pytest.raises(ValueError):
        parse_polyphase("POLYPHASE rows=1 cols=2 group=Z2\n0\n")
    with pytest.raises(ValueError):
        parse_polyphase("POLYPHASE rows=1 cols=1 group=Z2xZ2\n0\n")
    with pytest.raises(ValueError):
        parse_polyphase("POLYPHASE rows=1 cols=1\n0\n")


def test_entry_accessors_and_replaced():
    group = AbelianGroup([3])
    m = PolyphaseMatrix.from_entries(group, [[(0,), None], [(2,), (1,)]])
    assert m.entry(0, 0) == (0,)
    assert m.entry(0, 1) is None
    m2 = m.replaced(0, 1, (2,))
    assert m2.entry(0, 1) == (2,)
    assert m.entry(0, 1) is None  # original untouched
    m3 = m.replaced(0, 0, None)
    assert m3.entry(0, 0) is None
    assert np.array_equal(m.modulus_squared(), [[1, 0], [1, 1]])


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name())
def test_evaluate_commutes_with_matmul(group):
    rng = np.random.default_rng(2)
    a = _random_polyphase(group, 4, 6, rng)
    b = _random_grm(group, 6, 5, rng)
    prod = a @ b
    for gamma in characters_of(group):
        lhs = prod.evaluate(gamma)
        rhs = a.evaluate(gamma) @ b.evaluate(gamma)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name())
def test_adjoint(group):
    rng = np.random.default_rng(3)
    a = _random_polyphase(group, 4, 6, rng)
    adj = a.adjoint()
    assert (adj.rows, adj.cols) == (6, 4)
    assert adj.adjoint() == a.to_group_ring()
    for gamma in characters_of(group):
        assert np.max(np.abs(adj.evaluate(gamma) - a.evaluate(gamma).conj().T)) < 1e-12
    gram = adj @ a
    assert gram == gram.adjoint()


def test_matmul_matches_entrywise_convolution():
    group = AbelianGroup([2, 3])
    rng = np.random.default_rng(4)
    a = _random_grm(group, 3, 4, rng)
    b = _random_grm(group, 4, 2, rng)
    prod = a @ b
    for i in range(3):
        for j in range(2):
            acc = GroupRingElement.zero(group)
            for l in range(4):
                acc = acc + a.entry(i, l) * b.entry(l, j)
            assert prod.entry(i, j) == acc


def test_matmul_associative_and_identity():
    group = AbelianGroup([4])
    rng = np.random.default_rng(5)
    a = _random_grm(group, 3, 4, rng)
    b = _random_grm(group, 4, 4, rng)
    c = _random_grm(group, 4, 3, rng)
    assert (a @ b) @ c == a @ (b @ c)
    eye = GroupRingMatrix.identity(group, 4)
    assert a @ eye == a
    with pytest.raises(ValueError):
        a @ c @ c  # inner mismatch on the second product


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name())
def test_gram_matches_adjoint_product_on_ragged_rows(group):
    rng = np.random.default_rng(8)
    for rows, cols in ((5, 4), (1, 3), (3, 1)):
        m = _random_polyphase(group, rows, cols, rng)
        assert m.gram() == m.adjoint() @ m
    empty = PolyphaseMatrix(group, np.zeros((2, 3), bool), np.zeros((2, 3), int))
    assert empty.gram() == GroupRingMatrix.zeros(group, 3, 3)


def test_matmul_refuses_inexact_float_products():
    group = AbelianGroup([2])
    big = GroupRingMatrix(group, np.full((1, 2, 2), 2**26))
    with pytest.raises(ValueError, match="2\\^53"):
        big @ big.adjoint()  # inner 2 x 2^26 x 2^26 = 2^53
    with pytest.raises(ValueError, match="2\\^53"):
        require_float_exact(2**53, 1, 1)
    # one step below the bound the float product is still exact
    a = GroupRingMatrix(group, [[[2**26 + 1, 0]]])
    b = GroupRingMatrix(group, [[[2**26 - 1, 0]]])
    assert (a @ b).coeffs[0, 0, 0] == 2**52 - 1


def test_evaluate_at_trivial_is_incidence():
    group = AbelianGroup([3, 3])
    rng = np.random.default_rng(6)
    m = _random_polyphase(group, 6, 4, rng)
    triv = characters_of(group)[0]
    assert np.max(np.abs(m.evaluate(triv) - m.modulus_squared())) < 1e-12


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name())
def test_filter_bank_lift_blocks(group):
    rng = np.random.default_rng(7)
    m = _random_polyphase(group, 3, 5, rng)
    lifted = m.filter_bank_lift()
    assert np.array_equal(lifted, _blockwise_lift(m.to_group_ring()))
    f = group.order
    # nonzero blocks are permutation matrices
    for i, j in zip(*np.nonzero(m.support)):
        blk = lifted[i * f : (i + 1) * f, j * f : (j + 1) * f]
        assert np.array_equal(blk.sum(axis=0), np.ones(f, dtype=np.int64))
        assert np.array_equal(blk.sum(axis=1), np.ones(f, dtype=np.int64))


def test_lift_is_multiplicative():
    group = AbelianGroup([2, 3])
    rng = np.random.default_rng(8)
    a = _random_grm(group, 3, 4, rng)
    b = _random_grm(group, 4, 2, rng)
    assert np.array_equal(_blockwise_lift(a @ b), _blockwise_lift(a) @ _blockwise_lift(b))
    assert np.array_equal(_blockwise_lift(a.adjoint()), _blockwise_lift(a).T)


def test_scalar_helpers():
    group = AbelianGroup([3])
    x = np.array([[1, 0], [2, 1]])
    s = GroupRingMatrix.from_scalar(group, x)
    assert s.entry(1, 0) == 2 * GroupRingElement.delta(group)
    geo = GroupRingMatrix.all_geometric(group, x)
    assert np.array_equal(geo.coeffs[1, 0], [2, 2, 2])
    assert np.array_equal(geo.coeffs[0, 1], [0, 0, 0])
    three_s = 3 * s
    assert three_s.entry(1, 1) == 3 * GroupRingElement.delta(group)


def test_first_difference():
    group = AbelianGroup([2])
    a = GroupRingMatrix.identity(group, 3)
    b = GroupRingMatrix.identity(group, 3)
    assert a.first_difference(b) is None
    b.coeffs[2, 1, 1] = 5
    assert a.first_difference(b) == (2, 1)


def test_incidence_roundtrip():
    x = np.array([[1, 0, 1], [0, 1, 1]])
    text = format_incidence(x)
    assert text == "101\n011\n"
    assert np.array_equal(parse_incidence(text), x)
    with pytest.raises(ValueError):
        parse_incidence("10\n1\n")
    with pytest.raises(ValueError):
        parse_incidence("12\n")


def test_complex_csv_format():
    c = np.array([[1 + 0j, -0.5 + 0.25j]])
    text = format_complex_csv(c)
    assert text == "1+0i,-0.5+0.25i\n"


def test_exponent_range_validated():
    group = AbelianGroup([2])
    with pytest.raises(ValueError):
        PolyphaseMatrix(group, [[True]], [[5]])
