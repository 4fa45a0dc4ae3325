import numpy as np
import pytest

from etfforge.construct import _HermitianForm
from etfforge.gf import MAX_FIELD_ORDER, field_create, prime_power_split


def _decode(enc, p, length):
    out = []
    for _ in range(length):
        out.append(enc % p)
        enc //= p
    return out


def _encode(coeffs, p):
    e = 0
    for c in reversed(coeffs):
        e = e * p + int(c)
    return e


def _oracle_first_irreducible(p, m):
    """First irreducible monic of degree m, found by multiplying out every
    factor pair instead of trial division."""
    reducible = set()
    for d in range(1, m // 2 + 1):
        for e1 in range(p**d):
            f1 = _decode(e1, p, d) + [1]
            for e2 in range(p ** (m - d)):
                f2 = _decode(e2, p, m - d) + [1]
                prod = np.convolve(f1, f2) % p
                reducible.add(_encode(prod[:m], p))
    for enc in range(p**m):
        if enc not in reducible:
            return tuple(_decode(enc, p, m) + [1])
    raise AssertionError


def _oracle_mul(f):
    """Schoolbook product of every pair: convolve the coefficient vectors,
    then cancel the top degrees with multiples of the monic modulus."""
    p, m = f.p, f.m
    mod = np.array(f.modulus)
    out = np.empty((f.order, f.order), dtype=np.int64)
    for a in range(f.order):
        for b in range(f.order):
            prod = np.convolve(_decode(a, p, m), _decode(b, p, m)) % p
            for deg in range(len(prod) - 1, m - 1, -1):
                prod[deg - m : deg + 1] = (prod[deg - m : deg + 1] - prod[deg] * mod) % p
            out[a, b] = _encode(prod[:m], p)
    return out


def _multiplicative_order(f, x):
    y = x
    for k in range(1, f.order):
        if y == 1:
            return k
        y = f.mul[y, x]
    raise AssertionError(f"{x} never reaches 1")


FROZEN_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (5, 2): (2, 0, 1),
    (7, 2): (1, 0, 1),
}


@pytest.mark.parametrize("p,m", sorted(FROZEN_MODULI))
def test_modulus_frozen(p, m):
    assert field_create(p, m).modulus == FROZEN_MODULI[(p, m)]


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_modulus_matches_factor_oracle(p, m):
    assert field_create(p, m).modulus == _oracle_first_irreducible(p, m)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_mul_matches_convolution_oracle(p, m):
    f = field_create(p, m)
    assert np.array_equal(f.mul, _oracle_mul(f))


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2)])
def test_field_axioms_exhaustive(p, m):
    f = field_create(p, m)
    add, mul, x = f.add, f.mul, np.arange(f.order)
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    a, b, c = np.ix_(x, x, x)
    assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
    assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])
    assert np.array_equal(add[:, 0], x)
    assert np.array_equal(mul[:, 1], x)
    assert np.all(add[x, f.neg] == 0)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 2), (2, 4), (7, 1)])
def test_inverses(p, m):
    f = field_create(p, m)
    nonzero = np.arange(1, f.order)
    assert np.all(f.mul[nonzero, f.inv[nonzero]] == 1)
    assert f.inv[0] == 0


def test_alpha_frozen():
    # hand-checked generators for the small fields the constructions use
    assert field_create(3, 1).alpha == 2
    assert field_create(2, 2).alpha == 2
    assert field_create(2, 3).alpha == 2
    assert field_create(3, 2).alpha == 4  # 1 + x
    assert field_create(5, 1).alpha == 2
    assert field_create(7, 1).alpha == 3


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 1), (7, 1), (5, 2), (3, 3)])
def test_alpha_is_least_generator(p, m):
    f = field_create(p, m)
    assert _multiplicative_order(f, f.alpha) == f.order - 1
    for enc in range(1, f.alpha):
        assert _multiplicative_order(f, enc) < f.order - 1


def test_power_ordered_elements():
    f = field_create(3, 2)
    ordered = [0] + f.exp.tolist()
    assert ordered[1] == 1
    assert ordered[2] == f.alpha
    assert sorted(ordered) == list(range(9))
    assert np.array_equal(f.log[f.exp], np.arange(8))
    assert f.log[0] == -1


def test_gf9_frozen_power_table():
    f = field_create(3, 2)
    a = f.alpha
    assert f.mul[a, a] == 6  # 2x
    assert f.exp[3] == 7  # 1 + 2x
    assert f.exp[4] == 2
    assert f.mul[f.exp[7], a] == 1


# the Frobenius, norm and beta tables live with the Hermitian form that
# uses them


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_frobenius_is_subfield_automorphism(q):
    t = _HermitianForm(q)
    f, frob = t.field, t.frob
    assert np.array_equal(frob[frob], np.arange(f.order))
    assert np.sum(frob == np.arange(f.order)) == q
    assert np.array_equal(frob[f.add], f.add[frob[:, None], frob])
    assert np.array_equal(frob[f.mul], f.mul[frob[:, None], frob])


def test_gf9_frobenius_and_norm_frozen():
    t = _HermitianForm(3)
    assert t.frob[t.field.alpha] == t.field.exp[3]
    assert t.norm[t.field.alpha] == 2


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_norm_level_sets(q):
    t = _HermitianForm(q)
    subfield = np.nonzero(t.frob == np.arange(t.field.order))[0]
    assert np.all(np.isin(t.norm, subfield))
    values, counts = np.unique(t.norm, return_counts=True)
    assert np.array_equal(values, subfield)  # norm is onto the subfield
    assert counts[0] == 1  # only 0 has norm 0
    assert np.all(counts[1:] == q + 1)


def test_norm_multiplicative():
    t = _HermitianForm(3)
    f, norm = t.field, t.norm
    assert np.array_equal(norm[f.mul], f.mul[norm[:, None], norm])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_beta_order(q):
    t = _HermitianForm(q)
    beta = int(t.beta_pows[1])
    assert _multiplicative_order(t.field, beta) == q + 1
    assert t.norm[beta] == 1
    assert np.array_equal(t.beta_pows[1:], t.field.mul[t.beta_pows[:-1], beta])
    assert np.array_equal(t.beta_dlog[t.beta_pows], np.arange(q + 1))
    assert np.sum(t.beta_dlog >= 0) == q + 1


def test_gf9_beta_frozen():
    t = _HermitianForm(3)
    assert t.beta_pows[1] == t.field.exp[2]


def test_field_create_guards():
    with pytest.raises(ValueError):
        field_create(4, 1)
    with pytest.raises(ValueError):
        field_create(6, 2)
    with pytest.raises(ValueError, match="exceeds cap 1024"):
        field_create(2, 11)  # 2^11 > MAX_FIELD_ORDER
    with pytest.raises(ValueError):
        field_create(2, 21)
    assert MAX_FIELD_ORDER == 2**10


def test_prime_power_split():
    assert prime_power_split(8) == (2, 3)
    assert prime_power_split(9) == (3, 2)
    assert prime_power_split(7) == (7, 1)
    assert prime_power_split(1024) == (2, 10)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            prime_power_split(bad)


def test_m1_matches_plain_modular_arithmetic():
    f = field_create(5, 1)
    x = np.arange(5)
    assert np.array_equal(f.add, np.add.outer(x, x) % 5)
    assert np.array_equal(f.mul, np.multiply.outer(x, x) % 5)
