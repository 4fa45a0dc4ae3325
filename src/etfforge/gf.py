"""Exact arithmetic in GF(p^m) as integer lookup tables.

A field is Z_p[x] modulo a fixed monic irreducible polynomial of degree
m.  An element is its integer encoding: the residue c0 + c1*x + ... +
c_{m-1}*x^(m-1) is encoded as c0 + c1*p + c2*p^2 + ...  The modulus is
chosen deterministically: monic degree-m candidates x^m + low are
scanned in ascending encoding order of low and the first irreducible one
wins.  A candidate is reducible iff it has a monic factor of degree
d <= m/2, with a monic cofactor of degree m - d, so every product of two
such factors is marked, read with the same x^i * a tables as the
multiplication, taken modulo x^m; no polynomial is divided.  The
designated multiplicative generator ``alpha`` is the least encoding
whose order is p^m - 1.  Everything downstream (constructions,
serialized matrices) relies on these two choices being reproducible.

All arithmetic is table lookup indexed by encoding: ``add[a, b]``,
``mul[a, b]``, ``neg[a]``, ``inv[a]`` (``inv[0]`` is 0), ``exp[k]`` =
alpha^k for 0 <= k < p^m - 1, and its inverse ``log`` (``log[0]`` is
-1).  The tables are built with numpy from the base-p digits of the
encodings and the map a -> x*a reduced by the modulus, so no
per-element Python objects exist.

``add`` and ``mul`` hold order^2 entries, so field order is capped at
2^10 (2 MiB per int16 table) and checked before anything is allocated;
the constructions never need more than order 49.
"""

from __future__ import annotations

import functools

import numpy as np

MAX_FIELD_ORDER = 1 << 10


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _x_powers(a, low, digits, place, p: int) -> np.ndarray:
    """xpow[k, i] = x^i * a[k] as encodings, for i < m, modulo x^m + low (as
    digits): x * a shifts the digits of a up one place and folds x^m back
    in as minus low."""
    top = digits[:, -1:]
    times_x = (np.concatenate((0 * top, digits[:, :-1]), axis=1) - top * low) % p @ place
    xpow = np.empty((len(a), len(place)), dtype=np.intp)
    xpow[:, 0] = a
    for i in range(1, len(place)):
        xpow[:, i] = times_x[xpow[:, i - 1]]
    return xpow


class FiniteField:
    """GF(p^m) with a deterministic modulus and generator, as int16 tables."""

    def __init__(self, p: int, m: int):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1:
            raise ValueError(f"m = {m} must be positive")
        if p**m > MAX_FIELD_ORDER:
            raise ValueError(f"field order {p**m} exceeds cap {MAX_FIELD_ORDER}")
        self.p = p
        self.m = m
        self.order = n = p**m
        place = p ** np.arange(m, dtype=np.int32)
        digits = np.arange(n, dtype=np.int32)[:, None] // place % p  # coefficient of x^i
        # x^m + low is reducible iff it is a b for a monic a of degree
        # d <= m/2 and a monic b of degree m - d; then low is the digits of
        # a b below x^m, read with the x^i a tables modulo x^m
        reducible = np.zeros(n, dtype=bool)
        for d in range(1, m // 2 + 1):
            xa = digits[_x_powers(np.arange(p**d, 2 * p**d), 0 * place, digits, place, p)]
            reducible[digits[p ** (m - d) : 2 * p ** (m - d)] @ xa % p @ place] = True
        low = digits[np.argmin(reducible)]
        self.modulus = tuple(low.tolist()) + (1,)
        # xpow[a, i] = x^i * a, so a * b = sum_i b_i * xpow[a, i]
        xpow = _x_powers(np.arange(n), low, digits, place, p)
        add = np.zeros((n, n), dtype=np.int32)
        mul = np.zeros((n, n), dtype=np.int32)
        for j in range(m):
            add += np.add.outer(digits[:, j], digits[:, j]) % p * place[j]
            mul += digits[xpow, j] @ digits.T % p * place[j]
        self.add = add.astype(np.int16)
        self.mul = mul.astype(np.int16)
        self.neg = ((-digits) % p @ place).astype(np.int16)

        self.alpha = self._find_alpha()
        exp = [1]
        by_alpha = self.mul[self.alpha].tolist()
        for _ in range(n - 2):
            exp.append(by_alpha[exp[-1]])
        self.exp = np.array(exp, dtype=np.int16)
        self.log = np.full(n, -1, dtype=np.int16)
        self.log[self.exp] = np.arange(n - 1)
        self.inv = np.zeros(n, dtype=np.int16)
        self.inv[self.exp] = self.exp[-np.arange(n - 1) % (n - 1)]

    def _find_alpha(self) -> int:
        """Least nonzero encoding x with x^((order-1)/l) != 1 for every
        prime l dividing order - 1."""
        target = self.order - 1
        cands = np.arange(1, self.order)
        primitive = np.ones(target, dtype=bool)
        for ell in _prime_factors(target):
            # cands ** (target // ell) by square and multiply
            power, base, e = np.ones_like(cands), cands, target // ell
            while e:
                if e & 1:
                    power = self.mul[power, base]
                base = self.mul[base, base]
                e >>= 1
            primitive &= power != 1
        return int(cands[np.argmax(primitive)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteField)
            and other.p == self.p
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"


@functools.lru_cache(maxsize=None)
def field_create(p: int, m: int) -> FiniteField:
    return FiniteField(p, m)


def prime_power_split(n: int) -> tuple[int, int]:
    """n = p^m with p prime, by trial factorization; errors otherwise."""
    if n < 2:
        raise ValueError(f"{n} is not a prime power")
    p = 2
    while p * p <= n:
        if n % p == 0:
            m = 0
            k = n
            while k % p == 0:
                k //= p
                m += 1
            if k != 1:
                raise ValueError(f"{n} is not a prime power")
            return p, m
        p += 1
    return n, 1
