"""Exact arithmetic in GF(p^m) as integer lookup tables.

A field is Z_p[x] modulo a fixed monic irreducible polynomial of degree
m.  An element is its integer encoding: the residue c0 + c1*x + ... +
c_{m-1}*x^(m-1) is encoded as c0 + c1*p + c2*p^2 + ...  The modulus is
chosen deterministically: monic degree-m candidates are scanned in
ascending encoding order and the first irreducible one wins.  The
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


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = _poly_trim([x % p for x in a])
    b = _poly_trim([x % p for x in b])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        c = (r[-1] * inv_lead) % p
        q[shift] = c
        for j in range(len(b)):
            r[shift + j] = (r[shift + j] - c * b[j]) % p
        r = _poly_trim(r)
    return _poly_trim(q), r


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for enc in range(p**d):
            div = _encode_to_coeffs(enc, p, d) + [1]
            _, rem = _poly_divmod(poly, div, p)
            if not rem:
                return False
    return True


def _encode_to_coeffs(enc: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(enc % p)
        enc //= p
    return out


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
        self.modulus = self._find_modulus()

        place = p ** np.arange(m, dtype=np.int32)
        digits = np.arange(n, dtype=np.int32)[:, None] // place % p  # coefficient of x^i
        # x * a: shift the digits up one place and fold x^m back in as
        # minus the low part of the modulus
        low = np.array(self.modulus[:m])
        xdigits = np.roll(digits, 1, axis=1)
        xdigits[:, 0] = 0
        times_x = (xdigits - digits[:, m - 1 :] * low) % p @ place
        # xpow[a, i] = x^i * a, so a * b = sum_i b_i * xpow[a, i]
        xpow = np.empty((n, m), dtype=np.intp)
        xpow[:, 0] = np.arange(n)
        for i in range(1, m):
            xpow[:, i] = times_x[xpow[:, i - 1]]
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

    def _find_modulus(self) -> tuple[int, ...]:
        # scan x^m, x^m + 1, x^m + 2, ... in encoding order of the low part
        for enc in range(self.order):
            cand = _encode_to_coeffs(enc, self.p, self.m) + [1]
            if _is_irreducible(cand, self.p):
                return tuple(cand)
        raise AssertionError("no irreducible polynomial found")  # unreachable

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
