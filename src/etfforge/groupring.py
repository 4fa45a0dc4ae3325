"""Integer group rings of finite abelian groups and their characters.

A group Z_{q1} x ... x Z_{qj} has elements stored as exponent tuples
and indexed in mixed-radix row-major order, so index 0 is the identity
and the index order agrees with lexicographic order on tuples.  Ring
elements are dense integer coefficient vectors over that index.

Three maps out of the ring matter here:

* evaluation at a character (a ring homomorphism into C),
* the translation lift x -> sum_g x(g) T^g, where (T^g y)(g') =
  y(g' - g); this is a ring isomorphism onto the group-circulant
  integer matrices, and sends the all-ones element to the all-ones
  matrix (construct.gq_cells applies it entrywise to a polyphase matrix),
* the involution x~(g) = x(-g), which evaluation turns into complex
  conjugation and the lift turns into transposition.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


MAX_GROUP_ORDER = 2**10


class AbelianGroup:
    """Direct sum of cyclic groups, elements as tuples."""

    def __init__(self, factors):
        factors = tuple(int(q) for q in factors)
        if not factors or any(q < 2 for q in factors):
            raise ValueError(f"factors must all be >= 2, got {factors!r}")
        order = math.prod(factors)
        if order > MAX_GROUP_ORDER:
            raise ValueError(f"group order {order} exceeds the cap {MAX_GROUP_ORDER}")
        self.factors = factors
        self.order = order
        self.elements = tuple(itertools.product(*(range(q) for q in factors)))
        self._index = {g: i for i, g in enumerate(self.elements)}
        # index-level tables so matrix code can stay vectorized, built one
        # mixed-radix digit at a time
        digits = np.indices(factors).reshape(len(factors), order)
        self.neg_index = np.zeros(order, dtype=np.intp)
        self.add_index = np.zeros((order, order), dtype=np.intp)
        for d, q in zip(digits, factors):
            self.neg_index *= q
            self.neg_index += -d % q
            self.add_index *= q
            self.add_index += (d[:, None] + d) % q

    def index(self, g) -> int:
        return self._index[tuple(g)]

    def element(self, i: int):
        return self.elements[i]

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and other.factors == self.factors

    def __hash__(self):
        return hash(self.factors)

    def name(self) -> str:
        return "x".join(f"Z{q}" for q in self.factors)

    @classmethod
    def from_name(cls, text: str) -> "AbelianGroup":
        parts = text.strip().split("x")
        factors = []
        for part in parts:
            if not part.startswith("Z") or not part[1:].isdigit():
                raise ValueError(f"bad group name {text!r}")
            factors.append(int(part[1:]))
        return cls(factors)

    def __repr__(self):
        return f"AbelianGroup({self.name()})"


class Character:
    """gamma(g) = prod_i exp(2 pi i e_i g_i / q_i) for an exponent tuple e."""

    def __init__(self, group: AbelianGroup, exponents):
        self.group = group
        self.exponents = tuple(int(e) % q for e, q in zip(exponents, group.factors))
        if len(self.exponents) != len(group.factors):
            raise ValueError("exponent tuple length mismatch")
        phases = np.array(
            [
                sum(e * g / q for e, g, q in zip(self.exponents, g_tup, group.factors))
                for g_tup in group.elements
            ]
        )
        values = np.exp(2j * np.pi * phases)
        # fourth roots of unity come out exact: snap the float residue
        for part in (values.real, values.imag):
            near = np.abs(part - np.rint(part)) < 1e-12
            part[near] = np.rint(part[near])
        self.values = values

    @property
    def is_trivial(self) -> bool:
        return not any(self.exponents)

    def is_real(self) -> bool:
        return bool(np.max(np.abs(self.values.imag)) < 1e-12)

    def __call__(self, g) -> complex:
        return complex(self.values[self.group.index(g)])

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and other.group == self.group
            and other.exponents == self.exponents
        )

    def __hash__(self):
        return hash((self.group, self.exponents))

    def __repr__(self):
        return f"Character{self.exponents}"


def characters_of(group: AbelianGroup) -> list[Character]:
    """All characters, ordered lexicographically by exponent tuple; the
    trivial character comes first."""
    return [Character(group, exps) for exps in group.elements]


def real_character(group: AbelianGroup) -> Character:
    """The designated order-2 character: exponent q_i/2 in the first even
    factor, zero elsewhere."""
    for i, q in enumerate(group.factors):
        if q % 2 == 0:
            exps = [0] * len(group.factors)
            exps[i] = q // 2
            return Character(group, exps)
    raise ValueError(f"group {group.name()} has no even factor, no real character")


class GroupRingElement:
    """Integer combination of group elements."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: AbelianGroup, coeffs):
        self.group = group
        self.coeffs = np.asarray(coeffs, dtype=np.int64).copy()
        if self.coeffs.shape != (group.order,):
            raise ValueError("coefficient vector has wrong length")

    @classmethod
    def delta(cls, group: AbelianGroup, g=None) -> "GroupRingElement":
        c = np.zeros(group.order, dtype=np.int64)
        c[group.index(g) if g is not None else 0] = 1
        return cls(group, c)

    def __add__(self, other):
        self._check(other)
        return GroupRingElement(self.group, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return GroupRingElement(self.group, self.coeffs - other.coeffs)

    def __neg__(self):
        return GroupRingElement(self.group, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement(self.group, self.coeffs * other)
        self._check(other)
        out = np.zeros(self.group.order, dtype=np.int64)
        np.add.at(
            out, self.group.add_index.ravel(), np.outer(self.coeffs, other.coeffs).ravel()
        )
        return GroupRingElement(self.group, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def _check(self, other):
        if not isinstance(other, GroupRingElement) or other.group != self.group:
            raise ValueError("operands live in different group rings")

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and other.group == self.group
            and bool(np.array_equal(other.coeffs, self.coeffs))
        )

    def __hash__(self):
        return hash((self.group, self.coeffs.tobytes()))

    def involution(self) -> "GroupRingElement":
        return GroupRingElement(self.group, self.coeffs[self.group.neg_index])

    def evaluate(self, gamma: Character) -> complex:
        if gamma.group != self.group:
            raise ValueError("character belongs to a different group")
        return complex(self.coeffs @ gamma.values)

    def support(self):
        return [self.group.element(i) for i in np.nonzero(self.coeffs)[0]]

    def __repr__(self):
        terms = []
        for i in np.nonzero(self.coeffs)[0]:
            c = int(self.coeffs[i])
            g = self.group.element(int(i))
            terms.append(f"{c}*z{g}")
        return " + ".join(terms) if terms else "0"
