"""Integer group rings of finite abelian groups and their characters.

A group Z_{q1} x ... x Z_{qj} has elements stored as exponent tuples
and indexed in mixed-radix row-major order, so index 0 is the identity
and the index order agrees with lexicographic order on tuples.  A ring
element is a length-f integer coefficient vector over that index, as in
each cell of a design Gram; add_index and neg_index act on whole arrays.

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
        self._characters = None  # characters_of's table, built on first call
        # index-level tables so matrix code can stay vectorized, grown one
        # factor at a time: element (p, d) of the first factors and Z_q has
        # index p q + d, and (p, d) + (p', d') = (p + p', d + d' mod q)
        self.neg_index = np.zeros(1, dtype=np.intp)
        self.add_index = np.zeros((1, 1), dtype=np.intp)
        for q in factors:
            d = np.arange(q)
            n = len(self.neg_index) * q
            self.neg_index = (q * self.neg_index[:, None] + -d % q).reshape(n)
            add = q * self.add_index[:, None, :, None] + ((d[:, None] + d) % q)[:, None, :]
            self.add_index = add.reshape(n, n)

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


def _character_values(group: AbelianGroup, exponents: np.ndarray) -> np.ndarray:
    """Row c holds the values at every element of the character whose
    exponent tuple is row c of exponents.  Each phase is
    sum_i (e_i g_i mod q_i)/q_i, summed left to right over the factors and
    reduced mod 1, so exp sees an angle in [0, 2 pi)."""
    digits = np.indices(group.factors).reshape(len(group.factors), group.order)
    phases = 0
    for e, g, q in zip(exponents.T, digits, group.factors):
        phases = phases + (e[:, None] * g % q) / q
    values = np.exp(2j * np.pi * (phases % 1))
    # fourth roots of unity come out exact: snap the float residue
    for part in (values.real, values.imag):
        near = np.abs(part - np.rint(part)) < 1e-12
        part[near] = np.rint(part[near])
    return values


class Character:
    """gamma(g) = prod_i exp(2 pi i e_i g_i / q_i) for an exponent tuple e;
    values, when given, are its row of characters_of's table."""

    def __init__(self, group: AbelianGroup, exponents, values=None):
        self.group = group
        self.exponents = tuple(int(e) % q for e, q in zip(exponents, group.factors))
        if len(self.exponents) != len(group.factors):
            raise ValueError("exponent tuple length mismatch")
        if values is None:
            values = _character_values(group, np.array([self.exponents]))[0]
        self.values = values

    @property
    def is_trivial(self) -> bool:
        return not any(self.exponents)

    def is_real(self) -> bool:  # gamma is its conjugate: 2 e_i = 0 mod q_i
        return all(2 * e % q == 0 for e, q in zip(self.exponents, self.group.factors))

    @property
    def typed_values(self) -> np.ndarray:
        """The values as float64 at a real character (each is exactly +-1),
        else complex128: the type an evaluation at gamma is computed in."""
        return self.values.real if self.is_real() else self.values

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


def characters_of(group: AbelianGroup) -> tuple[Character, ...]:
    """All characters, ordered lexicographically by exponent tuple; the
    trivial character comes first.  Character i has the exponents of
    element i, so its conjugate is character group.neg_index[i].  The
    values of all are one f x f array program, kept on group, read-only."""
    if group._characters is None:
        values = _character_values(group, np.array(group.elements))
        values.flags.writeable = False
        group._characters = tuple(Character(group, e, row) for e, row in zip(group.elements, values))
    return group._characters


def first_of_conjugates(gammas: list[Character]) -> list[int]:
    """For each character in gammas, the position in gammas of the first of
    it and its conjugate.  Phi evaluated at the conjugate of gamma is Phi at
    gamma conjugated entrywise, so a check whose every quantity is invariant
    under that conjugation need run once per conjugate pair."""
    seen, firsts = {}, []
    for p, gamma in enumerate(gammas):
        g = gamma.group
        conj = g.elements[g.neg_index[g.index(gamma.exponents)]]
        firsts.append(seen.get(conj, p))
        seen.setdefault(gamma.exponents, p)
    return firsts


def real_character(group: AbelianGroup) -> Character:
    """The designated order-2 character: exponent q_i/2 in the first even
    factor, zero elsewhere."""
    for i, q in enumerate(group.factors):
        if q % 2 == 0:
            exps = [0] * len(group.factors)
            exps[i] = q // 2
            return Character(group, exps)
    raise ValueError(f"group {group.name()} has no even factor, no real character")


def select_characters(group: AbelianGroup, selector: str) -> list[Character]:
    """The characters a selector names: trivial, real, all-nontrivial, or
    index:k, the position in characters_of's order."""
    chars = characters_of(group)
    if selector == "trivial":
        return [chars[0]]
    if selector == "real":
        return [real_character(group)]
    if selector == "all-nontrivial":
        return [c for c in chars if not c.is_trivial]
    kind, _, index = selector.partition(":")
    try:
        idx = int(index) if kind == "index" else None
    except ValueError:
        idx = None
    if idx is None:
        raise ValueError(f"bad character selector {selector!r}")
    if not 0 <= idx < len(chars):
        raise ValueError(f"character index {idx} out of range 0..{len(chars) - 1}")
    return [chars[idx]]
