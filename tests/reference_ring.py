"""Dense group-ring algebra, the oracle the tests check the exact kernels
against.

GroupRingElement is an integer combination of group elements, and
GroupRingMatrix a dense matrix of them, stored as a (rows, cols, f)
int64 coefficient array.  Its product runs one float64 BLAS multiply per
pair of group elements behind require_float_exact.  to_group_ring and
adjoint turn a PolyphaseMatrix into this form, so Phi* Phi, A^2 and the
triple product can be formed entry by entry, independently of the
counting and scatter kernels in etfforge.
"""

from __future__ import annotations

import numpy as np

from etfforge.groupring import AbelianGroup, Character
from etfforge.polymat import PolyphaseMatrix, require_float_exact


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


class GroupRingMatrix:
    """Dense matrix with GroupRingElement entries, coefficients last axis."""

    def __init__(self, group: AbelianGroup, coeffs):
        self.group = group
        self.coeffs = np.asarray(coeffs, dtype=np.int64)
        if self.coeffs.ndim != 3 or self.coeffs.shape[2] != group.order:
            raise ValueError("coefficient array must be rows x cols x |group|")

    @property
    def rows(self) -> int:
        return self.coeffs.shape[0]

    @property
    def cols(self) -> int:
        return self.coeffs.shape[1]

    @classmethod
    def from_scalar(cls, group: AbelianGroup, a) -> "GroupRingMatrix":
        """Integer matrix a, embedded entrywise as a*z^0."""
        a = np.asarray(a, dtype=np.int64)
        c = np.zeros(a.shape + (group.order,), dtype=np.int64)
        c[:, :, 0] = a
        return cls(group, c)

    @classmethod
    def all_geometric(cls, group: AbelianGroup, a) -> "GroupRingMatrix":
        """Integer matrix a, each entry times the sum of all group elements."""
        a = np.asarray(a, dtype=np.int64)
        return cls(group, np.repeat(a[:, :, None], group.order, axis=2))

    def entry(self, i: int, j: int) -> GroupRingElement:
        return GroupRingElement(self.group, self.coeffs[i, j])

    def __add__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        self._check(other)
        return GroupRingMatrix(self.group, self.coeffs + other.coeffs)

    def __sub__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        self._check(other)
        return GroupRingMatrix(self.group, self.coeffs - other.coeffs)

    def __rmul__(self, scalar: int) -> "GroupRingMatrix":
        if not isinstance(scalar, (int, np.integer)):
            return NotImplemented
        return GroupRingMatrix(self.group, int(scalar) * self.coeffs)

    def __matmul__(self, other) -> "GroupRingMatrix":
        if isinstance(other, PolyphaseMatrix):
            other = to_group_ring(other)
        self._check(other)
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        require_float_exact(
            self.cols, np.abs(self.coeffs).max(initial=0), np.abs(other.coeffs).max(initial=0)
        )
        g = self.group
        f = g.order
        out = np.zeros((self.rows, other.cols, f), dtype=np.int64)
        a = self.coeffs.astype(np.float64)
        b = other.coeffs.astype(np.float64)
        for gi in range(f):
            for hi in range(f):
                t = g.add_index[gi, hi]
                out[:, :, t] += (a[:, :, gi] @ b[:, :, hi]).astype(np.int64)
        return GroupRingMatrix(g, out)

    def adjoint(self) -> "GroupRingMatrix":
        """Conjugate transpose: transpose plus entrywise involution."""
        c = self.coeffs[:, :, self.group.neg_index]
        return GroupRingMatrix(self.group, np.transpose(c, (1, 0, 2)))

    def evaluate(self, gamma: Character) -> np.ndarray:
        if gamma.group != self.group:
            raise ValueError("character belongs to a different group")
        return np.tensordot(self.coeffs, gamma.values, axes=([2], [0]))

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingMatrix)
            and other.group == self.group
            and bool(np.array_equal(other.coeffs, self.coeffs))
        )

    def first_difference(self, other: "GroupRingMatrix"):
        """(i, j) of the first differing entry, or None."""
        diff = np.nonzero(np.any(self.coeffs != other.coeffs, axis=2))
        if len(diff[0]) == 0:
            return None
        return int(diff[0][0]), int(diff[1][0])

    def _check(self, other):
        if not isinstance(other, GroupRingMatrix) or other.group != self.group:
            raise ValueError("matrices live over different group rings")

    def __repr__(self):
        return f"GroupRingMatrix({self.rows}x{self.cols} over {self.group.name()})"


def to_group_ring(m: PolyphaseMatrix) -> GroupRingMatrix:
    c = np.zeros((m.rows, m.cols, m.group.order), dtype=np.int64)
    ii, jj = np.nonzero(m.support)
    c[ii, jj, m.exponents[ii, jj]] = 1
    return GroupRingMatrix(m.group, c)


def adjoint(m: PolyphaseMatrix) -> GroupRingMatrix:
    return to_group_ring(m).adjoint()
