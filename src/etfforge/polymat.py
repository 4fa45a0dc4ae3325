"""Matrices over a group ring, and the monomial-constrained kind.

A PolyphaseMatrix is the constrained object the constructions emit:
every entry is either zero or a single group element z^g.  It is stored
as a support mask plus an index-encoded exponent array, which keeps the
"zero or one monomial" invariant structural.  A GroupRingMatrix is the
general object that products and adjoints land in, stored as an
(rows, cols, f) integer coefficient array.

The design Gram Phi* Phi, the product the exact checks need, is built
by integer scatter with no floating point at all.  The general
group-ring matmul runs one BLAS multiply per pair of group elements on
float64 views; float64 sums of integers are exact below 2^53, and
require_float_exact refuses any product whose entries could reach it.

Text serialization of a polyphase matrix:

    POLYPHASE rows=<b> cols=<v> group=Z{q1}x...
    <one line per row: "." for a zero entry, "g1,g2,..." for z^(g1,...)>

Lines use spaces between entries, LF endings, UTF-8.  The writer goes
one bounded row span at a time: one gather from a table of NUL-padded
byte cells, then one mask that drops the padding.  The reader goes one
row at a time through a table of the f + 1 labels.  It also takes tabs,
CR LF, blank lines and non-canonical cells ("5" over Z3, "+1", "-1",
"01"), read as integers reduced mod each factor.  It stores a row only
once it has read it, so a header cannot size an allocation.  A 0/1
incidence is one line of "0"/"1" per row, written and read as bytes.
"""

from __future__ import annotations

import numpy as np

from .groupring import AbelianGroup, Character, GroupRingElement


MAX_DENSE_CELLS = 2**28


def dense_cap_refusal(rows: int, cols: int) -> str | None:
    """Why a rows x cols 0/1 incidence is refused, or None: its cells, or
    the cells of its cols x cols point-pair matrix, exceed MAX_DENSE_CELLS."""
    cells = max(rows, cols) * cols
    if cells > MAX_DENSE_CELLS:
        return (
            f"{rows}x{cols} incidence and its point pairs need {cells} cells;"
            f" the cap is {MAX_DENSE_CELLS}"
        )
    return None


# cells per row span of the writers, format_polyphase and the brouwer
# support: whole-matrix gathers would hold b*v intp temporaries, and
# spans of 2^15 cells (256 KiB of intp) write as fast as larger ones
WRITE_SPAN_CELLS = 2**15


def row_spans(cost: np.ndarray, budget: int):
    """Consecutive row ranges [r0, r1) of at least one row each, whose
    summed cost stays within budget unless one row alone exceeds it."""
    ends = np.cumsum(cost)
    r0 = 0
    while r0 < len(cost):
        base = ends[r0 - 1] if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(ends, base + budget, side="right")))
        yield r0, r1
        r0 = r1


def zero_one_array(rows: int, cols: int) -> np.ndarray:
    """Zeroed int8 array for a 0/1 incidence; raises the dense_cap_refusal."""
    if refusal := dense_cap_refusal(rows, cols):
        raise ValueError(refusal)
    return np.zeros((rows, cols), dtype=np.int8)


def row_pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (a, b), in order of a, of every two entries (a = b
    included) that share a row, given the sorted row label of each entry."""
    start = np.searchsorted(rows, rows)
    reps = np.searchsorted(rows, rows, side="right") - start
    a = np.repeat(np.arange(len(rows)), reps)
    b = np.arange(len(a)) - np.repeat(np.cumsum(reps) - reps, reps) + start[a]
    return a, b


def require_float_exact(inner: int, a_max: int, b_max: int):
    """Raise unless a float64 product with this inner dimension and these
    entry bounds is exact: every partial sum must stay below 2^53."""
    if int(inner) * int(a_max) * int(b_max) >= 2**53:
        raise ValueError(
            f"float64 product not exact: inner {inner} x max|a| {a_max} x max|b| {b_max} >= 2^53"
        )


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
            other = other.to_group_ring()
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


class PolyphaseMatrix:
    """Matrix whose entries are zero or a single z^g."""

    def __init__(self, group: AbelianGroup, support, exponents):
        self.group = group
        self.support = np.asarray(support, dtype=bool)
        self.exponents = np.asarray(exponents, dtype=np.intp)
        if self.support.shape != self.exponents.shape or self.support.ndim != 2:
            raise ValueError("support and exponent arrays must be equal 2-d shapes")
        if self.support.any():
            exps = self.exponents[self.support]
            if exps.min() < 0 or exps.max() >= group.order:
                raise ValueError("exponent index out of range")

    @property
    def rows(self) -> int:
        return self.support.shape[0]

    @property
    def cols(self) -> int:
        return self.support.shape[1]

    def entry(self, i: int, j: int):
        if not self.support[i, j]:
            return None
        return self.group.element(int(self.exponents[i, j]))

    def replaced(self, i: int, j: int, g) -> "PolyphaseMatrix":
        """Copy with entry (i, j) set to z^g (or zero for None)."""
        support = self.support.copy()
        exps = self.exponents.copy()
        if g is None:
            support[i, j] = False
            exps[i, j] = 0
        else:
            support[i, j] = True
            exps[i, j] = self.group.index(g)
        return PolyphaseMatrix(self.group, support, exps)

    def modulus_squared(self) -> np.ndarray:
        """0/1 incidence of entrywise |.|^2, the underlying design."""
        return self.support.astype(np.int64)

    def to_group_ring(self) -> GroupRingMatrix:
        c = np.zeros((self.rows, self.cols, self.group.order), dtype=np.int64)
        ii, jj = np.nonzero(self.support)
        c[ii, jj, self.exponents[ii, jj]] = 1
        return GroupRingMatrix(self.group, c)

    def adjoint(self) -> GroupRingMatrix:
        return self.to_group_ring().adjoint()

    def gram(self) -> GroupRingMatrix:
        """Phi* Phi by integer scatter: each row adds z^(e_b - e_a) at (a, b)
        for every ordered pair (a, b) of its support columns."""
        g = self.group
        f, v = g.order, self.cols
        ii, jj = np.nonzero(self.support)
        e = self.exponents[ii, jj]
        a, b = row_pairs(ii)
        flat = (jj[a] * v + jj[b]) * f + g.add_index[g.neg_index[e[a]], e[b]]
        counts = np.bincount(flat, minlength=v * v * f)
        return GroupRingMatrix(g, counts.reshape(v, v, f))

    def __matmul__(self, other) -> GroupRingMatrix:
        return self.to_group_ring() @ other

    def evaluate(self, gamma: Character) -> np.ndarray:
        if gamma.group != self.group:
            raise ValueError("character belongs to a different group")
        return np.where(self.support, gamma.values[self.exponents], 0.0)

    def __eq__(self, other):
        return (
            isinstance(other, PolyphaseMatrix)
            and other.group == self.group
            and bool(np.array_equal(other.support, self.support))
            and bool(np.array_equal(other.exponents[other.support], self.exponents[self.support]))
        )

    def __repr__(self):
        return f"PolyphaseMatrix({self.rows}x{self.cols} over {self.group.name()})"


def _cell_labels(group: AbelianGroup) -> list[str]:
    """Text of each cell: "." for zero, then "g1,g2,..." per element index."""
    return ["."] + [",".join(map(str, e)) for e in group.elements]


def format_polyphase(m: PolyphaseMatrix) -> str:
    """The text form, built as bytes and decoded once.  Each cell of a
    span is a code into a table of byte cells, NUL-padded to one width:
    the f + 1 labels for a row's first column, the same led by a space
    for the others, and a row end after the last column."""
    labels = [s.encode() for s in _cell_labels(m.group)]
    cells = np.array(labels + [b" " + s for s in labels] + [b"\n"])
    lead = np.full(m.cols, len(labels))  # code of each column's "."
    lead[:1] = 0
    out = bytearray(f"POLYPHASE rows={m.rows} cols={m.cols} group={m.group.name()}\n".encode())
    for r0, r1 in row_spans(np.full(m.rows, m.cols + 1), WRITE_SPAN_CELLS):
        codes = np.full((r1 - r0, m.cols + 1), len(cells) - 1)
        body = codes[:, :-1]
        np.add(m.exponents[r0:r1], lead + 1, out=body)
        np.copyto(body, lead, where=~m.support[r0:r1])
        text = cells.take(codes).view(np.uint8)
        out.extend(text[text != 0])
    return out.decode("ascii")


def _cell_index(group: AbelianGroup, cell: str) -> int:
    """Index of a cell the label table misses: coordinates read as
    integers, then reduced mod each factor."""
    g = tuple(int(c) for c in cell.split(","))
    if len(g) != len(group.factors):
        raise ValueError(f"entry {cell!r} has wrong arity for {group.name()}")
    return group.index(tuple(c % q for c, q in zip(g, group.factors)))


def parse_polyphase(text: str) -> PolyphaseMatrix:
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or not lines[0].startswith("POLYPHASE"):
        raise ValueError("missing POLYPHASE header")
    fields = {}
    for tok in lines[0].split()[1:]:
        key, _, val = tok.partition("=")
        fields[key] = val
    try:
        rows, cols = int(fields["rows"]), int(fields["cols"])
        group = AbelianGroup.from_name(fields["group"])
    except KeyError as exc:
        raise ValueError(f"header missing field {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError(f"need rows >= 1 and cols >= 1, got rows={rows}, cols={cols}")
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} rows, found {len(lines) - 1}")
    # code -1 is a zero entry, code i is z^(element i); a row is stored only
    # once its cells are read, so no allocation runs ahead of the text
    lut = {label: i - 1 for i, label in enumerate(_cell_labels(group))}
    codes = []
    for ln in lines[1:]:
        cells = ln.split()
        if len(cells) != cols:
            raise ValueError(f"expected {cols} entries per row, found {len(cells)}")
        try:
            codes.append(np.fromiter(map(lut.__getitem__, cells), np.int16, cols))
        except KeyError:
            row = [lut[c] if c in lut else _cell_index(group, c) for c in cells]
            codes.append(np.array(row, dtype=np.int16))
    codes = np.stack(codes)
    return PolyphaseMatrix(group, codes >= 0, np.maximum(codes, 0))


def format_incidence(x: np.ndarray) -> str:
    x = np.asarray(x)
    bad = np.argwhere((x != 0) & (x != 1))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"incidence entry ({i}, {j}) is {x[i, j]}, not 0 or 1")
    out = np.full((x.shape[0], x.shape[1] + 1), ord("\n"), dtype=np.uint8)
    out[:, :-1] = x + ord("0")
    return out.tobytes().decode("ascii")


def parse_incidence(text: str) -> np.ndarray:
    rows = [ln for ln in text.split("\n") if ln.strip()]
    if not rows:
        raise ValueError("empty incidence file")
    width = len(rows[0])
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    # "replace" keeps one byte per character, and "?" is outside {0, 1}
    flat = np.frombuffer("".join(rows).encode("ascii", "replace"), dtype=np.uint8)
    bad_cell = (flat != ord("0")) & (flat != ord("1"))
    bad = (lengths != width) | np.logical_or.reduceat(bad_cell, np.cumsum(lengths) - lengths)
    if bad.any():
        raise ValueError(f"bad incidence row {int(np.argmax(bad))}")
    return (flat.reshape(len(rows), width) - ord("0")).astype(np.int64)


def format_complex_csv(c: np.ndarray) -> str:
    c = np.asarray(c, dtype=np.complex128)
    lines = []
    for row in c:
        # adding 0.0 turns -0.0 into +0.0 so signs are reproducible
        lines.append(",".join(f"{v.real + 0.0:.12g}{v.imag + 0.0:+.12g}i" for v in row))
    return "\n".join(lines) + "\n"
