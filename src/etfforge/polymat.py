"""Polyphase matrices over a group ring, and their text formats.

A PolyphaseMatrix is the constrained object the constructions emit:
every entry is either zero or a single group element z^g.  It is stored
as its shape and its nonzero cells, row-major: row, column and the
int16 element index (f <= 2^10 fits int16), so no b x v array forms
outside evaluate and modulus_squared, which export reads.  Its Gram
Phi* Phi, the product the exact checks need, is a plain (cols, f, cols)
array of group-ring coefficients in the narrowest signed type that holds
them, built by integer counting with no floating point at all.

Text serialization of a polyphase matrix:

    POLYPHASE rows=<b> cols=<v> group=Z{q1}x...
    <one line per row: "." for a zero entry, "g1,g2,..." for z^(g1,...)>

Lines use spaces between entries, LF endings, UTF-8.  The writer yields
the text in bounded row spans, for a caller to stream to a file: a fill
of ". " with each nonzero cell's label written over its dot.  The reader
goes one row at a time through a table of the f + 1 labels, and keeps a
row span's cells from one scan of its codes.  It also takes tabs, CR LF,
blank lines and non-canonical cells ("5" over Z3, "+1", "-1", "01"),
read as integers reduced mod each factor.  It stores a row only once it
has read it, so a header cannot size an allocation.  A 0/1 incidence is
one line of "0"/"1" per row, written and read as bytes.
"""

from __future__ import annotations

import operator

import numpy as np

from .groupring import AbelianGroup, Character


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


def listed_cells_refusal(rows: int, cols: int, cells: int) -> str | None:
    """Why a rows x cols 0/1 incidence held as its cell lists is refused,
    or None: its cells exceed MAX_DENSE_CELLS // 16, so the two intp lists
    take no more bytes than the int8 cells of a dense array at the cap."""
    cap = MAX_DENSE_CELLS // 16
    if cells > cap:
        return f"{rows}x{cols} incidence lists {cells} cells; the cap is {cap}"
    return None


# cells per row span of the writers: polyphase_chunks counts cells, the
# brouwer support its polar-line candidates, q^2+1 per row.  On a 2-core
# VM, streaming the ladder's seven files took 8-12 ms at 2^15, as at 2^16
# to 2^18 within noise, and 15-25 ms at 2^13; brouwer q=9 peaks at 0.24 MiB
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


class PolyphaseMatrix:
    """Matrix whose entries are zero or a single z^g, held as its shape
    (rows, cols) and its nonzero cells, row-major and distinct: row ii,
    column jj and the int16 element index e of each z^g.  Each index is
    checked before the int16 cast, which would wrap 65537 into range."""

    def __init__(self, group: AbelianGroup, shape, ii, jj, e):
        cells = [np.asarray(a) for a in (ii, jj, e)]
        if len({a.shape for a in cells}) > 1 or any(
                a.ndim != 1 or a.size and not np.issubdtype(a.dtype, np.integer) for a in cells):
            raise ValueError("cells must be 1-d integer arrays of one length")
        self.group, self.shape = group, tuple(map(operator.index, shape))
        if len(self.shape) != 2 or min(self.shape) < 0:
            raise ValueError(f"shape must be two sizes >= 0, got {shape}")
        for a, bound, what in zip(cells, self.shape + (group.order,), ("row", "column", "element")):
            if len(a) and (a.min() < 0 or a.max() >= bound):
                raise ValueError(f"{what} index out of range 0..{bound - 1}")
        (i0, i1), (j0, j1) = ((a[:-1], a[1:]) for a in cells[:2])
        if np.any((i1 < i0) | ((i1 == i0) & (j1 <= j0))):
            raise ValueError("cells must be row-major and distinct")
        self.rows, self.cols = self.shape
        self.ii, self.jj = (a.astype(np.intp, copy=False) for a in cells[:2])
        self.e = cells[2].astype(np.int16, copy=False)

    def modulus_squared(self) -> np.ndarray:
        """Dense 0/1 incidence of entrywise |.|^2, the underlying design."""
        x = np.zeros(self.shape, dtype=np.int64)
        x[self.ii, self.jj] = 1
        return x

    def gram(self) -> np.ndarray:
        """Phi* Phi as a (cols, f, cols) array, Gram[a, h, b] the coefficient
        of z^h in entry (a, b), counted from the sorted slots of each row's
        ordered pairs (a, b) of nonzero columns, which add z^(e_b - e_a).
        A coefficient counts rows and r = (v-1)/(k-1) < v, so
        +-max(rows, cols) bounds Phi* Phi - rI too."""
        g, jj, e = self.group, self.jj, self.e
        f, v = g.order, self.cols
        a, b = row_pairs(self.ii)
        flat = (jj[a] * f + g.add_index[g.neg_index[e[a]], e[b]]) * v + jj[b]
        slots, counts = np.unique(flat, return_counts=True)
        out = np.zeros(v * f * v, dtype=np.min_scalar_type(-max(self.rows, v) - 1))
        out[slots] = counts
        return out.reshape(v, f, v)

    def evaluate(self, gamma: Character) -> np.ndarray:
        """Phi at gamma as a dense array: float64 when gamma is real (every
        value is +-1), complex128 otherwise."""
        if gamma.group != self.group:
            raise ValueError("character belongs to a different group")
        phi = np.zeros(self.shape, dtype=gamma.typed_values.dtype)
        phi[self.ii, self.jj] = gamma.typed_values[self.e]
        return phi

    def __eq__(self, other):
        return (
            isinstance(other, PolyphaseMatrix)
            and (other.group, other.shape) == (self.group, self.shape)
            and all(map(np.array_equal, (other.ii, other.jj, other.e), (self.ii, self.jj, self.e)))
        )

    def __repr__(self):
        return f"PolyphaseMatrix({self.rows}x{self.cols} over {self.group.name()})"


def _cell_labels(group: AbelianGroup) -> list[str]:
    """Text of each cell code: "g1,g2,..." per element index, then "." for f."""
    return [",".join(map(str, e)) for e in group.elements] + ["."]


def polyphase_chunks(m: PolyphaseMatrix):
    """The text form as ASCII bytes-like chunks: the header, then one per
    row span.  A span is filled with one ". " word per cell, each nonzero
    cell's label and a space are written over its word, shifted by the
    extra words of the row's earlier labels, and each row's last byte
    becomes a row end.  An even-length label's last byte is inserted last."""
    yield f"POLYPHASE rows={m.rows} cols={m.cols} group={m.group.name()}\n".encode()
    if not m.cols:
        yield b"\n" * m.rows
        return
    labels = [s.encode() for s in _cell_labels(m.group)[:-1]]
    lens = np.array([len(s) for s in labels])
    words = np.array([s[:(n - 1) | 1] + b" " for s, n in zip(labels, lens)])
    words = words.view(np.uint16).reshape(len(labels), -1).T.copy()
    size, even = (lens + 1) // 2, lens % 2 == 0
    tail = np.array([s[-1] for s in labels], dtype=np.uint8)
    dots = np.frombuffer(b". ", np.uint16)[0]
    for r0, r1 in row_spans(np.full(m.rows, m.cols + 1), WRITE_SPAN_CELLS):
        lo, hi = np.searchsorted(m.ii, (r0, r1))
        ii, e = m.ii[lo:hi] - r0, m.e[lo:hi]
        nw = size.take(e)
        shift = np.concatenate(([0], np.cumsum(nw - 1)))
        at = ii * m.cols + m.jj[lo:hi] + shift[:-1]
        ends = m.cols * np.arange(1, r1 - r0 + 1)
        ends += shift.take(np.searchsorted(ii, np.arange(1, r1 - r0 + 1)))
        text = np.full(ends[-1], dots)
        for t in range(len(words)):
            k = nw > t
            text[at[k] + t] = words[t].take(e[k])
        text = text.view(np.uint8)
        text[2 * ends - 1] = ord("\n")
        if even.any():
            k = even.take(e)
            text = np.insert(text, 2 * (at[k] + nw[k]) - 1, tail.take(e[k]))
        yield text.data


def format_polyphase(m: PolyphaseMatrix) -> str:
    """The text form, joined from polyphase_chunks and decoded once."""
    return b"".join(polyphase_chunks(m)).decode("ascii")


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
    # each span's cells, from one scan of its codes; a row is stored only
    # once it is read, so no allocation runs ahead of the text
    lut = {label: i for i, label in enumerate(_cell_labels(group))}
    cells = []
    for r0, r1 in row_spans(np.full(rows, cols), WRITE_SPAN_CELLS):
        codes = []
        for ln in lines[1 + r0:1 + r1]:
            words = ln.split()
            if len(words) != cols:
                raise ValueError(f"expected {cols} entries per row, found {len(words)}")
            try:
                codes.append(np.fromiter(map(lut.__getitem__, words), np.int16, cols))
            except KeyError:
                row = [lut[c] if c in lut else _cell_index(group, c) for c in words]
                codes.append(np.array(row, dtype=np.int16))
        codes = np.concatenate(codes)
        at = np.flatnonzero(codes != group.order)
        cells.append((at // cols + r0, at % cols, codes.take(at)))
    return PolyphaseMatrix(group, (rows, cols), *map(np.concatenate, zip(*cells)))


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
