"""Polyphase matrices over a group ring, and their text formats.

A PolyphaseMatrix is the constrained object the constructions emit:
every entry is either zero or a single group element z^g.  It is stored
as its shape and its nonzero cells, row-major: row, column and the
int16 element index (f <= 2^10 fits int16), so no b x v array forms
outside evaluate and modulus_squared, which export reads.  Its Gram
Phi* Phi, which every design check reads, is a plain (cols, f, cols)
array of group-ring coefficients in the narrowest signed type that holds
them, refused over the dense cap, then counted into that array one
column span at a time, with no floating point and no wider counter.

Text serialization of a polyphase matrix:

    POLYPHASE rows=<b> cols=<v> group=Z{q1}x...
    <one line per row: "." for a zero entry, "g1,g2,..." for z^(g1,...)>

Lines use spaces between entries, LF endings, UTF-8.  The writer yields
the text in bounded row spans, for a caller to stream to a file: a fill
of ". " with each nonzero cell's label written over its dot.  The reader
counts the lines, then reads one row span of them at a time as bytes:
word edges from a table of the bytes str.split() splits ASCII on, words
per line from the edges, a one-byte "." word as a zero cell, and only
the other words looked up, in a bytes-keyed table of the f labels.  A
span with non-ASCII text is first respaced line by line.  The reader
also takes tabs, CR LF, blank lines, any Unicode space and
non-canonical cells ("5" over Z3, "+1", "-1", "01"), read as integers
reduced mod each factor.  It stores a row only once it has read it, so a
header cannot size an allocation.  A 0/1 incidence is one line of
"0"/"1" per row, written and read as bytes.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from .groupring import AbelianGroup, Character


MAX_DENSE_CELLS = 2**28


def dense_cap_refusal(what: str, cells: int) -> str | None:
    """Why what is refused, or None: the cells it allocates exceed MAX_DENSE_CELLS."""
    if cells > MAX_DENSE_CELLS:
        return f"{what} needs {cells} cells; the cap is {MAX_DENSE_CELLS}"
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


# row pairs per column span of PolyphaseMatrix.gram, which counts them
# straight into the Gram: the budget bounds only the span's few intp pair
# arrays, about 128 KiB each
GRAM_SPAN_SLOTS = 2**14


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


def ragged_ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The concatenation of the ranges [start_i, start_i + count_i)."""
    out = np.repeat(start - np.cumsum(count) + count, count)
    out += np.arange(len(out))
    return out


def zero_one_array(rows: int, cols: int) -> np.ndarray:
    """Zeroed int8 array for a 0/1 incidence; raises the dense_cap_refusal of its cells."""
    if refusal := dense_cap_refusal(f"{rows}x{cols} incidence", rows * cols):
        raise ValueError(refusal)
    return np.zeros((rows, cols), dtype=np.int8)


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
        of z^h in entry (a, b): each row through columns a and b adds
        z^(e_b - e_a).  A coefficient counts rows through column a, and
        Gram[a, 0, a] counts them all, so the largest column count is the
        largest coefficient and sizes the narrowest signed type: int8 on
        every design of up to 127 rows per column.  The cells are sorted by
        column once; each span of columns expands the rows through it into
        their ordered pairs and adds one per pair into its slot of the
        result, which is exact as no slot exceeds the largest column count."""
        if refusal := self.gram_refusal():
            raise ValueError(refusal)
        g, f, v = self.group, self.group.order, self.cols
        per_col = np.bincount(self.jj, minlength=v)
        out = np.zeros((v, f, v), dtype=np.min_scalar_type(-int(per_col.max(initial=0)) - 1))
        by_col = np.argsort(self.jj, kind="stable")
        col_ptr = np.concatenate(([0], np.cumsum(per_col)))
        row_ptr = np.searchsorted(self.ii, np.arange(self.rows + 1))
        width = np.diff(row_ptr)  # cells per row
        pairs = np.bincount(self.jj, weights=width[self.ii], minlength=v).astype(np.intp)
        neg, add = g.neg_index * f, g.add_index.ravel()
        one = out.dtype.type(1)  # a typed value keeps add.at on its fast path
        for c0, c1 in row_spans(pairs, GRAM_SPAN_SLOTS):
            src = by_col[col_ptr[c0]:col_ptr[c1]]  # the span's cells, column a
            row = self.ii.take(src)
            n = width.take(row)
            # each cell of src, in column a, pairs with every cell of its
            # row, in column b, to count in slot (a f + e_b - e_a) v + b
            mate = ragged_ranges(row_ptr.take(row), n)
            slot = np.repeat(neg.take(self.e.take(src)), n)
            slot += self.e.take(mate)
            slot = add.take(slot)
            slot += np.repeat(self.jj.take(src) * f, n)
            slot *= v
            slot += self.jj.take(mate)
            np.add.at(out.reshape(-1), slot, one)
        return out

    def gram_refusal(self) -> str | None:
        """gram's dense_cap_refusal: its v f v cells, and S and S S at a character."""
        v, f = self.cols, self.group.order
        return dense_cap_refusal(f"{v}x{f}x{v} Gram with its square", v * f * v + 2 * v * v)

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


# bytes.translate table: 1 at the bytes str.split() splits ASCII text on,
# \t \n \v \f \r, \x1c-\x1f and " ", 0 at every other byte
_SPLIT_BYTES = bytes(9 <= b <= 13 or 28 <= b <= 32 for b in range(256))


def _nonblank_lines(text: str):
    """The pieces of text.split("\n") that hold more than whitespace, one
    at a time, so no list of every line forms."""
    start = 0
    while start >= 0:
        end = text.find("\n", start)
        line = text[start:end] if end >= 0 else text[start:]
        if line.strip():
            yield line
        start = end + 1 if end >= 0 else -1


def _span_cells(span: list[str], cols: int, group: AbelianGroup, lut: dict) -> tuple:
    """The row-major positions and element indices of the nonzero cells of
    a span of lines, read as bytes.  Only the words other than "." are
    looked up, in lut by their bytes, then by _cell_index; a span with
    non-ASCII text is first respaced line by line by str.split().  The
    first line of the wrong width raises once every line before it is read."""
    if not all(map(str.isascii, span)):
        span = [" ".join(ln.split()) for ln in span]
    buf = "\n".join(["", *span, ""]).encode()  # each line between two row ends
    text = np.frombuffer(buf, np.uint8)
    # word edges: where a byte str.split() splits on meets one it keeps
    blank = np.frombuffer(buf.translate(_SPLIT_BYTES), np.bool_)
    edges = np.flatnonzero(blank[1:] != blank[:-1])
    edges += 1
    starts, ends = edges[::2], edges[1::2]
    per_line = np.diff(np.searchsorted(starts, np.flatnonzero(text == ord("\n"))))
    wide = per_line != cols
    good = int(np.argmax(wide)) if wide.any() else len(span)
    # a "." word is a zero cell: a dot followed by a byte that splits
    dots = text == ord(".")
    dots[:-1] &= blank[1:]
    at = np.flatnonzero(~dots.take(starts[:good * cols]))
    words = list(map(buf.__getitem__, map(slice, starts.take(at).tolist(), ends.take(at).tolist())))
    try:
        codes = np.fromiter(map(lut.__getitem__, words), np.int16, len(words))
    except KeyError:
        codes = np.array([lut[w] if w in lut else _cell_index(group, w.decode()) for w in words],
                         dtype=np.int16)
    if good < len(span):
        raise ValueError(f"expected {cols} entries per row, found {per_line[good]}")
    return at, codes


def parse_polyphase(text: str) -> PolyphaseMatrix:
    # the rows are counted first, then read one span of lines at a time
    count = sum(1 for _ in _nonblank_lines(text))
    lines = _nonblank_lines(text)
    header = next(lines, "")
    if not header.startswith("POLYPHASE"):
        raise ValueError("missing POLYPHASE header")
    fields = {}
    for tok in header.split()[1:]:
        key, _, val = tok.partition("=")
        fields[key] = val
    try:
        rows, cols = int(fields["rows"]), int(fields["cols"])
        group = AbelianGroup.from_name(fields["group"])
    except KeyError as exc:
        raise ValueError(f"header missing field {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError(f"need rows >= 1 and cols >= 1, got rows={rows}, cols={cols}")
    if count - 1 != rows:
        raise ValueError(f"expected {rows} rows, found {count - 1}")
    # each span's cells; a row is stored only once it is read, so no
    # allocation runs ahead of the text
    lut = {label.encode(): i for i, label in enumerate(_cell_labels(group)[:-1])}
    cells = []
    for r0, r1 in row_spans(np.full(rows, cols), WRITE_SPAN_CELLS):
        at, codes = _span_cells(list(itertools.islice(lines, r1 - r0)), cols, group, lut)
        cells.append((at // cols + r0, at % cols, codes))
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
