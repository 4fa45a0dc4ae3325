import random
import time
import tracemalloc

import numpy as np
import pytest

from etfforge.construct import (
    affine_polyphase,
    brouwer_polyphase,
    example_9_3_3,
    gq_from_polyphase,
    simplex_phased,
)
from etfforge import cli, polymat
from etfforge.groupring import AbelianGroup, characters_of
from etfforge.polymat import (
    PolyphaseMatrix,
    format_complex_csv,
    format_incidence,
    format_polyphase,
    parse_incidence,
    parse_polyphase,
    polyphase_chunks,
)
from reference_ring import (
    GroupRingElement,
    GroupRingMatrix,
    adjoint,
    dense_codes,
    entry,
    from_codes,
    replaced,
    require_float_exact,
    to_group_ring,
)

GROUPS = [AbelianGroup([2]), AbelianGroup([4]), AbelianGroup([2, 3]), AbelianGroup([3, 3])]
# the largest groups, order 2^10: the zero code is 1024, and f * code leaves int16
CODE_EDGE_FACTORS = [(2,) * 10, (1024,)]


def _random_polyphase(group, rows, cols, rng, density=0.6):
    support = rng.random((rows, cols)) < density
    exps = rng.integers(0, group.order, size=(rows, cols))
    return from_codes(group, np.where(support, exps, group.order))


def _random_grm(group, rows, cols, rng):
    return GroupRingMatrix(group, rng.integers(-3, 4, size=(rows, cols, group.order)))


def _blockwise_lift(m: GroupRingMatrix) -> np.ndarray:
    """Oracle: lift each entry separately via the group-ring lift."""
    g = m.group
    f = g.order
    diff = g.add_index[:, g.neg_index]  # diff[a, b] = index of a - b
    out = np.zeros((m.rows * f, m.cols * f), dtype=np.int64)
    for i in range(m.rows):
        for j in range(m.cols):
            # translation lift: the (a, b) entry is the coefficient of z^(a - b)
            out[i * f : (i + 1) * f, j * f : (j + 1) * f] = m.coeffs[i, j][diff]
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


# The per-cell text routines that the array programs replaced.  They
# stay here as the reference: the library must match their bytes, their
# matrices and their error messages.
def _reference_format_polyphase(m):
    lines = [f"POLYPHASE rows={m.rows} cols={m.cols} group={m.group.name()}"]
    codes = dense_codes(m)  # once: one densify per cell would take minutes at brouwer q=7
    for i in range(m.rows):
        cells = []
        for j in range(m.cols):
            c = int(codes[i, j])
            e = None if c == m.group.order else m.group.element(c)
            cells.append("." if e is None else ",".join(str(c) for c in e))
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


def _from_entries(group, entries):
    """A PolyphaseMatrix from a nested list of None (zero) or group-element tuples."""
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    codes = np.full((rows, cols), group.order, dtype=np.int16)
    for i, row in enumerate(entries):
        if len(row) != cols:
            raise ValueError("ragged entry rows")
        for j, e in enumerate(row):
            if e is not None:
                codes[i, j] = group.index(e)
    return from_codes(group, codes)


def _reference_parse_polyphase(text):
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
    entries = []
    for ln in lines[1:]:
        cells = ln.split()
        if len(cells) != cols:
            raise ValueError(f"expected {cols} entries per row, found {len(cells)}")
        row = []
        for cell in cells:
            if cell == ".":
                row.append(None)
            else:
                g = tuple(int(c) for c in cell.split(","))
                if len(g) != len(group.factors):
                    raise ValueError(f"entry {cell!r} has wrong arity for {group.name()}")
                row.append(tuple(c % q for c, q in zip(g, group.factors)))
        entries.append(row)
    return _from_entries(group, entries)


def _reference_format_incidence(x):
    return "\n".join("".join(str(int(v)) for v in row) for row in np.asarray(x)) + "\n"


def _reference_parse_incidence(text):
    rows = [ln for ln in text.split("\n") if ln.strip()]
    if not rows:
        raise ValueError("empty incidence file")
    width = len(rows[0])
    out = np.zeros((len(rows), width), dtype=np.int64)
    for i, ln in enumerate(rows):
        if len(ln) != width or set(ln) - {"0", "1"}:
            raise ValueError(f"bad incidence row {i}")
        out[i] = [int(c) for c in ln]
    return out


def _outcome(parse, text):
    """What a parser makes of text: its result, or its ValueError message."""
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _assert_parses_like_reference(text):
    got = _outcome(parse_polyphase, text)
    want = _outcome(_reference_parse_polyphase, text)
    assert got == want, repr(text)
    if not isinstance(want, str):
        assert got.e.dtype == want.e.dtype == np.int16, repr(text)


GOLDEN_DESIGNS = {
    **{f"simplex_v{v}": (simplex_phased, v) for v in range(3, 8)},
    "example933": (example_9_3_3,),
    **{f"affine_q{q}": (affine_polyphase, q) for q in (2, 3, 4, 5, 7, 8, 9)},
    **{f"brouwer_q{q}": (brouwer_polyphase, q) for q in (2, 3, 4, 5, 7)},
}


def _streamed(m, tmp_path) -> bytes:
    """The bytes construct and export write: m's chunks streamed to a file."""
    path = tmp_path / "streamed.polyphase"
    cli._atomic_write(path, polyphase_chunks(m))
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN_DESIGNS))
def test_text_matches_reference_on_golden_designs(name, tmp_path):
    build, *args = GOLDEN_DESIGNS[name]
    m = build(*args)
    text = format_polyphase(m)
    assert text == _reference_format_polyphase(m)
    assert _streamed(m, tmp_path) == text.encode()
    back = parse_polyphase(text)
    assert back == _reference_parse_polyphase(text) == m


@pytest.mark.parametrize(
    "factors", [(2, 3), (4, 2), (5,), (2, 2, 2, 2, 2), (12, 5), (11,), *CODE_EDGE_FACTORS], ids=str
)
def test_text_matches_reference_on_random_matrices(factors, monkeypatch, tmp_path):
    # Z2^5 cells take 10 bytes, wider than a machine word; the labels of
    # Z12xZ5 and Z11 vary in width; Z2^10 and Z1024 code a zero as 1024
    group = AbelianGroup(factors)
    rng = np.random.default_rng(11)
    shapes = ((1, 1, 1.0), (1, 9, 0.5), (6, 1, 0.5), (7, 11, 0.3), (12, 5, 0.9), (4, 6, 0.0))
    cases = [_random_polyphase(group, rows, cols, rng, density) for rows, cols, density in shapes]
    codes = dense_codes(_random_polyphase(group, 9, 13, rng, 0.5)).copy()
    codes[[0, 4, 8]] = group.order
    cases.append(from_codes(group, codes))  # some all-zero rows
    zero_rows = np.flatnonzero(~cases[-1].modulus_squared().any(axis=1))
    assert {0, 4, 8} <= set(zero_rows.tolist()) and len(zero_rows) < 9
    # no cells: the reader refuses these, the writer must still match
    empty = [_random_polyphase(group, rows, cols, rng) for rows, cols in ((3, 0), (0, 4), (0, 0))]
    # the default spans, one row per span, and uneven spans of 30 cells
    for span in (polymat.WRITE_SPAN_CELLS, 1, 30):
        monkeypatch.setattr(polymat, "WRITE_SPAN_CELLS", span)
        for m in cases + empty:
            text = format_polyphase(m)
            assert text == _reference_format_polyphase(m)
            assert _streamed(m, tmp_path) == text.encode()
    # the reader takes no spans, so each text is read back once; each read
    # builds the group from the header, 24 ms at Z2^10
    for m in cases:
        text = format_polyphase(m)
        _assert_parses_like_reference(text)
        assert parse_polyphase(text) == m


def test_format_memory_is_bounded_by_the_text():
    for m in (affine_polyphase(27), brouwer_polyphase(7)):
        tracemalloc.start()
        try:
            text = format_polyphase(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the text itself counts, and its bytes before the decode; a
        # whole-matrix gather would take 11x
        assert peak <= 2.5 * len(text)


def test_streamed_write_memory_is_bounded_by_a_span(tmp_path):
    # brouwer q=9: an 8.2 MiB text, written through spans of 2^15 cells
    m = brouwer_polyphase(9)
    path = tmp_path / "brouwer_q9.polyphase"
    tracemalloc.start()
    try:
        cli._atomic_write(path, polyphase_chunks(m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 8 << 20
    assert peak < 1 << 20, peak


def test_parse_memory_is_bounded_by_the_text(tmp_path):
    # brouwer q=9: b x v = 4.3 M cells, 59 130 of them nonzero; the lines
    # are read one row span at a time, so 2.4 MiB is measured against a
    # text of 8.2 MiB (10.9 MiB when every line was held at once).  affine
    # q=16: spans of 2^15 characters peak at 0.56 MiB for a 0.16 MiB text
    # (1.23 MiB with spans of 2^15 cells)
    texts = {}
    for m, bound in ((brouwer_polyphase(9), 0.5), (affine_polyphase(16), 3.8)):
        texts[m.rows] = text = format_polyphase(m)
        tracemalloc.start()
        try:
            back = parse_polyphase(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == m
        assert peak < bound * len(text), (m, peak)
    # read from its file, brouwer q=9 peaks at 2.4 MiB (16.5 MiB when the
    # whole text was read first)
    path = tmp_path / "brouwer_q9.polyphase"
    path.write_bytes(texts[5913].encode())
    tracemalloc.start()
    try:
        m = cli._load_input(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (m.rows, m.cols, len(m.e)) == (5913, 730, 59130)
    assert peak < 4 << 20, peak


def test_parse_matches_reference_on_text_variants():
    base = "POLYPHASE rows=2 cols=3 group=Z2xZ3\n0,1 . 1,2\n. 1,0 0,0\n"
    variants = [
        base.replace(" ", "\t"),
        base.replace("\n", "\r\n"),
        "\n\n" + base.replace("\n", "\n  \n") + "\n\n",
        "POLYPHASE   rows=2\tcols=3 group=Z2xZ3 extra=1\n" + base.split("\n", 1)[1],
        # non-canonical cells reduce mod each factor
        "POLYPHASE rows=2 cols=3 group=Z2xZ3\n2,4 . -1,+5\n. 01,0 0,-3\n",
        "POLYPHASE rows=1 cols=4 group=Z3\n5 +1 -1 01\n",
        # int() reads underscores and other scripts' digits; str.split() any
        # Unicode space
        "POLYPHASE rows=1 cols=4 group=Z3\n1_0 \u0663 0\u00a0.\n",
        # the sorted label table: labels of 9 bytes, wider than 8, and a
        # word wider than any label; labels that prefix one another; one
        # span of hits and misses
        "POLYPHASE rows=2 cols=3 group=Z2xZ2xZ2xZ2xZ2\n1,0,1,0,1 . 0,0,0,0,1\n. 1,1,1,1,1 1,0,1,0,+1\n",
        "POLYPHASE rows=1 cols=4 group=Z12\n1 11 . 10\n",
        "POLYPHASE rows=1 cols=3 group=Z3\n2 +2 02\n",
    ]
    for text in variants:
        _assert_parses_like_reference(text)
        assert not isinstance(_outcome(parse_polyphase, text), str), repr(text)
    assert parse_polyphase(variants[0]) == parse_polyphase(base)
    assert parse_polyphase(variants[1]) == parse_polyphase(base)
    assert parse_polyphase(variants[2]) == parse_polyphase(base)
    assert dense_codes(parse_polyphase(variants[5])).tolist() == [[2, 1, 2, 1]]
    assert dense_codes(parse_polyphase(variants[-3])).tolist() == [[21, 32, 1], [32, 31, 21]]
    assert dense_codes(parse_polyphase(variants[-2])).tolist() == [[1, 11, 12, 10]]
    assert dense_codes(parse_polyphase(variants[-1])).tolist() == [[2, 2, 2]]
    # a NUL after a label: the key's bytes match, its length does not, so
    # the word misses the table and int() refuses it
    text = "POLYPHASE rows=1 cols=2 group=Z12\n1\x00 11\n"
    _assert_parses_like_reference(text)
    assert "invalid literal" in _outcome(parse_polyphase, text)


def test_only_non_canonical_cells_miss_the_label_table(monkeypatch):
    # every canonical label is found in the sorted table, whatever its
    # length, and only the other cells are read one at a time
    misses, cell_index = [], polymat._cell_index

    def counted(group, cell):
        misses.append(cell)
        return cell_index(group, cell)

    monkeypatch.setattr(polymat, "_cell_index", counted)
    for text in (format_polyphase(affine_polyphase(16)),
                 "POLYPHASE rows=2 cols=4 group=Z12\n1 11 . 10\n11 0 1 .\n",
                 "POLYPHASE rows=1 cols=2 group=Z2xZ2xZ2xZ2xZ2\n1,0,1,0,1 0,0,0,0,1\n"):
        parse_polyphase(text)
    assert misses == []
    parse_polyphase("POLYPHASE rows=1 cols=4 group=Z12\n2 +2 11 02\n")
    assert misses == ["+2", "02"]


def test_parse_matches_reference_on_every_space(monkeypatch):
    # every other byte str.split() splits ASCII on, between cells and
    # around a lone "."; then non-ASCII spaces, alone and in a row, in the
    # first or the second of two one-row spans
    base = "POLYPHASE rows=2 cols=3 group=Z2xZ3\n0,1 . 1,2\n. 1,0 0,0\n"
    variants = [
        "POLYPHASE rows=2 cols=3 group=Z2xZ3\n0,1\v.\f1,2\x1c\n\x1d.\x1e1,0\x1f0,0\n",
        "POLYPHASE rows=2 cols=3 group=Z2xZ3\n0,1\x85.\u20281,2\n.\u30001,0\u2028\x85 0,0\n",
        "POLYPHASE rows=2 cols=3 group=Z2xZ3\n0,1 . 1,2\n.\u30001,0 0,0\n",
    ]
    for span in (polymat.WRITE_SPAN_CELLS, 3):
        monkeypatch.setattr(polymat, "WRITE_SPAN_CELLS", span)
        for text in variants:
            _assert_parses_like_reference(text)
            assert parse_polyphase(text) == parse_polyphase(base), repr(text)


@pytest.mark.parametrize(
    "text",
    [
        "POLYPHASE rows=1 cols=2 group=Z3\n0 x\n",  # bad integer
        "POLYPHASE rows=1 cols=2 group=Z3\n0 1,\n",  # empty coordinate
        "POLYPHASE rows=1 cols=2 group=Z2xZ3\n0,1 1\n",  # wrong arity
        "POLYPHASE rows=1 cols=2 group=Z3\n1,1 .\n",  # wrong arity
        "POLYPHASE rows=2 cols=2 group=Z3\n0 1\n0 1 2\n",  # wrong cell count
        "POLYPHASE rows=2 cols=2 group=Z3\n0\n0 1 2\n",  # wrong count in the first row
        # two bad rows: the first offence wins, in row-major order
        "POLYPHASE rows=2 cols=2 group=Z3\n0 y\n0 1 2\n",
        "POLYPHASE rows=2 cols=2 group=Z3\n0 1 2\n0 y\n",
        "POLYPHASE rows=2 cols=2 group=Z3\nz y\n0,0 w\n",
        "POLYPHASE rows=3 cols=2 group=Z3\n0 1\n0 1\n",
        "POLYPHASE rows=1 cols=x group=Z3\n0\n",
        "POLYPHASE rows=1 group=Z3\n0\n",
        "POLYPHASE rows=1 cols=1 group=Y3\n0\n",
        "POLYPHASE rows=1 cols=1 group=Z1\n0\n",
        "no header\n0\n",
        "",
        # NUL is no space to str.split(), so it stays inside the cell
        "POLYPHASE rows=1 cols=2 group=Z3\n0\x00 1\n",
    ],
)
def test_parse_errors_match_reference(text):
    got = _outcome(parse_polyphase, text)
    assert isinstance(got, str)
    assert got == _outcome(_reference_parse_polyphase, text)


# digits twice over, so that a flipped cell often still parses
FUZZ_CHARS = "01234567890123456789.,-+_ \t\r\nxZ=\u0663\u00a0"
FUZZ_HEADER_VALUES = ["0", "-1", "1", "2", "9", "12", "13", "10**12", "x", "", "Z2", "Z3", "Z3xZ3", "Z1", "Z4096"]


def _mutate(text, rng):
    lines = text.split("\n")
    kind = rng.randrange(4)
    if kind == 0:  # flip a byte
        i = rng.randrange(len(text))
        return text[:i] + rng.choice(FUZZ_CHARS) + text[i + 1 :]
    if kind == 1:  # drop a token
        i = rng.randrange(len(lines))
        toks = lines[i].split(" ")
        del toks[rng.randrange(len(toks))]
        lines[i] = " ".join(toks)
    elif kind == 2:  # duplicate a line
        i = rng.randrange(len(lines))
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    else:  # edit the header: a field's value, or drop the field
        toks = lines[0].split(" ")
        i = rng.randrange(len(toks))
        key = toks[i].partition("=")[0]
        toks[i] = "" if rng.random() < 0.2 else f"{key}={rng.choice(FUZZ_HEADER_VALUES)}"
        lines[0] = " ".join(toks)
    return "\n".join(lines)


def test_parse_fuzz_matches_reference(monkeypatch):
    # the default spans, one row per span, and spans of 30 cells, three
    # rows of both seeds, so a bad row may sit in any span
    seeds = [format_polyphase(affine_polyphase(3)), format_polyphase(brouwer_polyphase(2))]
    for span in (polymat.WRITE_SPAN_CELLS, 1, 30):
        monkeypatch.setattr(polymat, "WRITE_SPAN_CELLS", span)
        rng = random.Random(20161)
        outcomes = {"parsed": 0, "error": 0}
        for trial in range(300):
            text = seeds[trial % 2]
            for _ in range(rng.choice((1, 1, 2, 3))):
                text = _mutate(text, rng)
            _assert_parses_like_reference(text)
            outcomes["error" if isinstance(_outcome(parse_polyphase, text), str) else "parsed"] += 1
        # the mutations reach both sides of the parser
        assert min(outcomes.values()) >= 30, outcomes


def test_parse_first_bad_line_decides_across_spans(monkeypatch):
    # a bad cell and a line of the wrong width, in either order, in one
    # line, in one span or in different spans: the first bad line decides,
    # and on that line the width is read before any cell
    head = "POLYPHASE rows=4 cols=2 group=Z3\n"
    bodies = {
        "0 1\n0 y\n0 1\n0 1 2\n": "invalid literal",
        "0 1\n0 1 2\n0 1\n0 y\n": "expected 2 entries",
        "0 1\n0 1\n0 1\n0 y 2\n": "expected 2 entries",
        "0 y\n0 1\n0 1\n0 1 2\n": "invalid literal",
    }
    for span in (polymat.WRITE_SPAN_CELLS, 2, 8):  # one span, one row, two 4-character rows
        monkeypatch.setattr(polymat, "WRITE_SPAN_CELLS", span)
        for body, kind in bodies.items():
            got = _outcome(parse_polyphase, head + body)
            assert got == _outcome(_reference_parse_polyphase, head + body), (span, body)
            assert kind in got, (span, body, got)


def test_parse_allocates_no_more_than_the_text_holds():
    # a wide first row over many one-cell rows: rows x cols is 2.5e9 cells,
    # the text 200 kB, and the parse must fail on the second row
    n = 50_000
    text = f"POLYPHASE rows={n} cols={n} group=Z3\n" + " ".join(["0"] * n) + "\n" + "0\n" * (n - 1)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"^expected {n} entries per row, found 1$"):
            parse_polyphase(text)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0
    assert peak < 64 * len(text)


def test_entry_accessors_and_replaced():
    group = AbelianGroup([3])
    m = _from_entries(group, [[(0,), None], [(2,), (1,)]])
    assert entry(m, 0, 0) == (0,)
    assert entry(m, 0, 1) is None
    m2 = replaced(m, 0, 1, (2,))
    assert entry(m2, 0, 1) == (2,)
    assert entry(m, 0, 1) is None  # original untouched
    m3 = replaced(m, 0, 0, None)
    assert entry(m3, 0, 0) is None
    assert np.array_equal(m.modulus_squared(), [[1, 0], [1, 1]])


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name())
def test_evaluate_commutes_with_matmul(group):
    rng = np.random.default_rng(2)
    a = _random_polyphase(group, 4, 6, rng)
    b = _random_grm(group, 6, 5, rng)
    prod = to_group_ring(a) @ b
    for gamma in characters_of(group):
        lhs = prod.evaluate(gamma)
        rhs = a.evaluate(gamma) @ b.evaluate(gamma)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name())
def test_adjoint(group):
    rng = np.random.default_rng(3)
    a = _random_polyphase(group, 4, 6, rng)
    adj = adjoint(a)
    assert (adj.rows, adj.cols) == (6, 4)
    assert adj.adjoint() == to_group_ring(a)
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
            acc = GroupRingElement(group, np.zeros(group.order))
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
    eye = GroupRingMatrix.from_scalar(group, np.eye(4, dtype=np.int64))
    assert a @ eye == a
    with pytest.raises(ValueError):
        a @ c @ c  # inner mismatch on the second product


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name())
def test_gram_matches_adjoint_product_on_ragged_rows(group):
    rng = np.random.default_rng(8)
    for rows, cols in ((5, 4), (1, 3), (3, 1)):
        m = _random_polyphase(group, rows, cols, rng)
        gram = m.gram()
        assert gram.dtype == np.int8
        assert np.array_equal(gram, (adjoint(m) @ m).coeffs.transpose(0, 2, 1))
    empty = from_codes(group, np.full((2, 3), group.order))
    assert np.array_equal(empty.gram(), np.zeros((3, group.order, 3)))


def test_gram_matches_adjoint_product_across_column_spans(monkeypatch):
    # one column per span, then spans of a few columns that leave the last
    # one short, with empty columns and a column of more rows than int8 holds;
    # the budget counts row pairs only, 370 362 0 353 316 550 363 per column
    group, rng = AbelianGroup([2, 3]), np.random.default_rng(10)
    codes = dense_codes(_random_polyphase(group, 140, 7, rng)).copy()
    codes[:, 2] = group.order
    codes[rng.random(140) < 0.2, 4] = group.order
    codes[:, 5] = rng.integers(0, group.order, 140)
    m = from_codes(group, codes)
    want = (adjoint(m) @ m).coeffs.transpose(0, 2, 1)
    spans = []

    def recorded_spans(cost, budget):
        for span in polymat_row_spans(cost, budget):
            spans.append(span)
            yield span

    polymat_row_spans = polymat.row_spans
    monkeypatch.setattr(polymat, "row_spans", recorded_spans)
    every = {1: [(c, c + 1) for c in range(7)], 1000: [(0, 3), (3, 5), (5, 7)], 2**16: [(0, 7)]}
    for slots in every:
        monkeypatch.setattr(polymat, "GRAM_SPAN_SLOTS", slots)
        spans.clear()
        gram = m.gram()
        assert spans == every[slots]
        assert gram.dtype == np.int16 and gram[5, 0, 5] == 140
        assert np.array_equal(gram, want), slots


def test_gram_is_narrow_with_no_int64_array_of_every_cell():
    # every coefficient counts rows through a column, so the largest column
    # count (r = 25, 17 and 81 here) sizes the type; the pairs are counted
    # one column span at a time, so the peak is the int8 result and a
    # bounded span: 1.6 and 6.7 MiB measured, 4.6 and 31.9 MiB when every
    # row pair was listed and sorted at once
    assert example_9_3_3().gram().dtype == np.int8
    assert brouwer_polyphase(5).gram().dtype == np.int8
    for m in (affine_polyphase(16), brouwer_polyphase(9)):
        v, f = m.cols, m.group.order
        tracemalloc.start()
        try:
            gram = m.gram()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gram.shape == (v, f, v) and gram.dtype == np.int8
        assert gram.max() == np.bincount(m.jj).max()
        assert peak < 2 * v * f * v, (m, peak)


@pytest.mark.parametrize("factors", CODE_EDGE_FACTORS, ids=str)
def test_gram_matches_entrywise_ring_products_at_the_code_edge(factors):
    # the f^2-product reference matmul takes seconds at f = 1024, so the
    # Gram is checked entry by entry: sum over rows of ~Phi_ia Phi_ib
    group = AbelianGroup(factors)
    rng = np.random.default_rng(9)
    for rows, cols in ((3, 4), (1, 3), (3, 1)):
        m = _random_polyphase(group, rows, cols, rng)
        ring = to_group_ring(m)
        gram = m.gram()
        assert gram.dtype == np.int8 and gram.shape == (cols, group.order, cols)
        for a in range(cols):
            for b in range(cols):
                want = GroupRingElement(group, np.zeros(group.order))
                for i in range(rows):
                    want = want + ring.entry(i, a).involution() * ring.entry(i, b)
                assert np.array_equal(gram[a, :, b], want.coeffs), (rows, cols, a, b)


def test_require_float_exact_at_the_2_53_boundary():
    # the guard behind the reference ring's float64 products:
    # inner x max|a| x max|b| bounds every partial sum, and must stay below 2^53
    for inner, a_max, b_max in ((2**53, 1, 1), (2, 2**26, 2**26), (1, 2**27, 2**26)):
        with pytest.raises(ValueError, match="2\\^53"):
            require_float_exact(inner, a_max, b_max)
    for inner, a_max, b_max in ((2**53 - 1, 1, 1), (1, 2**26 + 1, 2**26 - 1), (2**60, 0, 1)):
        require_float_exact(inner, a_max, b_max)
    # one step below the bound the float product is still exact ...
    a = np.array([[2.0**26 + 1]])
    b = np.array([[2.0**26 - 1]])
    assert int((a @ b)[0, 0]) == 2**52 - 1
    # ... and at it a sum can round: 2^52 + (2^52 + 1) comes out even
    x = np.array([[2.0**52, 2.0**52 + 1]])
    assert int((x @ np.ones((2, 1)))[0, 0]) != 2**53 + 1
    with pytest.raises(ValueError, match="2\\^53"):
        require_float_exact(2, 2**52 + 1, 1)


def test_evaluate_at_trivial_is_incidence():
    group = AbelianGroup([3, 3])
    rng = np.random.default_rng(6)
    m = _random_polyphase(group, 6, 4, rng)
    triv = characters_of(group)[0]
    assert np.max(np.abs(m.evaluate(triv) - m.modulus_squared())) < 1e-12


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name())
def test_filter_bank_lift_blocks(group):
    rng = np.random.default_rng(7)
    f = group.order
    codes = dense_codes(_random_polyphase(group, 3, max(5, f + 1), rng)).copy()
    # the GQ lift needs a first row of weight f; the other rows keep random weights
    keep = np.isin(np.arange(codes.shape[1]), rng.permutation(codes.shape[1])[:f])
    codes[0] = np.where(keep, rng.integers(0, f, codes.shape[1]), f)
    m = from_codes(group, codes)
    assert np.count_nonzero(m.modulus_squared()[0]) == f
    lifted = gq_from_polyphase(m)[m.cols:]
    assert np.array_equal(lifted, _blockwise_lift(to_group_ring(m)))
    # nonzero blocks are permutation matrices
    for i, j in zip(m.ii, m.jj):
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
    a = GroupRingMatrix.from_scalar(group, np.eye(3, dtype=np.int64))
    b = GroupRingMatrix.from_scalar(group, np.eye(3, dtype=np.int64))
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


@pytest.mark.parametrize("dtype", [np.int8, np.int64, bool], ids=lambda d: np.dtype(d).name)
def test_incidence_text_matches_reference(dtype):
    rng = np.random.default_rng(12)
    for shape in ((1, 1), (3, 7), (40, 9)):
        x = (rng.random(shape) < 0.5).astype(dtype)
        text = format_incidence(x)
        assert text == _reference_format_incidence(x)
        back = parse_incidence(text)
        assert back.dtype == np.int64 and np.array_equal(back, _reference_parse_incidence(text))
    z = gq_from_polyphase(brouwer_polyphase(2))
    assert format_incidence(z) == _reference_format_incidence(z)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n \n",
        "0\n\n1\n",
        "10\n1\n",
        "12\n",
        "10\r\n01\r\n",
        " 01\n10\n",
        "01\n0x\n011\n",  # two bad rows: the first wins
        "011\n01\n0x1\n",
        "01\n10\n1\u00e9\n",
        "01\n\u06611\n",
    ],
)
def test_incidence_parse_matches_reference(text):
    got = _outcome(parse_incidence, text)
    want = _outcome(_reference_parse_incidence, text)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert np.array_equal(got, want)


def test_format_incidence_refuses_entries_other_than_0_and_1():
    for bad in ([[0, 2]], [[1, -1]], [[0.5, 1.0]]):
        with pytest.raises(ValueError, match="not 0 or 1"):
            format_incidence(np.array(bad))


def test_complex_csv_format():
    c = np.array([[1 + 0j, -0.5 + 0.25j]])
    text = format_complex_csv(c)
    assert text == "1+0i,-0.5+0.25i\n"


def test_exponent_range_validated():
    group = AbelianGroup([2])
    # -1 and f are no element index; 70000 and 65537 would wrap in an int16
    # cast (65537 to the valid 1)
    for e in (-1, 2, 70000, 65537):
        with pytest.raises(ValueError, match="^element index out of range 0..1$"):
            PolyphaseMatrix(group, (1, 3), [0], [0], [e])
    # floats, bools and arrays of any ndim but 1 are no cell lists
    for cells in (([0], [0], [0.0]), ([0.0], [0], [0]), ([0], [True], [0]),
                  ([[0]], [[0]], [[0]]), (0, 0, 0)):
        with pytest.raises(ValueError, match="^cells must be 1-d integer arrays of one length$"):
            PolyphaseMatrix(group, (1, 3), *cells)
    # empty lists hold no cell of any type: the zero matrix
    assert PolyphaseMatrix(group, (2, 3), [], [], []).modulus_squared().tolist() == [[0] * 3] * 2
    m = PolyphaseMatrix(group, (1, 3), [0, 0], [0, 1], [0, 1])
    assert m.e.dtype == np.int16 and m.ii.dtype == m.jj.dtype == np.intp
    assert m.modulus_squared().tolist() == [[1, 1, 0]]
    big = AbelianGroup([1024])
    assert PolyphaseMatrix(big, (1, 2), [0], [0], [1023]).modulus_squared().tolist() == [[1, 0]]
    with pytest.raises(ValueError, match="^element index out of range 0..1023$"):
        PolyphaseMatrix(big, (1, 2), [0], [0], [1024])


@pytest.mark.parametrize(
    "shape, ii, jj, message",
    [
        ((2, 3), [0, 0], [1, 0], "cells must be row-major and distinct"),  # unsorted in a row
        ((2, 3), [1, 0], [0, 1], "cells must be row-major and distinct"),  # unsorted rows
        ((2, 3), [0, 0], [1, 1], "cells must be row-major and distinct"),  # a repeated cell
        ((2, 3), [0, 2], [0, 0], "row index out of range 0..1"),
        ((2, 3), [-1, 0], [0, 0], "row index out of range 0..1"),
        ((2, 3), [0, 0], [0, 3], "column index out of range 0..2"),
        ((2, 3), [0, 0], [0], "cells must be 1-d integer arrays of one length"),
        ((2, 3, 1), [0, 0], [0, 1], "shape must be two sizes >= 0, got (2, 3, 1)"),
        ((2, -3), [0, 0], [0, 1], "shape must be two sizes >= 0, got (2, -3)"),
    ],
)
def test_cell_constructor_rejects_bad_cells(shape, ii, jj, message):
    with pytest.raises(ValueError) as exc:
        PolyphaseMatrix(AbelianGroup([3]), shape, ii, jj, [0, 1])
    assert str(exc.value) == message


def test_cell_constructor_memory_is_independent_of_shape():
    # one cell of a 10^9 x 10^9 matrix: nothing is sized by the shape
    tracemalloc.start()
    try:
        m = PolyphaseMatrix(AbelianGroup([3]), (10**9, 10**9), [10**9 - 1], [10**9 - 1], [2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.shape == (10**9, 10**9) and m.e.tolist() == [2]
    assert peak < 2**20


def test_dense_codes_are_read_only():
    m = example_9_3_3()
    codes = dense_codes(m)
    with pytest.raises(ValueError, match="read-only"):
        codes[0, 0] = 1
    assert from_codes(m.group, codes) == m
