import itertools
import random
import tracemalloc

import numpy as np
import pytest

from etfforge import construct
from etfforge.construct import (
    BibdParams,
    DracknParams,
    GqParams,
    affine_polyphase,
    brouwer_geometry,
    brouwer_polyphase,
    example_9_3_3,
    gq_from_polyphase,
    phased_to_polyphase,
    polyphase_from_gq,
    simplex_phased,
    _HermitianForm,
    _isotropic_points,
    _threading_vectors,
)
from etfforge.gf import field_create, prime_power_split
from etfforge.groupring import AbelianGroup, characters_of
from etfforge.polymat import PolyphaseMatrix
from etfforge.verify import Design
from reference_ring import GroupRingMatrix, adjoint


def _bibd_shape(m):
    x = m.modulus_squared()
    return m.cols, int(x.sum(axis=1)[0]), int(x.sum(axis=0)[0])


def test_bibd_params():
    p = BibdParams.from_vk(9, 3)
    assert (p.r, p.b, p.u) == (4, 12, 1)
    assert p.etf_dimension == 6
    p = BibdParams.from_vk(28, 4)
    assert (p.r, p.b, p.u) == (9, 63, 2)
    assert p.etf_dimension == 21
    assert BibdParams.from_vk(7, 3).u is None  # 12/10 is not an integer
    with pytest.raises(ValueError):
        BibdParams.from_vk(4, 1)
    with pytest.raises(ValueError):
        BibdParams.from_vk(3, 3)
    with pytest.raises(ValueError):
        BibdParams.from_vk(8, 3)


def test_gq_drackn_params():
    g = GqParams(2, 4)
    assert (g.n_vertices, g.n_blocks) == (27, 45)
    d = DracknParams(28, 4, 8)
    assert d.delta == -6


def test_simplex_shape_and_entries():
    m = simplex_phased(4)
    assert (m.rows, m.cols) == (6, 4)
    assert m.entry(0, 0) == (0,)
    assert m.entry(0, 1) == (1,)
    assert m.entry(5, 2) == (0,)
    assert m.entry(5, 3) == (1,)
    assert m.entry(0, 2) is None
    with pytest.raises(ValueError):
        simplex_phased(2)


@pytest.mark.parametrize("v", [3, 4, 5, 8])
def test_simplex_gram_at_sign_character(v):
    m = simplex_phased(v)
    gamma = characters_of(m.group)[1]
    phi = m.evaluate(gamma)
    gram = phi.conj().T @ phi
    expected = v * np.eye(v) - np.ones((v, v))
    assert np.max(np.abs(gram - expected)) < 1e-9
    assert np.linalg.matrix_rank(phi) == v - 1


# Gram of the 12x9 example, entered from its printed form: diagonal 4,
# off-diagonal one power of z each (0 means z^0 = 1).
_EXAMPLE_GRAM_EXPONENTS = [
    [None, 0, 0, 0, 1, 2, 0, 2, 1],
    [0, None, 0, 1, 2, 0, 2, 1, 0],
    [0, 0, None, 2, 0, 1, 1, 0, 2],
    [0, 2, 1, None, 0, 0, 0, 1, 2],
    [2, 1, 0, 0, None, 0, 1, 2, 0],
    [1, 0, 2, 0, 0, None, 2, 0, 1],
    [0, 1, 2, 0, 2, 1, None, 0, 0],
    [1, 2, 0, 2, 1, 0, 0, None, 0],
    [2, 0, 1, 1, 0, 2, 0, 0, None],
]


def test_example_9_3_3_matches_printed_gram():
    m = example_9_3_3()
    assert (m.rows, m.cols) == (12, 9)
    gram = adjoint(m) @ m
    expected = np.zeros((9, 9, 3), dtype=np.int64)
    for i in range(9):
        expected[i, i, 0] = 4
        for j in range(9):
            if i != j:
                expected[i, j, _EXAMPLE_GRAM_EXPONENTS[i][j]] = 1
    assert gram == GroupRingMatrix(m.group, expected)
    assert np.array_equal(m.gram(), expected)


def test_example_9_3_3_is_affine_plane():
    x = example_9_3_3().modulus_squared()
    assert np.array_equal(x.T @ x, 3 * np.eye(9, dtype=np.int64) + np.ones((9, 9), dtype=np.int64))
    assert set(x.sum(axis=1)) == {3}
    assert set(x.sum(axis=0)) == {4}


# hand-derived: over GF(2) the finite-slope fibers are x - y = ij with
# phase j(x+y), and the infinity fiber marks x = j
_AFFINE_2_ROWS = [
    "0 . 0 .",
    ". 0 . 0",
    "0 . . 1",
    ". 0 1 .",
    "0 0 . .",
    ". . 0 0",
]


def test_affine_q2_frozen():
    m = affine_polyphase(2)
    assert m.group == AbelianGroup([2])
    got = []
    for i in range(m.rows):
        cells = []
        for j in range(m.cols):
            e = m.entry(i, j)
            cells.append("." if e is None else str(e[0]))
        got.append(" ".join(cells))
    assert got == _AFFINE_2_ROWS


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_affine_is_bibd(q):
    m = affine_polyphase(q)
    assert (m.rows, m.cols) == ((q + 1) * q, q * q)
    v, k, r = _bibd_shape(m)
    assert (v, k, r) == (q * q, q, q + 1)
    x = m.modulus_squared()
    assert np.array_equal(
        x.T @ x, q * np.eye(v, dtype=np.int64) + np.ones((v, v), dtype=np.int64)
    )
    p, _ = prime_power_split(q)
    assert m.group.factors == tuple([p] * m.group.factors.__len__())


@pytest.mark.parametrize("q", [2, 3, 4])
def test_affine_gram_closed_form(q):
    """Gram = q I + the rank-one-phase matrix z^(-(j - j')(y + y'))."""
    m = affine_polyphase(q)
    p, mm = prime_power_split(q)
    fld = field_create(p, mm)
    add, mul, neg = fld.add, fld.mul, fld.neg
    els = [0] + fld.exp.tolist()
    group = m.group
    gram = adjoint(m) @ m
    expected = np.zeros((q * q, q * q, group.order), dtype=np.int64)
    for (j1, y1), (j2, y2) in itertools.product(itertools.product(range(q), range(q)), repeat=2):
        c1, c2 = j1 * q + y1, j2 * q + y2
        phase = neg[mul[add[els[j1], neg[els[j2]]], add[els[y1], els[y2]]]]
        coeffs = [int(phase) // p**i % p for i in range(mm)]  # constant term first
        expected[c1, c2, group.index(coeffs)] += 1
        if c1 == c2:
            expected[c1, c2, 0] += q
    assert gram == GroupRingMatrix(group, expected)
    assert np.array_equal(m.gram(), expected)


def test_affine_rejects_non_prime_power():
    with pytest.raises(ValueError):
        affine_polyphase(6)


@pytest.mark.parametrize("q", [2, 3])
def test_brouwer_geometry_counts(q):
    geom = brouwer_geometry(q)
    q2, q3 = q * q, q**3
    assert len(geom.vertices) == (q2 + 1) * (q3 + 1)
    assert len(set(geom.vertices)) == len(geom.vertices)
    assert len(geom.ovoid) == q3 + 1
    assert all(v[0] == 0 for v in geom.ovoid)
    assert len(geom.orbit_reps) == q2 * (q2 - q + 1)
    assert len(geom.blocks) == (q + 1) * (q3 + 1)
    assert len({b.members for b in geom.blocks}) == len(geom.blocks)
    for b in geom.blocks:
        assert len(b.members) == q2 + 1
        assert sum(1 for m in b.members if m[0] == 0) == 1  # ovoid is an ovoid
        assert b.ovoid_vertex in b.members
    preferred = [
        r for r in geom.orbit_reps if r[1] == 0 or (r[2] == 0 and r[3] == 0)
    ]
    assert len(preferred) == q2 - q + 1


@pytest.mark.parametrize("q", [2, 3])
def test_brouwer_geometry_is_partial_linear(q):
    geom = brouwer_geometry(q)
    # every vertex on exactly q+1 blocks, every pair on at most one
    counts = {v: 0 for v in geom.vertices}
    for b in geom.blocks:
        for m in b.members:
            counts[m] += 1
    assert set(counts.values()) == {q + 1}
    pair_seen = set()
    for b in geom.blocks:
        for x, y in itertools.combinations(b.members, 2):
            assert (x, y) not in pair_seen
            pair_seen.add((x, y))


def test_brouwer_geometry_guard():
    with pytest.raises(ValueError):
        brouwer_geometry(8)
    with pytest.raises(ValueError):
        brouwer_polyphase(9)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_brouwer_polyphase_is_bibd(q):
    m = brouwer_polyphase(q)
    v_expect = q**3 + 1
    assert (m.rows, m.cols) == (q * q * (q * q - q + 1), v_expect)
    assert m.group == AbelianGroup([q + 1])
    v, k, r = _bibd_shape(m)
    assert (v, k, r) == (v_expect, q + 1, q * q)
    x = m.modulus_squared()
    assert np.array_equal(
        x.T @ x,
        (r - 1) * np.eye(v, dtype=np.int64) + np.ones((v, v), dtype=np.int64),
    )


def test_design_drackn_params():
    _, d = Design(example_9_3_3()).drackn
    assert (d.n, d.f, d.c, d.delta) == (9, 3, 3, -2)
    _, d = Design(brouwer_polyphase(3)).drackn
    assert (d.n, d.f, d.c, d.delta) == (28, 4, 8, -6)


@pytest.mark.parametrize(
    "make,st",
    [
        (example_9_3_3, (2, 4)),
        (lambda: affine_polyphase(3), (2, 4)),
        (lambda: brouwer_polyphase(2), (2, 4)),
        (lambda: simplex_phased(4), (1, 3)),
    ],
)
def test_gq_lift_shape(make, st):
    m = make()
    z = gq_from_polyphase(m)
    s, t = st
    assert z.shape == ((t + 1) * (s * t + 1), (s + 1) * (s * t + 1))
    assert set(z.sum(axis=1)) == {s + 1}
    assert set(z.sum(axis=0)) == {t + 1}
    # spread: first v rows partition the vertex fibers
    v = m.cols
    assert np.array_equal(
        z[:v], np.kron(np.eye(v, dtype=np.int64), np.ones((1, m.group.order), dtype=np.int64))
    )


def test_gq_roundtrip():
    for make in (example_9_3_3, lambda: affine_polyphase(4), lambda: brouwer_polyphase(2), lambda: simplex_phased(5)):
        m = make()
        assert polyphase_from_gq(gq_from_polyphase(m), m.group) == m


def test_gq_requires_group_order_k():
    m = example_9_3_3()
    bad = PolyphaseMatrix(AbelianGroup([4]), m.support, m.exponents)
    with pytest.raises(ValueError):
        gq_from_polyphase(bad)


def test_gq_lift_refuses_oversized_incidence_before_allocating():
    # one full row over Z1024: the lift would be 2048 x 2^20 cells
    group = AbelianGroup([1024])
    m = PolyphaseMatrix(group, np.ones((1, 1024), dtype=bool), np.zeros((1, 1024), dtype=np.intp))
    for lift in (lambda: gq_from_polyphase(m), lambda: Design(m).gq):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="the cap is"):
                lift()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_polyphase_from_gq_errors():
    m = example_9_3_3()
    z = gq_from_polyphase(m)
    corrupt = z.copy()
    corrupt[9 + 2, 5] ^= 1  # poke inside the first lifted block row
    with pytest.raises(ValueError, match="neither zero nor a translation permutation"):
        polyphase_from_gq(corrupt, m.group)
    nospread = z.copy()
    nospread[0, 0] = 0
    with pytest.raises(ValueError, match="spread"):
        polyphase_from_gq(nospread, m.group)
    with pytest.raises(ValueError, match="divisible"):
        polyphase_from_gq(z[:, :26], m.group)


def test_phased_to_polyphase_roundtrips():
    m = simplex_phased(5)
    gamma = characters_of(m.group)[1]
    assert phased_to_polyphase(m.evaluate(gamma), 2) == m
    m = example_9_3_3()
    gamma = characters_of(m.group)[1]  # z -> exp(2 pi i / 3)
    assert phased_to_polyphase(m.evaluate(gamma), 3) == m


def test_phased_to_polyphase_rejects_foreign_phase():
    phi = np.array([[1.0, np.exp(1j * np.pi / 4)]])
    with pytest.raises(ValueError, match="root of unity"):
        phased_to_polyphase(phi, 3)
    with pytest.raises(ValueError):
        phased_to_polyphase(phi, 1)


def test_phased_to_polyphase_mercedes_benz():
    phi = np.array([[1, -1, 0], [1, 0, -1], [0, 1, -1]], dtype=float)
    m = phased_to_polyphase(phi, 2)
    assert m.entry(0, 0) == (0,)
    assert m.entry(0, 1) == (1,)
    assert m.entry(0, 2) is None
    gram = phi.T @ phi
    assert np.array_equal(gram, 3 * np.eye(3) - np.ones((3, 3)))


# Per-cell loop versions of the converters and the geometry route to the
# brouwer matrix: references for the array programs in construct.py.


def _ref_simplex_phased(v):
    pairs = list(itertools.combinations(range(v), 2))
    support = np.zeros((len(pairs), v), dtype=bool)
    exps = np.zeros((len(pairs), v), dtype=np.intp)
    for i, (a, b) in enumerate(pairs):
        support[i, a] = True
        support[i, b] = True
        exps[i, b] = 1
    return PolyphaseMatrix(AbelianGroup([2]), support, exps)


def _ref_dot(t, x, y):
    """The Hermitian form by 2-d table lookups, one coordinate at a time."""
    add, mul = t.field.add, t.field.mul
    acc = mul[t.frob[x[..., 0]], y[..., 0]]
    for l in range(1, 4):
        acc = add[acc, mul[t.frob[x[..., l]], y[..., l]]]
    return acc


def _ref_threading_vector(t, y):
    """Lexicographically least z = (1, z2, z3, z4) with z.z = 0 and y.z = 0,
    by a scan of all n^2 choices of the two free coordinates."""
    add, mul, neg, norm = t.field.add, t.field.mul, t.field.neg, t.norm
    n = t.field.order
    coeff = t.frob[y[1:]]
    pivot = int(np.nonzero(coeff)[0][-1])
    free = [i for i in range(3) if i != pivot]
    z = np.empty((3, n * n), dtype=np.int64)
    z[free] = np.indices((n, n)).reshape(2, -1)
    rhs = add[mul[coeff[free[0]], z[free[0]]], mul[coeff[free[1]], z[free[1]]]]
    z[pivot] = mul[t.field.inv[coeff[pivot]], neg[rhs]]
    iso = add[add[add[1, norm[z[0]]], norm[z[1]]], norm[z[2]]] == 0
    if not iso.any():
        raise AssertionError("no threading vector; y is not an isotropic point")
    key = np.where(iso, (z[0] * n + z[1]) * n + z[2], n**3)
    return (1,) + tuple(z[:, np.argmin(key)].tolist())


def _ref_brouwer_polyphase(q):
    geom = brouwer_geometry(q)
    t = _HermitianForm(q)
    cols = sorted(geom.ovoid)
    rows = np.array(geom.orbit_reps)
    threading = np.array([_ref_threading_vector(t, np.array(y)) for y in cols])
    support = _ref_dot(t, rows[:, None, :], np.array(cols)) == 0
    r, c = np.nonzero(support)
    g = t.beta_dlog[t.field.add[1, t.field.neg[_ref_dot(t, rows[r], threading[c])]]]
    assert np.all(g >= 0)
    exps = np.zeros(support.shape, dtype=np.intp)
    exps[r, c] = g
    return PolyphaseMatrix(AbelianGroup([q + 1]), support, exps)


def _ref_polyphase_from_gq(z, group):
    z = np.asarray(z)
    f = group.order
    n_rows, n_cols = z.shape
    if n_cols % f:
        raise ValueError(f"column count {n_cols} not divisible by group order {f}")
    v = n_cols // f
    if n_rows < v or (n_rows - v) % f:
        raise ValueError("row count does not fit a spread plus lifted blocks")
    b = (n_rows - v) // f
    spread = np.kron(np.eye(v, dtype=np.int64), np.ones((1, f), dtype=np.int64))
    if not np.array_equal(z[:v], spread):
        raise ValueError("leading rows are not the expected spread")
    perms = {}
    for gi in range(f):
        blk = np.zeros((f, f), dtype=np.int64)
        blk[group.add_index[gi, np.arange(f)], np.arange(f)] = 1
        perms[gi] = blk
    support = np.zeros((b, v), dtype=bool)
    exps = np.zeros((b, v), dtype=np.intp)
    body = z[v:]
    for i in range(b):
        for j in range(v):
            blk = body[i * f : (i + 1) * f, j * f : (j + 1) * f]
            if not blk.any():
                continue
            col0 = np.nonzero(blk[:, 0])[0]
            gi = int(group.add_index[col0[0], 0]) if len(col0) == 1 else -1
            if gi < 0 or not np.array_equal(blk, perms[gi]):
                raise ValueError(
                    f"block ({i}, {j}) is neither zero nor a translation permutation"
                )
            support[i, j] = True
            exps[i, j] = gi
    return PolyphaseMatrix(group, support, exps)


def _ref_phased_to_polyphase(phi, p, tol=1e-9):
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    phi = np.asarray(phi, dtype=np.complex128)
    support = np.zeros(phi.shape, dtype=bool)
    exps = np.zeros(phi.shape, dtype=np.intp)
    for i in range(phi.shape[0]):
        for j in range(phi.shape[1]):
            val = phi[i, j]
            if abs(val) <= tol:
                continue
            ell = int(np.round(np.angle(val) * p / (2 * np.pi))) % p
            root = np.exp(2j * np.pi * ell / p)
            if abs(val - root) > tol:
                raise ValueError(
                    f"entry ({i}, {j}) = {val} is not a {p}-th root of unity within {tol}"
                )
            support[i, j] = True
            exps[i, j] = ell
    return PolyphaseMatrix(AbelianGroup([p]), support, exps)


def _outcome(fn, *args):
    """The result of a call, or the text of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# every design pinned in tests/test_golden.py; all have k = f
_GOLDEN = (
    [(simplex_phased, v) for v in range(3, 8)]
    + [(example_9_3_3,)]
    + [(affine_polyphase, q) for q in (2, 3, 4, 5, 7, 8, 9)]
    + [(brouwer_polyphase, q) for q in (2, 3, 4, 5, 7)]
)


@pytest.mark.parametrize("v", range(3, 9))
def test_simplex_matches_pair_loop(v):
    assert simplex_phased(v) == _ref_simplex_phased(v)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_brouwer_polyphase_matches_geometry_route(q):
    assert brouwer_polyphase(q) == _ref_brouwer_polyphase(q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_threading_vectors_match_per_point_search(q):
    t = _HermitianForm(q)
    _, ovoid = _isotropic_points(t)
    got = _threading_vectors(t, ovoid)
    assert got.dtype == np.int16
    assert [tuple(z) for z in got.tolist()] == [_ref_threading_vector(t, y) for y in ovoid]
    # z2 = 0 fails exactly on the q+1 points (0, 0, 1, c) with N(c) = -1
    late = got[:, 1] > 0
    assert late.sum() == q + 1
    assert np.array_equal(late, (ovoid[:, 1] == 0) & (t.norm[ovoid[:, 3]] == t.field.neg[1]))


@pytest.mark.parametrize("cells", [1, 3 * 344 + 17])
def test_brouwer_support_spans_match_whole_matrix(monkeypatch, cells):
    # one row per span, then an uneven split of brouwer q=7's 344 columns
    want = brouwer_polyphase(7)
    monkeypatch.setattr(construct, "WRITE_SPAN_CELLS", cells)
    assert brouwer_polyphase(7) == want
    assert brouwer_polyphase(3) == _ref_brouwer_polyphase(3)


def test_brouwer_polyphase_memory_is_bounded():
    brouwer_polyphase(7)  # field tables are cached from here on
    tracemalloc.start()
    try:
        brouwer_polyphase(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the b x v intp exponents take 5.8 MB of it
    assert peak <= 8 * 2**20


def test_brouwer_polyphase_builds_no_geometry(monkeypatch):
    def refuse(q):
        raise AssertionError("brouwer_geometry called")

    monkeypatch.setattr(construct, "brouwer_geometry", refuse)
    m = brouwer_polyphase(3)
    assert (m.rows, m.cols) == (63, 28)


@pytest.mark.parametrize(
    "member", _GOLDEN, ids=lambda g: "-".join([g[0].__name__, *map(str, g[1:])])
)
def test_polyphase_from_gq_matches_block_loop(member):
    make, *arg = member
    m = make(*arg)
    z = gq_from_polyphase(m)
    got = polyphase_from_gq(z, m.group)
    assert got == m
    if z.size < 10**6:  # the loop takes ~2 s on the brouwer q=7 lift
        assert _ref_polyphase_from_gq(z, m.group) == got


def test_polyphase_from_gq_matches_block_loop_on_flips():
    rng = random.Random(20240808)
    lifts = [
        (gq_from_polyphase(m), m.group)
        for m in (example_9_3_3(), affine_polyphase(3), affine_polyphase(4),
                  brouwer_polyphase(2), simplex_phased(4))
    ]
    outcomes = set()
    for trial in range(300):
        z, group = lifts[trial % len(lifts)]
        z = z.copy()
        f = group.order
        v = z.shape[1] // f
        if trial >= 240:
            # rewrite one lifted block as zero, a translation, or its transpose
            i, j = rng.randrange((z.shape[0] - v) // f), rng.randrange(v)
            blk = z[v + i * f : v + (i + 1) * f, j * f : (j + 1) * f]
            g = rng.randrange(f)
            new = [np.zeros_like(blk), (group.add_index[g] == np.arange(f)[:, None]), blk.T]
            blk[...] = rng.choice(new)
        for _ in range(rng.choice((1, 2)) if trial < 240 else 0):
            # one flip in four lands in the spread rows
            i = rng.randrange(v) if rng.random() < 0.25 else rng.randrange(z.shape[0])
            z[i, rng.randrange(z.shape[1])] ^= 1
        want = _outcome(_ref_polyphase_from_gq, z, group)
        got = _outcome(polyphase_from_gq, z, group)
        assert got == want, (trial, want)
        outcomes.add(want.split("(")[0] if isinstance(want, str) else "matrix")
    assert outcomes == {"matrix", "ValueError: block ",
                        "ValueError: leading rows are not the expected spread"}


def _cyclic_evaluations():
    """Each design over a cyclic group evaluated at every nontrivial character."""
    designs = [simplex_phased(5), example_9_3_3(), affine_polyphase(5), brouwer_polyphase(2),
               brouwer_polyphase(3)]
    for m in designs:
        for gamma in characters_of(m.group)[1:]:
            yield m.evaluate(gamma), m.group.order


def test_phased_to_polyphase_matches_cell_loop_on_evaluations():
    for phi, p in _cyclic_evaluations():
        got = phased_to_polyphase(phi, p)
        assert got == _ref_phased_to_polyphase(phi, p)


def test_phased_to_polyphase_matches_cell_loop_off_root_and_near_tol():
    rng = random.Random(7)
    tol = 1e-9
    cases = list(_cyclic_evaluations())
    for trial in range(200):
        phi, p = cases[trial % len(cases)]
        phi = phi.copy()
        for _ in range(rng.choice((1, 2, 3))):
            i, j = rng.randrange(phi.shape[0]), rng.randrange(phi.shape[1])
            kind = rng.randrange(3)
            if kind == 0:  # rotate off the root by about tol
                phi[i, j] *= np.exp(1j * tol * rng.choice((0.5, 0.99, 1.01, 2.0, 1e6)))
            elif kind == 1:  # a modulus near tol, any phase
                phi[i, j] = tol * rng.choice((0.5, 0.999, 1.0, 1.001, 2.0)) * np.exp(
                    2j * np.pi * rng.random())
            else:  # scale the modulus near 1
                phi[i, j] *= 1 + tol * rng.choice((-2.0, -0.5, 0.5, 2.0))
        want = _outcome(_ref_phased_to_polyphase, phi, p)
        assert _outcome(phased_to_polyphase, phi, p) == want, (trial, want)
