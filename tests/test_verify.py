import math
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
from etfforge import verify as verify_module
from etfforge.groupring import AbelianGroup, characters_of, real_character
from etfforge.polymat import PolyphaseMatrix
from etfforge.verify import (
    Design,
    ScreenRow,
    screen_parameters,
    verify_bibd,
    verify_drackn,
    verify_etf_numeric,
    verify_gq_axioms,
    verify_polyphase_algebraic,
    verify_polyphase_combinatorial,
    verify_srg_collinearity,
)
from reference_geometry import brouwer_geometry
from reference_ring import GroupRingMatrix, adjoint, entry, replaced, to_group_ring

FANO = np.array(
    [
        [1, 1, 0, 1, 0, 0, 0],
        [0, 1, 1, 0, 1, 0, 0],
        [0, 0, 1, 1, 0, 1, 0],
        [0, 0, 0, 1, 1, 0, 1],
        [1, 0, 0, 0, 1, 1, 0],
        [0, 1, 0, 0, 0, 1, 1],
        [1, 0, 1, 0, 0, 0, 1],
    ],
    dtype=np.int64,
)


@pytest.fixture(scope="module")
def families():
    return {
        "example933": example_9_3_3(),
        "affine2": affine_polyphase(2),
        "affine3": affine_polyphase(3),
        "affine4": affine_polyphase(4),
        "brouwer2": brouwer_polyphase(2),
        "brouwer3": brouwer_polyphase(3),
        "simplex5": simplex_phased(5),
    }


def _design_order(m):
    x = m.modulus_squared()
    k = int(x.sum(axis=1)[0])
    return k - 1, (m.cols - 1) // (k - 1)


def test_bibd_passes_on_fano():
    rep = verify_bibd(FANO, 7, 3)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "pair-balance" in names and "fisher" in names


def test_bibd_rejects_bad_k():
    for x, v, k, info in ((np.eye(4, dtype=np.int64), 4, 1, "block size k = 1 must be >= 2"),
                          (FANO, 3, 3, "need v > k, got v = 3, k = 3")):
        rep = verify_bibd(x, v, k)
        assert not rep.passed
        assert [(c.name, c.passed, c.witness, c.info) for c in rep.checks] == [
            ("parameters", False, (), info)
        ]


def test_bibd_replication_must_be_integral():
    rep = verify_bibd(np.ones((8, 8), dtype=np.int64), 8, 3)
    assert not rep.passed
    assert any(c.name == "replication-integral" and not c.passed for c in rep.checks)


def test_bibd_flags_corruption_with_witness():
    x = FANO.copy()
    x[2, 0] = 1
    rep = verify_bibd(x, 7, 3)
    assert not rep.passed
    bad = {c.name: c for c in rep.checks if not c.passed}
    assert "row-sums" in bad and bad["row-sums"].witness == (2,)
    assert "col-sums" in bad and bad["col-sums"].witness == (0,)
    # each names its count against k, r and, for a pair, r on the
    # diagonal and 1 off it; a passing line names nothing
    lines = (bad["row-sums"], bad["col-sums"], bad["pair-balance"])
    assert [(c.witness, c.info) for c in lines] == [
        ((2,), "got 4, want 3"), ((0,), "got 4, want 3"), ((0, 0), "got 4, want 3")]
    clean = verify_bibd(FANO, 7, 3).checks
    assert all(c.info == "" for c in clean if c.name != "replication-integral")


def test_bibd_fisher_violation():
    # four rows of the Fano plane: pair balance breaks and so does b >= v
    rep = verify_bibd(FANO[:4], 7, 3)
    assert not rep.passed
    fisher = next(c for c in rep.checks if c.name == "fisher")
    assert not fisher.passed and fisher.witness == (4, 7)


def test_bibd_pair_balance_matches_dense_gram():
    # the counted Z^T Z against the dense one, r on the diagonal and 1
    # off it; the witness is the row-major first offence, also with no rows
    rng = np.random.default_rng(21)
    cases = [(FANO, 7, 3), (np.zeros((0, 5), dtype=np.int64), 5, 2)]
    for _ in range(30):
        b, v = int(rng.integers(1, 12)), int(rng.integers(3, 12))
        cases.append(((rng.random((b, v)) < 0.4).astype(np.int64), v, int(rng.integers(2, v))))
    # designs with a one moved from column a to b in one row and back in
    # another: row and column sums hold, so the first offence is off the diagonal
    designs = (FANO, affine_polyphase(3).modulus_squared(), brouwer_polyphase(2).modulus_squared())
    for design in designs:
        v, k = design.shape[1], int(design[0].sum())
        cases.append((design, v, k))
        for _ in range(10):
            x = design.copy()
            i = int(rng.integers(len(x)))
            a, b = rng.choice(np.flatnonzero(x[i])), rng.choice(np.flatnonzero(x[i] == 0))
            back = np.flatnonzero((x[:, b] == 1) & (x[:, a] == 0))
            j = int(rng.choice(back))
            x[i, [a, b]] = x[j, [b, a]] = 0, 1
            cases.append((x, v, k))
    fails = 0
    for x, v, k in cases:
        rep = verify_bibd(x, v, k)
        got = next((c for c in rep.checks if c.name == "pair-balance"), None)
        if got is None:  # r not integral
            continue
        r = (v - 1) // (k - 1)
        target = (r - 1) * np.eye(v, dtype=np.int64) + 1
        bad = x.T @ x != target
        want = tuple(int(i) for i in np.argwhere(bad)[0]) if bad.any() else None
        assert (got.passed, got.witness) == (want is None, want), (x, v, k)
        info = want and f"got {(x.T @ x)[want]}, want {target[want]}"
        assert got.info == (info or ""), (x, v, k)
        fails += want is not None and want[0] != want[1]
    assert fails >= 10  # off-diagonal first offences are covered


def test_bibd_memory_is_bounded_by_the_pair_counts():
    # one block of two points among 2000: the v x v int64 pair counts are
    # the only array of v^2 cells, and the witness search adds no index arrays
    v = 2000
    x = np.zeros((1, v), dtype=np.int64)
    x[0, :2] = 1
    tracemalloc.start()
    try:
        rep = verify_bibd(x, v, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.name for c in rep.checks if not c.passed] == ["col-sums", "pair-balance", "fisher"]
    assert rep.checks[-2].witness == (0, 0)
    assert peak < 1.5 * 8 * v * v


def test_bibd_rejects_non_binary_entries():
    x = FANO.copy()
    x[0, 0] = 2
    rep = verify_bibd(x, 7, 3)
    assert any(c.name == "zero-one" and not c.passed for c in rep.checks)


def test_polyphase_verifiers_pass_on_all_families(families):
    for name, m in families.items():
        assert verify_polyphase_combinatorial(Design(m)).passed, name
        assert verify_polyphase_algebraic(Design(m)).passed, name
        # int16 codes widen before the checks offset them by f times an index
        assert verify_module._blocks(Design(m))[1].dtype == np.intp, name


def test_polyphase_verifiers_catch_exponent_mutation(families):
    m = replaced(families["example933"], 3, 0, (1,))
    comb = verify_polyphase_combinatorial(Design(m))
    alg = verify_polyphase_algebraic(Design(m))
    assert not comb.passed and not alg.passed
    comb_bad = next(c for c in comb.checks if not c.passed)
    alg_bad = next(c for c in alg.checks if not c.passed)
    assert comb_bad.witness is not None
    assert alg_bad.witness is not None


def test_polyphase_verifiers_catch_support_mutation(families):
    # moving support breaks the underlying design before any phases matter
    m = families["example933"]
    moved = Design(replaced(replaced(m, 3, 0, None), 3, 1, (0,)))
    for rep in (verify_polyphase_combinatorial(moved), verify_polyphase_algebraic(moved)):
        assert not rep.passed
        assert any(c.name.startswith("bibd:") and not c.passed for c in rep.checks)


def _algebraic_fixtures(families):
    return [families[n] for n in ("example933", "simplex5", "affine2", "affine3",
                                  "affine4", "brouwer2", "brouwer3")] + [affine_polyphase(5)]


def _change_exponent(m, seed):
    """Move one supported entry to a different group element."""
    rng = np.random.default_rng(seed)
    ii, jj = np.nonzero(m.codes != m.group.order)
    p = int(rng.integers(len(ii)))
    i, j = int(ii[p]), int(jj[p])
    shift = int(rng.integers(1, m.group.order))
    e = m.group.add_index[m.codes[i, j], shift]
    return replaced(m, i, j, m.group.element(int(e)))


def _reference_triple_identity(m):
    """The triple-identity check recomputed from the dense product."""
    x = m.modulus_squared()
    k = int(x.sum(axis=1)[0])
    r = (m.cols - 1) // (k - 1)
    grm = to_group_ring(m)
    lhs = grm @ (adjoint(m) @ grm)
    rhs = (r + k - 1) * grm + GroupRingMatrix.all_geometric(
        m.group, (k // m.group.order) * (1 - x)
    )
    diff = lhs.first_difference(rhs)
    info = f"a={r + k - 1}"
    if diff is not None:
        got, want = lhs.coeffs[diff], rhs.coeffs[diff]
        h = int(np.flatnonzero(got != want)[0])
        info += f", element {m.group.elements[h]} got {got[h]}, want {want[h]}"
    return "triple-identity", diff is None, diff, info


def test_algebraic_matches_dense_triple_product(families):
    witnesses = set()
    for m in _algebraic_fixtures(families):
        cases = [m] + [_change_exponent(m, seed) for seed in range(12)]
        for case in cases:
            rep = verify_polyphase_algebraic(Design(case))
            *frame, last = [(c.name, c.passed, c.witness, c.info) for c in rep.checks]
            assert all(passed for _, passed, _, _ in frame), rep.as_text()
            assert last == _reference_triple_identity(case), rep.subject
            witnesses.add(last[2])
    # the mutants fail at many different rows and columns
    assert len(witnesses) > 20


def _reference_triple_products(m):
    """The triple-products check recomputed one zero cell at a time, in
    row-major order, with tuple arithmetic on the group elements."""
    x, g = m.modulus_squared(), m.group
    quota = int(x[0].sum()) // g.order

    def elem(i, j):
        return np.array(g.elements[m.codes[i, j]])

    for i, j in zip(*np.nonzero(x == 0)):
        counts = {e: 0 for e in g.elements}
        for jp in np.nonzero(x[i])[0]:
            (ip,) = np.nonzero(x[:, jp] & x[:, j])[0]
            product = (elem(i, jp) - elem(ip, jp) + elem(ip, j)) % np.array(g.factors)
            counts[tuple(int(c) for c in product)] += 1
        for e, c in counts.items():
            if c != quota:
                info = f"quota={quota}, element {e} counted {c}"
                return "triple-products", False, (int(i), int(j)), info
    return "triple-products", True, None, f"quota={quota}"


def test_combinatorial_matches_zero_cell_loop(families):
    witnesses = set()
    for m in _algebraic_fixtures(families):
        for case in [m] + [_change_exponent(m, seed) for seed in range(12)]:
            rep = verify_polyphase_combinatorial(Design(case))
            *frame, last = [(c.name, c.passed, c.witness, c.info) for c in rep.checks]
            assert all(passed for _, passed, _, _ in frame), rep.as_text()
            assert last == _reference_triple_products(case), rep.subject
            witnesses.add(last[2])
    assert len(witnesses) > 20


def _late_offence(m):
    """A mutant whose offending rows all come last.  Moving one exponent of
    row 0 offends exactly the rows that meet row 0 (no single changed row
    can offend alone: every row through a changed cell sees it), so those
    rows go to the end, with row 0 itself last."""
    x = m.modulus_squared()
    meets = x @ x[0] > 0
    meets[0] = False
    order = np.concatenate([np.flatnonzero(~meets)[1:], np.flatnonzero(meets), [0]])
    j = int(np.flatnonzero(x[0])[0])
    shifted = m.group.add_index[m.codes[0, j], 1]
    bad = replaced(m, 0, j, m.group.element(int(shifted)))
    return PolyphaseMatrix(m.group, bad.codes[order]), int(meets.sum())


def test_exact_checks_match_references_across_span_boundaries(families, monkeypatch):
    # one row per span, then spans of s rows with s not dividing the row
    # count (combinatorial spans SPAN_CELLS // 64 of its per-row cost,
    # algebraic SPAN_CELLS // 8 of its gathered cells per row), so the
    # last span is short; the late mutant crosses every clean
    # span before its first offence, pinning the early stop and the
    # row-major first witness
    for m in _algebraic_fixtures(families):
        x = m.modulus_squared()
        rows, v, k, f = m.rows, m.cols, int(x[0].sum()), m.group.order
        s = next(s for s in range(2, rows) if rows % s)
        late, met = _late_offence(m)
        cases = [m, late] + [_change_exponent(m, seed) for seed in range(12)]
        for n, case in enumerate(cases):
            checks = ((verify_polyphase_combinatorial, _reference_triple_products(case), 64 * k * (v - k)),
                      (verify_polyphase_algebraic, _reference_triple_identity(case), 8 * v * k * f))
            for check, want, cost in checks:
                if n == 1:
                    assert want[2][0] == rows - 1 - met > 0, want
                for cells in (1, s * cost):
                    monkeypatch.setattr(verify_module, "SPAN_CELLS", cells)
                    rep = check(Design(case))
                    *frame, last = [(c.name, c.passed, c.witness, c.info) for c in rep.checks]
                    assert all(passed for _, passed, _, _ in frame), rep.as_text()
                    assert last == want, (rep.subject, n, cells)


def test_algebraic_matches_dense_reference_on_int16_grams():
    # k * (max Gram coefficient) + r + k exceeds 127 on affine q=11 and on
    # the pairs design of K50 over Z2, so the narrowed Gram is int16, not
    # the int8 of the fixtures above; each design gets its late mutant, one
    # table of seeded random exponents and four exponent mutants
    witnesses = set()
    for m in (affine_polyphase(11), simplex_phased(50)):
        f = m.group.order
        noise = np.random.default_rng(3).integers(0, f, m.codes.shape)
        cases = [m, _late_offence(m)[0], PolyphaseMatrix(m.group, np.where(m.codes == f, f, noise))]
        cases += [_change_exponent(m, seed) for seed in range(4)]
        for n, case in enumerate(cases):
            d = Design(case)
            assert d.k * int(case.gram().max()) + d.r + d.k > 127
            rep = verify_polyphase_algebraic(d)
            *frame, last = [(c.name, c.passed, c.witness, c.info) for c in rep.checks]
            assert all(passed for _, passed, _, _ in frame), rep.as_text()
            assert last == _reference_triple_identity(case), rep.subject
            assert last[1] == (n == 0), rep.subject
            witnesses.add(last[2])
    assert len(witnesses) > 10


def test_gram_matches_adjoint_product(families):
    for m in _algebraic_fixtures(families):
        for case in (m, _change_exponent(m, 0)):
            want = (adjoint(case) @ to_group_ring(case)).coeffs
            assert np.array_equal(case.gram(), want.transpose(0, 2, 1))


def test_exact_and_numeric_routes_agree(families):
    rng = np.random.default_rng(7)
    for name, m in families.items():
        exact = verify_polyphase_combinatorial(Design(m)).passed
        gammas = [g for g in characters_of(m.group) if not g.is_trivial]
        numeric = all(verify_etf_numeric(m.evaluate(g)).passed for g in gammas)
        assert exact and numeric, name
        i = int(rng.integers(m.rows))
        js = np.nonzero(m.codes[i] != m.group.order)[0]
        j = int(js[rng.integers(len(js))])
        old = entry(m, i, j)
        shift = tuple((old[l] + 1) % q for l, q in enumerate(m.group.factors))
        bad = replaced(m, i, j, shift)
        exact = verify_polyphase_combinatorial(Design(bad)).passed
        numeric = all(verify_etf_numeric(bad.evaluate(g)).passed for g in gammas)
        assert not exact and not numeric, name


def test_etf_numeric_on_every_nontrivial_character(families):
    m = families["example933"]
    for gamma in characters_of(m.group):
        if gamma.is_trivial:
            continue
        rep = verify_etf_numeric(m.evaluate(gamma))
        assert rep.passed
        n = rep.numerics
        assert (n.n, n.d) == (9, 6)
        assert n.coherence == pytest.approx(0.25, abs=1e-12)
        assert n.welch == pytest.approx(math.sqrt(3 / 48), abs=1e-12)


def test_etf_numeric_real_characters(families):
    ndims = {"brouwer3": (21, 28), "affine4": (10, 16)}
    for name, want in ndims.items():
        m = families[name]
        phi = m.evaluate(real_character(m.group))
        assert np.max(np.abs(phi.imag)) < 1e-12
        rep = verify_etf_numeric(phi)
        assert rep.passed
        assert (rep.numerics.d, rep.numerics.n) == want


def test_etf_numeric_orthonormal_is_vacuous():
    rep = verify_etf_numeric(np.eye(4))
    assert rep.passed
    assert rep.numerics.welch == 0.0 and rep.numerics.delta is None
    sig = next(c for c in rep.checks if c.name == "signature-quadratic")
    assert "vacuous" in sig.info


def test_etf_numeric_rejects_zero_column():
    phi = np.eye(3, dtype=np.complex128)
    phi[:, 1] = 0
    rep = verify_etf_numeric(phi)
    assert [(c.name, c.passed, c.witness) for c in rep.checks] == [
        ("nonzero-columns", False, (1,))
    ]
    # a matrix with no columns is API misuse, not a design to report on
    with pytest.raises(ValueError):
        verify_etf_numeric(np.zeros((3, 0)))


def test_etf_numeric_fails_on_generic_frame():
    rng = np.random.default_rng(3)
    phi = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
    phi /= np.linalg.norm(phi, axis=0)
    rep = verify_etf_numeric(phi)
    assert not rep.passed
    gram = phi.conj().T @ phi
    off = np.abs(gram[~np.eye(9, dtype=bool)])
    # Welch lower-bounds worst-case coherence, with equality only for ETFs
    assert off.max() > math.sqrt((9 - 6) / (6 * 8)) + 1e-6


def test_welch_failure_reported_when_angles_wrong(families):
    m = families["example933"]
    gamma = [g for g in characters_of(m.group) if not g.is_trivial][0]
    phi = m.evaluate(gamma)
    phi[:, 0] *= math.sqrt(2)
    rep = verify_etf_numeric(phi)
    bad = {c.name for c in rep.checks if not c.passed}
    assert "equal-norms" in bad


def test_naimark_complement_dimension(families):
    m = families["example933"]
    gamma = [g for g in characters_of(m.group) if not g.is_trivial][0]
    rep = verify_etf_numeric(m.evaluate(gamma))
    n, d, delta = rep.numerics.n, rep.numerics.d, rep.numerics.delta
    # negating the signature swaps delta for -delta and d for n - d
    d_flip = n / 2 * (1 + delta / math.sqrt(delta * delta + 4 * (n - 1)))
    assert d_flip == pytest.approx(n - d, abs=1e-9)
    gram = m.evaluate(gamma).conj().T @ m.evaluate(gamma)
    s = (gram - rep.numerics.norm * np.eye(n)) / rep.numerics.gram_modulus
    lhs = (-s) @ (-s)
    rhs = -delta * (-s) + (n - 1) * np.eye(n)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_gq_axioms_and_duality(families):
    for name in ("example933", "brouwer2", "brouwer3"):
        m = families[name]
        s, t = _design_order(m)
        z = gq_from_polyphase(m)
        rep = verify_gq_axioms(z, s, t, check_spread=True)
        assert rep.passed, rep.as_text()
        dual = verify_gq_axioms(z.T, t, s)
        assert dual.passed, name


def test_gq_axioms_dimension_mismatch(families):
    z = gq_from_polyphase(families["example933"])
    rep = verify_gq_axioms(z, 4, 2)
    assert not rep.passed
    assert rep.checks[0].name == "dimensions" and not rep.checks[0].passed


def test_gq_axioms_flags_flipped_cell(families):
    z = gq_from_polyphase(families["example933"])
    z[20, 5] ^= 1
    rep = verify_gq_axioms(z, 2, 4)
    bad = {c.name for c in rep.checks if not c.passed}
    assert {"row-sums", "col-sums"} & bad


def test_gq_spread_check(families):
    z = gq_from_polyphase(families["example933"])
    shuffled = np.vstack([z[9:], z[:9]])
    rep = verify_gq_axioms(shuffled, 2, 4, check_spread=True)
    assert any(c.name == "spread" and not c.passed for c in rep.checks)
    assert verify_gq_axioms(shuffled, 2, 4).passed  # still a GQ without the spread
    # the SRG check reads the axioms with no spread line, so it passes
    srg = verify_srg_collinearity(shuffled, 2, 4)
    assert srg.passed and srg.subject == "SRG(27,10,1,5)"


def _check(name, bad):
    """(name, passed, witness) with the row-major first offence in bad."""
    idx = np.argwhere(bad)
    witness = tuple(int(a) for a in idx[0]) if len(idx) else None
    return name, witness is None, witness


def _dense_gq_reference(z, s, t, check_spread=False):
    """verify_gq_axioms recomputed with dense int64 products."""
    z = np.asarray(z, dtype=np.int64)
    if z.shape != ((t + 1) * (s * t + 1), (s + 1) * (s * t + 1)):
        return [("dimensions", False, z.shape)]
    out = [("dimensions", True, None), _check("zero-one", (z != 0) & (z != 1))]
    if not out[-1][1]:
        return out
    out.append(_check("row-sums", z.sum(axis=1) != s + 1))
    out.append(_check("col-sums", z.sum(axis=0) != t + 1))
    for name, prod in (("block-pair-intersections", z @ z.T),
                       ("point-pair-collinearity", z.T @ z)):
        off = ~np.eye(len(prod), dtype=bool)
        out.append(_check(name, (prod != 0) & (prod != 1) & off))
    out.append(_check("triple-product", z @ z.T @ z != (s + t) * z + 1))
    if check_spread:
        v = s * t + 1
        spread = np.kron(np.eye(v, dtype=np.int64), np.ones((1, s + 1), dtype=np.int64))
        ok = np.array_equal(z[:v], spread)
        out.append(("spread", ok, None if ok else ()))
    return out


def _dense_srg_reference(z, s, t):
    """verify_srg_collinearity recomputed with dense int64 products."""
    out = _dense_gq_reference(z, s, t)
    if not all(passed for _, passed, _ in out):
        return out
    z = np.asarray(z, dtype=np.int64)
    n, deg, lam, mu = (s + 1) * (s * t + 1), s * (t + 1), s - 1, t + 1
    eye = np.eye(n, dtype=np.int64)
    adj = z.T @ z - (t + 1) * eye
    simple = (np.array_equal(adj, adj.T) and not np.diagonal(adj).any()
              and bool(np.all((adj == 0) | (adj == 1))))
    return [
        ("gq-axioms", True, None),
        ("adjacency-simple", simple, None if simple else ()),
        _check("regular", adj.sum(axis=1) != deg),
        _check("srg-quadratic", adj @ adj != (lam - mu) * adj + (deg - mu) * eye + mu),
    ]


def _swap_cell(z, seed):
    """Move one incidence along its row: row sums hold, the rest breaks."""
    rng = np.random.default_rng(seed)
    z = z.copy()
    i = int(rng.integers(z.shape[0]))
    a = int(rng.choice(np.nonzero(z[i])[0]))
    b = int(rng.choice(np.nonzero(z[i] == 0)[0]))
    z[i, a], z[i, b] = 0, 1
    return z


def _triples(rep):
    return [(c.name, c.passed, c.witness) for c in rep.checks]


def test_gq_and_srg_match_dense_reference(families):
    # the SRG lines are read off the axioms with no lift structure, so the
    # inputs include incidences that are not lifts: each lift's dual, a
    # GQ(t, s), and the lift with its rows and columns permuted
    rng = np.random.default_rng(29)
    for name in ("example933", "brouwer2", "brouwer3", "affine3"):
        m = families[name]
        s, t = _design_order(m)
        lifted = gq_from_polyphase(m)
        z = lifted.astype(np.int64)
        assert (_triples(verify_gq_axioms(lifted, s, t, check_spread=True))
                == _triples(verify_gq_axioms(z, s, t, check_spread=True)))
        permuted = z[rng.permutation(z.shape[0])][:, rng.permutation(z.shape[1])]
        for order, intact, count in (((s, t), z, 20), ((t, s), z.T.copy(), 10), ((s, t), permuted, 10)):
            # most mutants offend at both (i, j) and (j, i) of a product, so
            # this also pins the witness to the row-major first offence
            mutants = [_swap_cell(intact, seed) for seed in range(count)]
            for case in [intact] + mutants:
                got = verify_gq_axioms(case, *order, check_spread=True)
                assert _triples(got) == _dense_gq_reference(case, *order, check_spread=True), name
                srg = verify_srg_collinearity(case, *order)
                assert _triples(srg) == _dense_srg_reference(case, *order), name
                assert srg.passed == (case is intact), name
    # example933's dual is the GQ(4, 2) of SRG(45, 12, 3, 3)
    dual = verify_srg_collinearity(gq_from_polyphase(families["example933"]).T, 4, 2)
    assert dual.passed and dual.subject == "SRG(45,12,3,3)"


def test_srg_reads_the_axioms_of_its_own_cells(families):
    # the SRG lines are a corollary of the axioms report on the same cells:
    # a mutant reports its own failing axioms, even right after its parent
    # design passed
    for name in ("example933", "brouwer2", "brouwer3", "affine3"):
        m = families[name]
        s, t = _design_order(m)
        assert verify_gq_axioms(Design(m), s, t).passed, name
        for case in [_change_exponent(m, seed) for seed in range(5)]:
            srg = verify_srg_collinearity(Design(case), s, t)
            assert srg.subject == f"SRG of GQ({s},{t}) (GQ axioms failed)", name
            assert _triples(srg) == _dense_gq_reference(gq_from_polyphase(case), s, t), name
    # once the axioms are counted, no points^2 array forms, not even of bools
    d = Design(families["brouwer3"])
    assert verify_gq_axioms(d, 3, 9).passed
    n = d.gq.shape[1]
    tracemalloc.start()
    try:
        srg = verify_srg_collinearity(d, 3, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert srg.passed and peak < n * n, peak
    # the same cells at another order get a report of their own
    assert _triples(verify_srg_collinearity(d, 9, 3)) == [("dimensions", False, (280, 112))]


def test_gq_fail_lines_name_their_count_and_target(families):
    # one seeded brouwer q=3 mutant per line: a cell added to row 20
    # (row-sums), a cell moved along its row (col-sums) and a changed
    # exponent (triple-product, through the Design's lift); got is the
    # entry of the dense product at the witness, want its target
    m = families["brouwer3"]
    z = gq_from_polyphase(m).astype(np.int64)
    added = z.copy()
    added[20, np.flatnonzero(z[20] == 0)[0]] = 1
    moved = _swap_cell(z, 3)
    mutant = _change_exponent(m, 1)
    lifted = gq_from_polyphase(mutant).astype(np.int64)
    cases = [
        ("row-sums", added, added.sum(axis=1), 4, (20,), "got 5, want 4"),
        ("col-sums", moved, moved.sum(axis=0), 10, (7,), "got 9, want 10"),
        ("triple-product", Design(mutant), lifted @ lifted.T @ lifted, 12 * lifted + 1,
         (28, 25), "got 0, want 1"),
    ]
    for name, case, product, target, witness, info in cases:
        line = next(c for c in verify_gq_axioms(case, 3, 9).checks if c.name == name)
        assert (line.passed, line.witness, line.info) == (False, witness, info), name
        want = target[witness] if np.ndim(target) else target
        assert info == f"got {product[witness]}, want {want}", name
    # PASS lines carry no count
    assert all(c.info == "" for c in verify_gq_axioms(Design(m), 3, 9).checks)


@pytest.mark.parametrize("family,q,bound_mib", [("brouwer", 7, 24), ("affine", 27, 64)])
def test_gq_axioms_memory_is_bounded_by_the_walk_spans(family, q, bound_mib):
    # no points^2 array: affine q=27 is a GQ(26, 28) on 19683 points, whose
    # Z^T Z alone would take 369 MiB at int8
    m = (brouwer_polyphase if family == "brouwer" else affine_polyphase)(q)
    s, t = _design_order(m)
    tracemalloc.start()
    try:
        rep = verify_gq_axioms(Design(m), s, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.subject == f"GQ({s},{t}) axioms", rep.as_text()
    assert peak <= bound_mib * 2**20, peak / 2**20


def test_design_lift_checks_match_dense_lift(families, monkeypatch):
    # the Design route reads one row per translation orbit, the dense one
    # every row; with SPAN_CELLS = 1 each representative row is its own span
    for cells in (verify_module.SPAN_CELLS, 1):
        monkeypatch.setattr(verify_module, "SPAN_CELLS", cells)
        for name in ("example933", "brouwer2", "brouwer3", "affine3"):
            m = families[name]
            s, t = _design_order(m)
            for case in [m] + [_change_exponent(m, seed) for seed in range(10)]:
                d, z = Design(case), gq_from_polyphase(case)
                gq = verify_gq_axioms(d, s, t, check_spread=True)
                assert _triples(gq) == _triples(verify_gq_axioms(z, s, t, check_spread=True)), name
                srg = verify_srg_collinearity(d, s, t)
                assert _triples(srg) == _triples(verify_srg_collinearity(z, s, t)), name
                assert gq.passed == (case is m), name


def _golden_designs():
    return ([simplex_phased(v) for v in range(3, 8)] + [example_9_3_3()]
            + [affine_polyphase(q) for q in (2, 3, 4, 5, 7, 8, 9)]
            + [brouwer_polyphase(q) for q in (2, 3, 4, 5, 7)])


def _unequal_rows():
    """Row 0 of weight f = 3, the other rows of weights 0 to 5."""
    m = example_9_3_3()
    rng = np.random.default_rng(11)
    support = rng.random((6, m.cols)) < np.linspace(0, 0.6, 6)[:, None]
    support[0] = np.arange(m.cols) < 3
    exps = rng.integers(0, m.group.order, size=support.shape)
    return PolyphaseMatrix(m.group, np.where(support, exps, m.group.order))


def test_design_lift_cells_are_the_dense_lift_scan():
    # every golden design has k = f, so each has a lift
    for m in _golden_designs() + [_unequal_rows()]:
        cells, dense = Design(m).gq, verify_module._Cells.from_dense(gq_from_polyphase(m))
        assert cells.shape == dense.shape and cells.not_one is None is dense.not_one
        assert np.array_equal(cells.ii, dense.ii) and np.array_equal(cells.jj, dense.jj)
        assert np.array_equal(cells.rows, dense.rows)


def _translated_cells(cells, group, v):
    """The flat row-major cell keys of a GQ lift moved by each x in the
    group: lifted row v + i f + a goes to v + i f + (a + x), point j f + b
    to j f + (b + x), and every spread row stays where it is."""
    f, add, n = group.order, group.add_index, cells.shape[1]
    a, b = (cells.ii - v) % f, cells.jj % f
    lifted = cells.ii >= v
    for x in range(f):
        ii = np.where(lifted, cells.ii - a + add[a, x], cells.ii)
        yield np.sort(ii * n + cells.jj - b + add[b, x])


def test_design_lift_is_translation_invariant():
    # gq and srg read one row per translation orbit, which holds for any
    # Phi: the golden designs, unequal rows and mutated exponents alike
    designs = _golden_designs() + [_unequal_rows()]
    designs += [_change_exponent(m, seed) for m in designs[::3] for seed in range(2)]
    for m in designs:
        cells = Design(m).gq
        assert cells.f == m.group.order
        assert verify_module._Cells.from_dense(gq_from_polyphase(m)).f == 1
        keys = cells.ii * cells.shape[1] + cells.jj
        for moved in _translated_cells(cells, m.group, m.cols):
            assert np.array_equal(moved, keys), repr(m)


def _walked(z, chain):
    """Walk counts of the kernel along chain, a word in "b" (block) and
    "p" (point) naming the node kinds a walk visits, from every node of
    the first kind; stacked over its spans, which must cover the sources
    in order."""
    to_points, to_blocks = z.hops
    hops = [to_points if kind == "p" else to_blocks for kind in chain[1:]]
    sources = np.arange(z.shape[chain[0] == "p"])
    spans = list(verify_module._walk_counts(sources, hops, z.shape[chain[-1] == "p"]))
    assert [r0 for r0, _ in spans] == list(np.cumsum([0] + [len(c) for _, c in spans])[:-1])
    return np.concatenate([counts for _, counts in spans])


def test_point_pairs_are_symmetric_for_any_incidence():
    # adjacency-simple does not test P = Z^T Z for symmetry: each block adds
    # both orders of every pair of its points, whatever the input; the
    # point -> block -> point walks count P row by row
    rng = np.random.default_rng(17)
    dense = [(rng.random((b, v)) < p).astype(np.int64)
             for b, v, p in ((1, 1, 1.0), (7, 5, 0.5), (30, 12, 0.3), (12, 40, 0.8))]
    designs = _golden_designs()[::3] + [_unequal_rows()]
    designs += [_change_exponent(m, seed) for m in designs for seed in range(2)]
    cases = [(verify_module._Cells.from_dense(z), z) for z in dense]
    cases += [(Design(m).gq, gq_from_polyphase(m)) for m in designs]
    for z, case in cases:
        pairs = _walked(z, "pbp")
        assert pairs.dtype.kind == "i" and np.array_equal(pairs, pairs.T), z.shape
        # a float64 product of 0/1 arrays is exact at these sizes
        assert np.array_equal(pairs, case.T.astype(np.float64) @ case), z.shape


def test_gq_and_srg_row_spans_match_dense_reference(families, monkeypatch):
    # one source per walk span, then an uneven split; the half-dense cases
    # hold more walks per source than the sparse ones, and every chain of
    # the checks counts its dense product
    rng = np.random.default_rng(5)
    for name in ("brouwer3", "affine3"):
        m = families[name]
        s, t = _design_order(m)
        z = gq_from_polyphase(m).astype(np.int64)
        half = [(rng.random(z.shape) < 0.5).astype(np.int64) for _ in range(3)]
        for cells in (1, 16 * (3 * z.shape[1] + 17)):
            monkeypatch.setattr(verify_module, "SPAN_CELLS", cells)
            for case in [z] + [_swap_cell(z, seed) for seed in range(10)] + half:
                got = verify_gq_axioms(case, s, t, check_spread=True)
                assert _triples(got) == _dense_gq_reference(case, s, t, check_spread=True), name
                srg = verify_srg_collinearity(case, s, t)
                assert _triples(srg) == _dense_srg_reference(case, s, t), name
            case = half[0]
            cells = verify_module._Cells.from_dense(case)
            for chain, product in (("pbp", case.T @ case), ("bpb", case @ case.T),
                                   ("bpbp", case @ case.T @ case)):
                walks = _walked(cells, chain)
                assert walks.dtype.kind == "i" and np.array_equal(walks, product), (name, chain)


def test_srg_parameters(families):
    z = gq_from_polyphase(families["example933"])
    rep = verify_srg_collinearity(z, 2, 4)
    assert rep.passed and rep.subject == "SRG(27,10,1,5)"
    z = gq_from_polyphase(families["brouwer3"])
    rep = verify_srg_collinearity(z, 3, 9)
    assert rep.passed and rep.subject == "SRG(112,30,2,10)"


def test_srg_propagates_gq_failure(families):
    z = gq_from_polyphase(families["example933"]).copy()
    z[0, 0] ^= 1
    rep = verify_srg_collinearity(z, 2, 4)
    assert not rep.passed
    assert "GQ axioms failed" in rep.subject


def test_drackn_families(families):
    for name, want in [("example933", (9, 3, 3, -2)), ("brouwer3", (28, 4, 8, -6))]:
        a, params = Design(families[name]).drackn
        assert (params.n, params.f, params.c, params.delta) == want
        assert a.shape == (params.n, params.f, params.n) and a.dtype == np.int8
        rep = verify_drackn(a, families[name].group, params.c)
        assert rep.passed, rep.as_text()
        sigs = [c for c in rep.checks if c.name.startswith("signature@")]
        assert len(sigs) == params.f - 1


def test_drackn_shape_guards(families):
    m = families["example933"]
    a, params = Design(m).drackn
    for bad, group in ((a[:-1], m.group), (a[:, :, :-1], m.group), (a[0], m.group),
                       (a, AbelianGroup([params.f + 1])), (a[:, :2], m.group)):
        with pytest.raises(ValueError, match="expected an"):
            verify_drackn(bad, group, params.c)


def test_drackn_catches_tampering(families):
    m = families["example933"]
    a, params = Design(m).drackn
    a[0, :, 1] = 0
    a[0, 0, 1] = 2
    rep = verify_drackn(a, m.group, params.c)
    bad = {c.name for c in rep.checks if not c.passed}
    assert "monomial-off-diagonal" in bad and "self-adjoint" in bad


def _drackn_right_side(a, group, c):
    """delta A + (n-1) I + c G (J - I) as a dense GroupRingMatrix."""
    n = len(a)
    eye = np.eye(n, dtype=np.int64)
    return ((n - group.order * c - 2) * GroupRingMatrix(group, a)
            + GroupRingMatrix.from_scalar(group, (n - 1) * eye)
            + GroupRingMatrix.all_geometric(group, c * (1 - eye)))


def _monomial_off_diagonal(a):
    n = len(a)
    return (np.sum(a == 1, axis=2) == 1) & (np.sum(a != 0, axis=2) == 1) & ~np.eye(n, dtype=bool)


def _reference_drackn(a, group, c):
    """The DRACKN report recomputed densely, as (name, passed, witness,
    residual, info): A^2 as one GroupRingMatrix product, each signature
    from one tensordot of the whole array."""
    n, f = len(a), group.order
    m = GroupRingMatrix(group, a)
    adj = m.adjoint()
    out = [("self-adjoint", m == adj, m.first_difference(adj), None, "")]
    bad = np.flatnonzero(a[np.arange(n), np.arange(n)].any(axis=1))
    out.append(("zero-diagonal", len(bad) == 0, (int(bad[0]),) if len(bad) else None, None, ""))
    bad = np.argwhere(~_monomial_off_diagonal(a) & ~np.eye(n, dtype=bool))
    out.append(("monomial-off-diagonal", len(bad) == 0,
                tuple(int(x) for x in bad[0]) if len(bad) else None, None, ""))
    delta = n - f * c - 2
    square, right = m @ m, _drackn_right_side(a, group, c)
    diff, info = square.first_difference(right), f"delta={delta}"
    if diff is not None:
        got, want = square.coeffs[diff], right.coeffs[diff]
        h = int(np.flatnonzero(got != want)[0])
        info += f", element {group.elements[h]} got {got[h]}, want {want[h]}"
    out.append(("quadratic", diff is None, diff, None, info))
    off, eye = ~np.eye(n, dtype=bool), np.eye(n)
    dim = n / 2 * (1 - delta / math.sqrt(delta * delta + 4 * (n - 1)))
    for gamma in characters_of(group)[1:]:
        sig = np.tensordot(a, gamma.values, axes=([2], [0]))
        res = max(
            float(np.max(np.abs(sig - sig.conj().T))),
            float(np.max(np.abs(np.diagonal(sig)))),
            float(np.max(np.abs(np.abs(sig[off]) - 1))),
            float(np.max(np.abs(sig @ sig - delta * sig - (n - 1) * eye))),
        )
        out.append((f"signature@{gamma.exponents}", res <= 1e-9, None, res, f"d={dim:.6g}"))
    return out


def _check_drackn_against_reference(a, group, c, monkeypatch):
    """verify_drackn against the dense reference, with the default spans,
    one row per span and an uneven split.  a is laid out (n, n, f), as the
    reference reads it, and reaches verify_drackn as an (n, f, n) view.
    Pass/fail, residuals, every witness and every info match the dense
    report, the quadratic's included.  Returns the quadratic's witness."""
    n = len(a)
    want = _reference_drackn(a, group, c)
    uneven = next(s for s in range(2, n + 2) if n % s)
    for cells in (verify_module.SPAN_CELLS, 1, 16 * uneven * n * n):
        monkeypatch.setattr(verify_module, "SPAN_CELLS", cells)
        rep = verify_drackn(np.moveaxis(a, 2, 1), group, c)
        got = [(ch.name, ch.passed, ch.witness, ch.residual, ch.info) for ch in rep.checks]
        assert [g[:2] for g in got] == [w[:2] for w in want], (cells, rep.as_text())
        for (name, _, witness, residual, info), w in zip(got, want):
            assert info == w[4], name
            assert witness == w[2], (name, cells)
            if residual is not None:
                # a monomial A evaluates to exact roots of unity, so only a
                # malformed one can round differently from the dense route
                assert residual == pytest.approx(w[3], rel=1e-12, abs=1e-12), name
    monkeypatch.undo()
    return want[3][2]


def test_drackn_matches_dense_reference_on_golden_designs(monkeypatch):
    for m in _golden_designs():
        a, params = Design(m).drackn
        assert _check_drackn_against_reference(np.moveaxis(a, 1, 2), m.group, params.c,
                                               monkeypatch) is None
        assert verify_drackn(a, m.group, params.c).passed


def _random_monomial(group, n, rng, self_adjoint):
    """A hollow (n, n, f) array, monomial off its diagonal."""
    f = group.order
    d = rng.integers(0, f, size=(n, n))
    if self_adjoint:
        lower = np.tril(np.ones((n, n), dtype=bool), -1)
        d[lower] = group.neg_index[d.T[lower]]
    a = np.zeros((n, n, f), dtype=np.int64)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    a[i, j, d[i, j]] = 1
    return a


@pytest.mark.parametrize("factors", [(3,), (2, 2), (4,), (12, 5)], ids=str)
def test_drackn_matches_dense_reference_on_random_monomial_arrays(factors, monkeypatch):
    group = AbelianGroup(factors)
    rng = np.random.default_rng(sum(factors))
    for n in (2, 5, 11):
        for self_adjoint in (True, False):
            a = _random_monomial(group, n, rng, self_adjoint)
            for c in (0, int(rng.integers(1, 6))):
                _check_drackn_against_reference(a, group, c, monkeypatch)


def test_drackn_finds_an_offence_left_of_the_diagonal(monkeypatch):
    # this A is not self-adjoint, so no span may skip the columns left of
    # its rows: row 0 meets its target, and row 1 first misses it at column 0
    group = AbelianGroup([2])
    a = np.zeros((4, 4, 2), dtype=np.int64)
    a[:, :, 0] = 1 - np.eye(4, dtype=np.int64)
    for i, j in ((2, 3), (3, 1), (3, 2)):
        a[i, j] = (0, 1)
    assert _check_drackn_against_reference(a, group, 1, monkeypatch) == (1, 0)


def _tampered(a, group, rng):
    """Seeded edits of a DRACKN: diagonal, non-monomial and monomial cells,
    each with or without the mirror cell that keeps A self-adjoint."""
    n, f = a.shape[0], group.order
    out = []
    for seed in range(10):
        b = a.copy()
        i = int(rng.integers(n // 2, n))
        j = int((i + rng.integers(1, n)) % n)
        g = int(rng.integers(f))
        kind = seed % 5
        if kind == 0:  # a diagonal cell: the count is untouched, so the offence is (i, i)
            b[i, i, 0] += 1
        elif kind == 1:  # twice a group element
            b[i, j] = 0
            b[i, j, g] = 2
        elif kind == 2:  # a binomial, mirrored
            b[i, j, g] += 1
            b[j, i, group.neg_index[g]] += 1
        elif kind == 3:  # another monomial, mirrored
            b[i, j] = b[j, i] = 0
            b[i, j, g] = b[j, i, group.neg_index[g]] = 1
        else:  # another monomial, not mirrored
            b[i, j] = 0
            b[i, j, g] = 1
        out.append(b)
    return out


def test_drackn_matches_dense_reference_on_tampered_arrays(families, monkeypatch):
    rng = np.random.default_rng(2016)
    offending = late = moved = 0
    for name in ("example933", "affine3", "affine4", "brouwer2", "brouwer3", "simplex5"):
        m = families[name]
        a, params = Design(m).drackn
        for b in _tampered(np.moveaxis(a, 1, 2), m.group, rng):
            witness = _check_drackn_against_reference(b, m.group, params.c, monkeypatch)
            counted = verify_drackn(np.moveaxis(b, 2, 1), m.group, params.c).checks[3].witness
            offending += witness is not None
            late += witness is not None and witness[0] > 0
            moved += counted != witness
    # the witness is the dense one on every array, non-monomial ones
    # included.  Each edit lies in a late row i or column i, and row 0 of
    # A holds a unit at (0, i), so the first offence of the true A^2 is in
    # row 0 whatever the edit
    assert offending >= 40 and late == 0 and moved == 0


def test_drackn_quadratic_names_the_dense_count(families):
    # the FAIL info names the first group element whose count in the
    # witness cell of A^2 misses its target, with the dense product's
    # count and target there
    rng = np.random.default_rng(21)
    named = set()
    for name in ("example933", "affine3", "brouwer2", "brouwer3"):
        m = families[name]
        a, params = Design(m).drackn
        for b in _tampered(np.moveaxis(a, 1, 2), m.group, rng):
            square = GroupRingMatrix(m.group, b) @ GroupRingMatrix(m.group, b)
            right = _drackn_right_side(b, m.group, params.c)
            line = verify_drackn(np.moveaxis(b, 2, 1), m.group, params.c).checks[3]
            if square == right:
                assert line.passed
                continue
            i, j = square.first_difference(right)
            h = int(np.flatnonzero(square.coeffs[i, j] != right.coeffs[i, j])[0])
            assert (line.name, line.passed, line.witness) == ("quadratic", False, (i, j))
            assert line.info == (f"delta={params.delta}, element {m.group.elements[h]} "
                                 f"got {square.coeffs[i, j, h]}, want {right.coeffs[i, j, h]}")
            named.add(h)
    assert len(named) > 1


def test_drackn_guard_fails_quadratic_past_float_exactness(families):
    # A times 2^22 squares to counts near 2^47, past what the energy can
    # decide: quadratic fails naming the guard, and every other line is
    # the dense reference's
    m = families["example933"]
    a, params = Design(m).drackn
    big = np.moveaxis(a, 1, 2).astype(np.int64) << 22
    want = _reference_drackn(big, m.group, params.c)
    rep = verify_drackn(np.moveaxis(big, 2, 1), m.group, params.c)
    got = [(ch.name, ch.passed, ch.witness, ch.residual, ch.info) for ch in rep.checks]
    assert got[3][:3] == ("quadratic", False, ())
    assert got[3][4].startswith(f"delta={params.delta}, past the float guard: E*=")
    assert [g[:3] for g in got[:3] + got[4:]] == [w[:3] for w in want[:3] + want[4:]]
    for g, w in zip(got[4:], want[4:]):
        assert g[4] == w[4] and g[3] == pytest.approx(w[3], rel=1e-12), g[0]


def test_drackn_support_swap_reports_the_dense_witness(monkeypatch):
    # affine q=3 with row 1's cell at column 1 moved to column 0 is no BIBD,
    # so A is neither hollow nor monomial off its diagonal.  The quadratic
    # counts the true A^2, so its witness is the dense (0, 0), and every
    # line is the dense report's.  Column 1 now holds r - 1 cells, so A's
    # narrow type carries a negative diagonal, and the report reads the
    # same off an int64 copy
    m = affine_polyphase(3)
    swapped = replaced(replaced(m, 1, 1, None), 1, 0, entry(m, 1, 1))
    a, params = Design(swapped).drackn
    assert a.dtype == np.int8 and a[1, 0, 1] == -1
    dense = np.moveaxis(a, 1, 2)
    assert _check_drackn_against_reference(dense, m.group, params.c, monkeypatch) == (0, 0)
    narrow, wide = (verify_drackn(b, m.group, params.c) for b in (a, a.astype(np.int64)))
    assert narrow.as_dict() == wide.as_dict()


def test_screen_rows_for_smallest_block_sizes():
    rows = screen_parameters(3, 4)
    assert rows == [
        ScreenRow(v=9, k=3, r=4, b=12, u=1, real_feasible=False),
        ScreenRow(v=16, k=4, r=5, b=20, u=3, real_feasible=True),
        ScreenRow(v=28, k=4, r=9, b=63, u=2, real_feasible=True),
        ScreenRow(v=64, k=4, r=21, b=336, u=1, real_feasible=True),
    ]


def test_screen_row_counts_by_block_size():
    rows = screen_parameters(3, 9)
    by_k = {}
    for row in rows:
        by_k[row.k] = by_k.get(row.k, 0) + 1
    assert by_k == {3: 1, 4: 3, 5: 5, 6: 7, 7: 7, 8: 7, 9: 7}
    assert len(rows) == 37


def test_screen_rows_satisfy_dimension_identity():
    for row in screen_parameters(3, 9):
        # d = vr/(r+k-1) must be integral with v - d = (k-1)^2 - u
        assert (row.v * row.r) % (row.r + row.k - 1) == 0
        d = row.v * row.r // (row.r + row.k - 1)
        assert row.v - d == (row.k - 1) ** 2 - row.u
        assert row.b * row.k == row.v * row.r
        assert row.v - 1 == row.r * (row.k - 1)


def test_screen_range_guards():
    assert screen_parameters(2, 2) == []
    with pytest.raises(ValueError):
        screen_parameters(1, 5)
    with pytest.raises(ValueError):
        screen_parameters(3, 21)
    with pytest.raises(ValueError):
        screen_parameters(5, 3)


def test_count_blocks_through_vertex():
    geom = brouwer_geometry(2)
    counts = {sum(v in blk for blk in geom.blocks) for v in geom.vertices}
    assert counts == {3}
    assert all(set(blk.members) <= set(geom.vertices) for blk in geom.blocks)


def test_report_rendering(families):
    rep = verify_polyphase_combinatorial(Design(families["example933"]))
    text = rep.as_text()
    assert text.startswith("PASS polyphase combinatorial")
    assert "triple-products" in text
    d = rep.as_dict()
    assert d["passed"] is True
    assert all(set(c) == {"name", "passed", "witness", "residual", "info"} for c in d["checks"])


def test_failing_checks_carry_witness_or_residual(families):
    m = replaced(families["example933"], 0, 0, (2,))
    reports = [
        verify_polyphase_combinatorial(Design(m)),
        verify_polyphase_algebraic(Design(m)),
        verify_etf_numeric(m.evaluate([g for g in characters_of(m.group) if not g.is_trivial][0])),
    ]
    for rep in reports:
        assert not rep.passed
        for c in rep.checks:
            if not c.passed:
                assert c.witness is not None or c.residual is not None
