"""Acceptance suite: one test per criterion, each printing a summary line.

Numeric tolerance is 1e-9 on max entry deviation throughout; numeric
rank uses a relative singular value cutoff of 1e-8.  Integer identities
are checked exactly.
"""

import math
import time

import numpy as np

from etfforge.construct import (
    affine_polyphase,
    brouwer_geometry,
    brouwer_polyphase,
    example_9_3_3,
    gq_from_polyphase,
    phased_to_polyphase,
    polyphase_from_gq,
    simplex_phased,
)
from etfforge.groupring import characters_of, real_character
from etfforge.verify import (
    Design,
    RANK_REL_TOL,
    screen_parameters,
    verify_drackn,
    verify_etf_numeric,
    verify_gq_axioms,
    verify_polyphase_algebraic,
    verify_polyphase_combinatorial,
    verify_srg_collinearity,
)

from reference_ring import GroupRingMatrix, adjoint, to_group_ring

TOL = 1e-9


def _line(num: int, text: str):
    print(f"criterion {num}: PASS - {text}")


def _nontrivial(group):
    return [g for g in characters_of(group) if not g.is_trivial]


def test_criterion_1_affine_family():
    start = time.monotonic()
    for q in (2, 3, 4, 5, 7, 8, 9):
        m = affine_polyphase(q)
        assert verify_polyphase_combinatorial(Design(m)).passed, f"q={q} combinatorial"
        assert verify_polyphase_algebraic(Design(m)).passed, f"q={q} algebraic"
        for gamma in _nontrivial(m.group):
            rep = verify_etf_numeric(m.evaluate(gamma), tol=TOL)
            assert rep.passed, f"q={q} gamma={gamma.exponents}\n{rep.as_text()}"
            nm = rep.numerics
            assert nm.n == q * q
            assert nm.d == q * (q + 1) // 2
            assert abs(nm.coherence - 1 / (q + 1)) <= TOL
            assert abs(nm.coherence - nm.welch) <= TOL
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    _line(1, f"affine q in 2..9: exact + numeric ETF checks in {elapsed:.2f} s")


def test_criterion_2_brouwer_family():
    start = time.monotonic()
    for q in (2, 3, 4, 5):
        m = brouwer_polyphase(q)
        assert verify_polyphase_combinatorial(Design(m)).passed, f"q={q} combinatorial"
        assert verify_polyphase_algebraic(Design(m)).passed, f"q={q} algebraic"
        d_want = q * (q * q - q + 1)
        for gamma in _nontrivial(m.group):
            sv = np.linalg.svd(m.evaluate(gamma), compute_uv=False)
            d = int(np.sum(sv > RANK_REL_TOL * sv[0]))
            assert d == d_want, f"q={q} gamma={gamma.exponents}: rank {d} != {d_want}"
        if q in (2, 3):
            z = gq_from_polyphase(m)
            s, t = q, q * q
            assert verify_gq_axioms(z, s, t, check_spread=True).passed, f"q={q} GQ"
            srg = verify_srg_collinearity(z, s, t)
            assert srg.passed, f"q={q} SRG"
            n = (s + 1) * (s * t + 1)
            assert srg.subject == f"SRG({n},{s * (t + 1)},{s - 1},{t + 1})"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    _line(2, f"brouwer q in 2..5: exact checks, ranks, GQ/SRG in {elapsed:.2f} s")


EXPECTED_GRAM_EXPONENTS = [
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


def test_criterion_3_example_reproduction():
    m = example_9_3_3()
    gram = adjoint(m) @ to_group_ring(m)
    want = np.zeros((9, 9, 3), dtype=np.int64)
    for i in range(9):
        for j in range(9):
            if i == j:
                want[i, j, 0] = 4
            else:
                want[i, j, EXPECTED_GRAM_EXPONENTS[i][j]] = 1
    assert gram == GroupRingMatrix(m.group, want)
    assert np.array_equal(m.gram(), want)
    assert verify_polyphase_algebraic(Design(m)).passed
    assert verify_polyphase_combinatorial(Design(m)).passed
    _line(3, "printed 9x9 Gram reproduced entrywise; 12x9 identity exact")


def test_criterion_4_drackn():
    for builder, want in ((example_9_3_3, (9, 3, 3)), (lambda: brouwer_polyphase(3), (28, 4, 8))):
        m = builder()
        a, params = Design(m).drackn
        assert (params.n, params.f, params.c) == want
        rep = verify_drackn(a, m.group, params.c)
        assert rep.passed, rep.as_text()
        x = m.modulus_squared()
        k = int(x.sum(axis=1)[0])
        r = (m.cols - 1) // (k - 1)
        assert params.delta == -(r - k + 1)
    _line(4, "(9,3,3) and (28,4,8) covers verified exactly, delta = -(r-k+1)")


def test_criterion_5_real_etfs():
    table = {((row.k - 1) ** 2 - row.u, row.v) for row in screen_parameters(3, 9)}
    for build, want_dn in ((lambda: brouwer_polyphase(3), (21, 28)),
                           (lambda: affine_polyphase(4), (10, 16))):
        m = build()
        phi = m.evaluate(real_character(m.group))
        assert float(np.max(np.abs(phi.imag))) == 0.0
        rep = verify_etf_numeric(phi, tol=TOL)
        assert rep.passed, rep.as_text()
        d, n = rep.numerics.d, rep.numerics.n
        assert (d, n) == want_dn
        assert (n - d, n) in table
    _line(5, "real ETFs at the real character: (d,n) = (21,28) and (10,16)")


EXPECTED_SCREEN_ROWS = [
    (9, 3, 4, 12, 1),
    (16, 4, 5, 20, 3),
    (28, 4, 9, 63, 2),
    (64, 4, 21, 336, 1),
    (25, 5, 6, 30, 6),
    (45, 5, 11, 99, 4),
    (65, 5, 16, 208, 3),
    (105, 5, 26, 546, 2),
    (225, 5, 56, 2520, 1),
    (36, 6, 7, 42, 10),
    (51, 6, 10, 85, 8),
    (76, 6, 15, 190, 6),
    (96, 6, 19, 304, 5),
    (126, 6, 25, 525, 4),
    (276, 6, 55, 2530, 2),
    (576, 6, 115, 11040, 1),
    (49, 7, 8, 56, 15),
    (91, 7, 15, 195, 10),
    (175, 7, 29, 725, 6),
    (217, 7, 36, 1116, 5),
    (385, 7, 64, 3520, 3),
    (595, 7, 99, 8415, 2),
    (1225, 7, 204, 35700, 1),
    (64, 8, 9, 72, 21),
    (120, 8, 17, 255, 14),
    (288, 8, 41, 1476, 7),
    (344, 8, 49, 2107, 6),
    (736, 8, 105, 9660, 3),
    (1128, 8, 161, 22701, 2),
    (2304, 8, 329, 94752, 1),
    (81, 9, 10, 90, 28),
    (225, 9, 28, 700, 14),
    (441, 9, 55, 2695, 8),
    (513, 9, 64, 3648, 7),
    (945, 9, 118, 12390, 4),
    (1953, 9, 244, 52948, 2),
    (3969, 9, 496, 218736, 1),
]


def test_criterion_6_reference_table():
    got = [(row.v, row.k, row.r, row.b, row.u) for row in screen_parameters(3, 9)]
    assert got == EXPECTED_SCREEN_ROWS
    _line(6, f"screener reproduces all {len(got)} reference rows, no extras")


def test_criterion_7_round_trips():
    fixtures = [
        ("example933", example_9_3_3()),
        ("affine2", affine_polyphase(2)),
        ("affine3", affine_polyphase(3)),
        ("affine4", affine_polyphase(4)),
        ("brouwer2", brouwer_polyphase(2)),
        ("brouwer3", brouwer_polyphase(3)),
        ("simplex4", simplex_phased(4)),
    ]
    for name, m in fixtures:
        z = gq_from_polyphase(m)
        back = polyphase_from_gq(z, m.group)
        assert back == m, name
    # p = 2: simplex phases under the sign character
    m = simplex_phased(6)
    gamma = characters_of(m.group)[1]
    assert phased_to_polyphase(m.evaluate(gamma), 2) == m
    # p = 3: faithful cube-root character recovers the exponents
    for m in (example_9_3_3(), affine_polyphase(3), brouwer_polyphase(2)):
        gamma = characters_of(m.group)[1]
        assert phased_to_polyphase(m.evaluate(gamma), 3) == m
    _line(7, "GQ and phased round trips are exact on all fixtures")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(20260817)
    fixtures = [
        example_9_3_3(),
        affine_polyphase(2),
        affine_polyphase(3),
        affine_polyphase(4),
        brouwer_polyphase(2),
        brouwer_polyphase(3),
        simplex_phased(5),
    ]
    agreements = 0
    disagreements = []
    for trial in range(200):
        m = fixtures[trial % len(fixtures)]
        i = int(rng.integers(m.rows))
        j = int(rng.integers(m.cols))
        g = tuple(int(rng.integers(q)) for q in m.group.factors)
        if m.support[i, j] and rng.integers(2):
            mutated = m.replaced(i, j, None)
        else:
            mutated = m.replaced(i, j, g)
        comb = verify_polyphase_combinatorial(Design(mutated)).passed
        alg = verify_polyphase_algebraic(Design(mutated)).passed
        if comb == alg:
            agreements += 1
        else:
            disagreements.append((trial, i, j, g, comb, alg))
    assert agreements == 200, disagreements
    _line(8, "combinatorial and algebraic verdicts agree on 200/200 mutations")


def test_criterion_9_geometry_counts():
    for q in (2, 3):
        geom = brouwer_geometry(q)
        assert len(geom.vertices) == (q * q + 1) * (q ** 3 + 1)
        assert len(geom.ovoid) == q ** 3 + 1
        assert len(geom.blocks) == (q + 1) * (q ** 3 + 1)
        for vertex in geom.vertices:
            assert sum(vertex in blk for blk in geom.blocks) == q + 1
    _line(9, "point, ovoid, and block counts with q+1 blocks through each vertex")
