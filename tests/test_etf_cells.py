"""The numeric ETF check reads a PolyphaseMatrix at a character.

verify_etf_numeric evaluates the matrix's Gram array at the character
and squares it once, takes the rank from the frame potential and runs an
SVD of Phi's cells only when tightness fails; verify reads the same
lines off the one square per character that it shares with drackn.
Every report here is held against the dense route in reference_etf: the
same check names, pass/fail, witnesses and info texts, with residuals
within 1e-10.
"""

import json
import tracemalloc

import numpy as np
import pytest

from etfforge import cli
from etfforge.construct import brouwer_polyphase
from etfforge.groupring import AbelianGroup, characters_of
from etfforge.polymat import PolyphaseMatrix, format_polyphase
from etfforge.verify import RANK_REL_TOL, Design, verify_etf_numeric

from reference_etf import dense_etf_numeric
from reference_ring import dense_codes, from_codes
from test_conjugate_pairs import GOLDEN, MUTANTS, _character, _cli_reports, _golden, _mutant


def _assert_matches_dense(got, phi):
    want = dense_etf_numeric(phi)
    assert got.subject == want.subject
    _assert_same_lines(got.as_dict()["checks"], want.as_dict()["checks"])


def _assert_same_lines(got, want):
    assert [(c["name"], c["passed"], c["witness"], c["info"]) for c in got] == [
        (c["name"], c["passed"], c["witness"], c["info"]) for c in want]
    for g, w in zip(got, want):
        if w["residual"] is None:
            assert g["residual"] is None, g["name"]
        else:
            assert abs(g["residual"] - w["residual"]) <= 1e-10, g["name"]


def _row0_dropped(m):
    """m less its first cell: row 0 then reads k - 1, so the BIBD fails."""
    codes = dense_codes(m).copy()
    codes[0, m.jj[0]] = m.group.order
    return from_codes(m.group, codes)


def _every_nontrivial(m):
    for gamma in characters_of(m.group)[1:]:
        yield gamma, verify_etf_numeric(m, gamma=gamma)


@pytest.mark.parametrize("name", GOLDEN)
def test_cells_route_matches_dense_on_golden_designs(name):
    m = _golden(name)
    for gamma, rep in _every_nontrivial(m):
        assert rep.passed, (name, gamma)
        _assert_matches_dense(rep, m.evaluate(gamma))


@pytest.mark.parametrize("mutant", MUTANTS)
def test_cells_route_matches_dense_on_mutants(mutant):
    name, kind, seed = MUTANTS[mutant]
    m = _mutant(_golden(name), kind, seed)
    failing = 0
    for gamma, rep in _every_nontrivial(m):
        failing += not rep.passed
        _assert_matches_dense(rep, m.evaluate(gamma))
    assert failing > 0


@pytest.mark.parametrize("seed", range(4))
def test_cells_route_matches_dense_on_random_sparse_phases(seed):
    # rows of unequal weight and one all-zero row, as codes over Z6 and as
    # dense complex and +-1 matrices; row 0 is full, so no column is zero
    rng = np.random.default_rng(seed)
    b, n = 14, 9
    density = rng.uniform(0.2, 0.9, size=(b, 1))
    codes = np.where(rng.random((b, n)) < density, rng.integers(0, 6, size=(b, n)), 6)
    codes[0], codes[3] = rng.integers(0, 6, size=n), 6
    m = from_codes(AbelianGroup([6]), codes)
    for gamma, rep in _every_nontrivial(m):
        _assert_matches_dense(rep, m.evaluate(gamma))
    support = codes != 6
    for phi in (np.exp(2j * np.pi * rng.random((b, n))) * support,
                rng.choice((-1.0, 1.0), size=(b, n)) * support):
        rep = verify_etf_numeric(phi)
        assert not rep.passed
        _assert_matches_dense(rep, phi)


def test_cli_etf_evaluates_nothing_and_runs_no_svd(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cell route must not call this")

    path = tmp_path / "brouwer5.polyphase"
    path.write_text(format_polyphase(brouwer_polyphase(5)))
    monkeypatch.setattr(PolyphaseMatrix, "evaluate", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    out = tmp_path / "report.json"
    assert cli.main(["verify", str(path), "--checks", "etf", "--json", str(out)]) == 0
    reports = json.loads(out.read_text())["reports"]
    assert len(reports) == 5 and all(r["passed"] for r in reports)


def test_etf_peak_memory_below_the_dense_evaluation():
    # one complex character at brouwer q=9 (5913 x 730 over Z10)
    m = brouwer_polyphase(9)
    gamma = characters_of(m.group)[1]
    assert not gamma.is_real()
    tracemalloc.start()
    try:
        rep = verify_etf_numeric(m, gamma=gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < m.rows * m.cols * 16, peak


def test_failing_etf_peak_memory_below_the_dense_evaluation():
    # a one-exponent mutant of brouwer q=9 fails tightness, so its rank
    # comes from the singular values: a=89.8632, d=658 by the dense SVD of
    # Phi, whose b x v complex cells alone take the bound's bytes
    m = _mutant(brouwer_polyphase(9), "exponent", 1)
    gamma = characters_of(m.group)[1]
    tracemalloc.start()
    try:
        rep = verify_etf_numeric(m, gamma=gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tight = next(c for c in rep.checks if c.name == "tightness")
    assert not tight.passed and tight.info == "a=89.8632, d=658"
    assert peak < m.rows * m.cols * 16, peak


def _svd_rank(phi):
    sv = np.linalg.svd(phi, compute_uv=False)
    return int(np.sum(sv > RANK_REL_TOL * sv[0]))


def test_failing_tightness_reports_the_svd_rank(monkeypatch):
    # a generic frame and the mutants at every nontrivial character: the
    # SVD runs exactly when tightness fails, and then sets d.  The first QR
    # span fills a buffer of n + n/2 rows, each later one the n/2 below R:
    # one span for the generic 6 x 9 and affine q=4's 20 x 16, three for
    # brouwer q=3's 63 x 28 (42 + 14 + 7 rows), seven for brouwer q=5's
    # 525 x 126 (189 + 5 x 63 + 21 rows)
    rng = np.random.default_rng(3)
    generic = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
    cases = [(lambda: verify_etf_numeric(generic), _svd_rank(generic))]
    for name, kind, seed in MUTANTS.values():
        m = _mutant(_golden(name), kind, seed)
        cases += [(lambda m=m, g=g: verify_etf_numeric(m, gamma=g), _svd_rank(m.evaluate(g)))
                  for g in characters_of(m.group)[1:]]
    calls, spans, span_counts = [], [], set()
    svd, qr = np.linalg.svd, np.linalg.qr
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: spans.append(1) or qr(*a, **k))
    failing = 0
    for check, rank in cases:
        calls.clear()
        spans.clear()
        rep = check()
        tight = next(c for c in rep.checks if c.name == "tightness")
        assert len(calls) == (not tight.passed)
        if not tight.passed:
            failing += 1
            span_counts.add(len(spans))
            assert rep.numerics.d == rank and tight.info.endswith(f"d={rank}")
    assert failing >= 5 and span_counts == {1, 3, 7}


def test_polyphase_matrix_needs_a_character_of_its_group():
    m = brouwer_polyphase(2)  # over Z3
    with pytest.raises(ValueError, match="character of its group"):
        verify_etf_numeric(m)
    with pytest.raises(ValueError, match="character of its group"):
        verify_etf_numeric(m, gamma=characters_of(AbelianGroup([4]))[1])


SHARED_STAGE = [*GOLDEN, *MUTANTS, "affine4-row0-dropped"]


@pytest.mark.parametrize("checks", ["etf", "etf,drackn"])
@pytest.mark.parametrize("name", SHARED_STAGE)
def test_cli_etf_from_the_shared_stage_matches_both_routes(name, checks, tmp_path):
    # verify reads each etf report off the stage drackn shares, A less its
    # shift at the character; it must agree with the library's cell route
    # and with the dense oracle, whether or not drackn runs
    if name in GOLDEN:
        m = _golden(name)
    elif name in MUTANTS:
        m = _mutant(_golden(MUTANTS[name][0]), *MUTANTS[name][1:])
    else:
        # k = 3 over v = 16 makes r = 15/2, so etf reads the shift-0 Gram
        m = _row0_dropped(_golden("affine4"))
        assert Design(m).gram[1] == 0
    reports = _cli_reports(tmp_path, m, "--checks", checks)
    etf = [r for r in reports if r["subject"].startswith("numeric ETF")]
    assert len(etf) == m.group.order - 1
    for rep in etf:
        head, at = rep["subject"].split(" at character ")
        gamma = _character(m.group, at)
        for want in (verify_etf_numeric(m, gamma=gamma), dense_etf_numeric(m.evaluate(gamma))):
            assert head == want.subject
            _assert_same_lines(rep["checks"], want.as_dict()["checks"])
    drackn = [r["subject"] for r in reports if r["subject"].endswith("DRACKN")]
    assert len(drackn) == ("drackn" in checks)
    if name == "affine4-row0-dropped" and drackn:
        assert drackn == ["DRACKN"] and not reports[-1]["passed"]
