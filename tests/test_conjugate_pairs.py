"""The numeric checks run once per conjugate pair of characters, and in
float64 at a real character.

Phi evaluated at the conjugate of a character gamma is Phi at gamma
conjugated entrywise, and so is A = Phi* Phi - rI.  Every quantity that
`etf` and the DRACKN signatures report is unchanged by that conjugation,
so `verify` checks the first character of each selected pair and repeats
its lines for the second.  A real character (every value +-1) is
evaluated into float64 and checked in real arithmetic.  Each report here
is compared with the direct computation in complex128 at the character
itself: names, pass/fail, witnesses and info must be identical, and
residuals agree to rounding.
"""

import ast
import json
import math

import numpy as np
import pytest

from etfforge import cli
from etfforge import verify as verify_module
from etfforge.construct import affine_polyphase, brouwer_polyphase, example_9_3_3, simplex_phased
from etfforge.groupring import (AbelianGroup, Character, characters_of, first_of_conjugates,
                                select_characters)
from etfforge.polymat import format_polyphase
from etfforge.verify import Design, verify_etf_numeric
from reference_ring import dense_codes, from_codes

GOLDEN = {
    **{f"simplex{v}": (simplex_phased, v) for v in range(3, 8)},
    "example933": (lambda _: example_9_3_3(), None),
    **{f"affine{q}": (affine_polyphase, q) for q in (2, 3, 4, 5, 7, 8, 9)},
    **{f"brouwer{q}": (brouwer_polyphase, q) for q in (2, 3, 4, 5, 7)},
}


def _golden(name):
    build, arg = GOLDEN[name]
    return build(arg)


def _mutant(m, kind, seed):
    """One seeded one-cell edit: an exponent changed (the BIBD holds), a
    cell moved within its row, or a cell dropped (both break the BIBD)."""
    rng = np.random.default_rng(seed)
    f = m.group.order
    t = int(rng.integers(len(m.e)))
    i, j = int(m.ii[t]), int(m.jj[t])
    codes = dense_codes(m).copy()
    if kind == "exponent":
        codes[i, j] = (codes[i, j] + rng.integers(1, f)) % f
    elif kind == "move":
        zeros = np.flatnonzero(codes[i] == f)
        codes[i, zeros[rng.integers(len(zeros))]] = codes[i, j]
        codes[i, j] = f
    else:
        codes[i, j] = f
    return from_codes(m.group, codes)


MUTANTS = {
    "brouwer5-exponent": ("brouwer5", "exponent", 1),
    "brouwer3-exponent": ("brouwer3", "exponent", 2),
    "brouwer3-drop": ("brouwer3", "drop", 3),
    "affine4-move": ("affine4", "move", 4),
}


def _cli_reports(tmp_path, m, *argv):
    path = tmp_path / "design.polyphase"
    path.write_text(format_polyphase(m))
    out = tmp_path / "report.json"
    code = cli.main(["verify", str(path), "--json", str(out), *argv])
    assert code in (0, 1)
    return json.loads(out.read_text())["reports"]


def _direct_etf(m, gamma):
    """The etf report at gamma itself, in complex128 whatever gamma."""
    return verify_etf_numeric(m.evaluate(gamma).astype(np.complex128)).as_dict()["checks"]


def _direct_signature(a, gamma, delta):
    """The signature residual of the (n, f, n) A at gamma itself, in complex128."""
    n = len(a)
    sig = np.tensordot(a, gamma.values, axes=([1], [0]))
    off = ~np.eye(n, dtype=bool)
    return max(
        float(np.max(np.abs(sig - sig.conj().T))),
        float(np.max(np.abs(np.diagonal(sig)))),
        float(np.max(np.abs(np.abs(sig[off]) - 1))),
        float(np.max(np.abs(sig @ sig - delta * sig - (n - 1) * np.eye(n)))),
    )


def _assert_same_checks(got, want):
    assert [(c["name"], c["passed"], c["witness"], c["info"]) for c in got] == [
        (c["name"], c["passed"], c["witness"], c["info"]) for c in want]
    for g, w in zip(got, want):
        if w["residual"] is None:
            assert g["residual"] is None, g["name"]
        else:
            assert g["residual"] == pytest.approx(w["residual"], rel=1e-9, abs=1e-12), g["name"]


def _character(group, subject):
    """The character named at the end of a report subject or check name."""
    return Character(group, ast.literal_eval(subject[subject.index("("):]))


def _assert_matches_direct(m, reports):
    """Every etf report and signature line against its direct computation;
    returns the number of failing reports, of etf reports and of DRACKN
    reports."""
    etf = [r for r in reports if r["subject"].startswith("numeric ETF")]
    for rep in etf:
        gamma = _character(m.group, rep["subject"].split(" at character ")[1])
        _assert_same_checks(rep["checks"], _direct_etf(m, gamma))
    drackn = [r for r in reports if r["subject"].endswith("-DRACKN")]
    if drackn:
        a, params = Design(m).drackn
        sigs = [c for c in drackn[0]["checks"] if c["name"].startswith("signature@")]
        assert [c["name"] for c in sigs] == [
            f"signature@{g.exponents}" for g in characters_of(m.group)[1:]]
        for c in sigs:
            res = _direct_signature(a, _character(m.group, c["name"]), params.delta)
            assert c["passed"] == (res <= 1e-9), c["name"]
            assert c["residual"] == pytest.approx(res, rel=1e-9, abs=1e-12), c["name"]
    return sum(not r["passed"] for r in etf + drackn), len(etf), len(drackn)


@pytest.mark.parametrize("name", GOLDEN)
def test_paired_and_real_reports_match_direct_on_golden_designs(name, tmp_path):
    m = _golden(name)
    reports = _cli_reports(tmp_path, m, "--checks", "etf,drackn")
    failing, n_etf, n_drackn = _assert_matches_direct(m, reports)
    assert failing == 0 and n_etf == m.group.order - 1 and n_drackn == 1
    subjects = [r["subject"] for r in reports[:n_etf]]
    assert subjects == [f"numeric ETF ({m.rows}x{m.cols}) at character {g.exponents}"
                        for g in characters_of(m.group)[1:]]


@pytest.mark.parametrize("mutant", MUTANTS)
def test_paired_and_real_reports_match_direct_on_mutants(mutant, tmp_path):
    name, kind, seed = MUTANTS[mutant]
    m = _mutant(_golden(name), kind, seed)
    failing, n_etf, n_drackn = _assert_matches_direct(m, _cli_reports(tmp_path, m))
    assert failing > 0 and n_etf == m.group.order - 1
    # an exponent edit keeps the BIBD, so the signatures run, and fail
    assert n_drackn == (kind == "exponent")


@pytest.mark.parametrize("selector", ["real", "index:1", "index:3", "index:5"])
def test_single_characters_match_direct(selector, tmp_path):
    # under one character nothing pairs: index:5 over Z6 is the conjugate
    # of index:1, and is checked itself
    for m in (brouwer_polyphase(5), _mutant(brouwer_polyphase(5), "exponent", 1)):
        reports = _cli_reports(tmp_path, m, "--checks", "etf", "--character", selector)
        assert len(reports) == 1
        _assert_matches_direct(m, reports)
        gamma = _character(m.group, reports[0]["subject"].split(" at character ")[1])
        assert gamma == select_characters(m.group, selector)[0]


def _recorded_squares(monkeypatch):
    """The (exponents, dtype) of each square_at call, as it is made."""
    square, seen = verify_module.square_at, []

    def recording_square(a, gamma):
        s, p = square(a, gamma)
        seen.append((gamma.exponents, s.dtype))
        return s, p

    monkeypatch.setattr(verify_module, "square_at", recording_square)
    return seen


def test_verify_checks_each_conjugate_pair_once(tmp_path, monkeypatch):
    # brouwer q=5 is over Z6: characters 1 and 5, 2 and 4 pair, and 3 is real
    # on a design that passes bibd and fails algebraic, one stage forms S S
    # once per first of a pair: the DRACKN reads every first, the trivial
    # character included, and etf its selected ones
    m = _mutant(brouwer_polyphase(5), *MUTANTS["brouwer5-exponent"][1:])
    seen = _recorded_squares(monkeypatch)
    reports = _cli_reports(tmp_path, m, "--checks", "etf,drackn")
    assert len(reports) == 6 and not all(r["passed"] for r in reports)
    assert seen == [((0,), np.float64), ((1,), np.complex128), ((2,), np.complex128),
                    ((3,), np.float64)]
    seen.clear()
    reports = _cli_reports(tmp_path, m, "--checks", "etf")
    assert len(reports) == 5 and not all(r["passed"] for r in reports)
    assert seen == [((1,), np.complex128), ((2,), np.complex128), ((3,), np.float64)]
    seen.clear()
    _cli_reports(tmp_path, m, "--checks", "etf", "--character", "index:5")
    assert seen == [((1,), np.complex128)]


@pytest.mark.parametrize("checks,selector,at", [
    (None, None, ((3,), np.float64)),
    ("etf,drackn", None, ((3,), np.float64)),
    ("drackn", None, ((3,), np.float64)),
    ("etf", "index:5", ((1,), np.complex128)),
])
def test_passing_design_forms_one_cross_check_square(checks, selector, at, tmp_path, monkeypatch):
    # once bibd and algebraic pass, every nontrivial etf and drackn line is
    # exact; one square cross-checks them, at a real first if one is
    # selected, and only its lines carry a float residual
    seen = _recorded_squares(monkeypatch)
    argv = [*(("--checks", checks) if checks else ()), *(("--character", selector) if selector else ())]
    reports = _cli_reports(tmp_path, brouwer_polyphase(5), *argv)
    assert seen == [at] and all(r["passed"] for r in reports)
    residuals = {(r["subject"], c["name"]): c["residual"] for r in reports for c in r["checks"]
                 if c["residual"] is not None and (r["subject"].startswith("numeric ETF")
                                                   or r["subject"].endswith("-DRACKN"))}
    assert residuals and all(isinstance(v, float) for v in residuals.values())
    computed = [str(at[0]), str((-at[0][0] % 6,))]
    assert all(v == 0.0 for (subject, name), v in residuals.items()
               if not any(x in subject or x in name for x in computed))


def test_cross_check_contradiction_fails_verify(tmp_path, monkeypatch, capsys):
    # a square that disagrees with the exact bibd and algebraic passes is
    # named as a contradiction, and verify fails
    square = verify_module.square_at

    def perturbed(a, gamma):
        s, _ = square(a, gamma)
        s[0, 1] += 0.5
        return s, s @ s

    monkeypatch.setattr(verify_module, "square_at", perturbed)
    path = tmp_path / "design.polyphase"
    path.write_text(format_polyphase(brouwer_polyphase(5)))
    for checks in ("etf", "drackn", "etf,drackn"):
        code = cli.main(["verify", str(path), "--checks", f"bibd,algebraic,{checks}"])
        out = capsys.readouterr().out
        assert code == 1 and "PASS triple-identity" in out, out
        assert out.count("FAIL cross-check witness=() [the square at (3,) fails, though "
                         "bibd and algebraic pass]") == 1, out


@pytest.mark.parametrize("factors", [(6,), (2, 4), (3, 3), (2, 2, 2), (4, 5)], ids=str)
def test_first_of_conjugates(factors):
    group = AbelianGroup(factors)
    chars = characters_of(group)
    firsts = first_of_conjugates(chars)
    for i, first in enumerate(firsts):
        assert first == min(i, group.neg_index[i])
        conj = tuple(-e % q for e, q in zip(chars[i].exponents, factors))
        assert chars[first].exponents in (chars[i].exponents, conj)
        assert np.allclose(chars[group.neg_index[i]].values, chars[i].values.conj())
    # a selection: positions are within the list, and a lone character pairs with nothing
    assert first_of_conjugates(chars[1:]) == [p - 1 for p in firsts[1:]]
    assert first_of_conjugates([chars[-1]]) == [0]
    assert first_of_conjugates([chars[-1], chars[group.neg_index[-1]]])[1] == 0


def test_real_characters_evaluate_into_float64():
    for m in (brouwer_polyphase(3), affine_polyphase(4), example_9_3_3()):
        for gamma in characters_of(m.group):
            phi = m.evaluate(gamma)
            full = np.append(gamma.values, 0)[dense_codes(m)]
            if gamma.is_real():
                assert phi.dtype == np.float64 and set(np.unique(phi)) <= {-1.0, 0.0, 1.0}
                assert np.array_equal(phi, full.real) and not full.imag.any()
            else:
                assert phi.dtype == np.complex128 and np.array_equal(phi, full)


def test_conjugate_residuals_agree_on_random_phases():
    # a generic complex frame and its conjugate report the same lines, and
    # a random +-1 frame the same in float64 as in complex128
    rng = np.random.default_rng(15)
    for shape in ((6, 9), (9, 9), (20, 12)):
        phi = np.exp(2j * math.pi * rng.random(shape)) * (rng.random(shape) < 0.7)
        _assert_same_checks(verify_etf_numeric(phi.conj()).as_dict()["checks"],
                            verify_etf_numeric(phi).as_dict()["checks"])
        signs = rng.choice((-1.0, 1.0), size=shape)
        _assert_same_checks(verify_etf_numeric(signs).as_dict()["checks"],
                            verify_etf_numeric(signs.astype(np.complex128)).as_dict()["checks"])
