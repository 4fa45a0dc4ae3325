import json
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from etfforge import cli, construct, polymat
from etfforge.cli import main
from etfforge.polymat import PolyphaseMatrix, format_polyphase, parse_incidence, parse_polyphase
from reference_ring import entry, replaced


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_affine_q3(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "--family", "affine", "--q", "3", "-o", str(tmp_path))
    assert code == 0
    matrix = tmp_path / "affine_q3.polyphase"
    manifest = tmp_path / "affine_q3.json"
    assert str(matrix) in out and str(manifest) in out
    header = matrix.read_text().splitlines()[0]
    assert header == "POLYPHASE rows=12 cols=9 group=Z3"
    man = json.loads(manifest.read_text())
    assert man["etf"] == {"n": 9, "d": 6, "welch": 0.25}
    assert man["bibd"]["r"] == 4 and man["gq"] == {"s": 2, "t": 4, "blocks": 45, "vertices": 27}


def test_construct_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "construct", "--family", "brouwer", "--q", "2", "-o", str(a))
    run(capsys, "construct", "--family", "brouwer", "--q", "2", "-o", str(b))
    for name in ("brouwer_q2.polyphase", "brouwer_q2.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_failed_stream_leaves_the_old_file_and_no_tmp(tmp_path, capsys, monkeypatch):
    def chunks(m):
        yield b"POLYPHASE "
        raise OSError("disk full")

    target = tmp_path / "brouwer_q2.polyphase"
    target.write_bytes(b"old bytes\n")
    monkeypatch.setattr(cli, "polyphase_chunks", chunks)
    code, _, err = run(capsys, "construct", "--family", "brouwer", "--q", "2", "-o", str(tmp_path))
    assert code == 2 and "disk full" in err
    assert target.read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["brouwer_q2.polyphase"]


def test_construct_brouwer_q2_manifest(tmp_path, capsys):
    run(capsys, "construct", "--family", "brouwer", "--q", "2", "-o", str(tmp_path))
    man = json.loads((tmp_path / "brouwer_q2.json").read_text())
    assert man["group"] == "Z3" and (man["rows"], man["cols"]) == (12, 9)
    assert man["drackn"] == {"n": 9, "f": 3, "c": 3, "delta": -2}


def test_construct_other_families(tmp_path, capsys):
    code, _, _ = run(capsys, "construct", "--family", "simplex", "--v", "5", "-o", str(tmp_path))
    assert code == 0
    m = parse_polyphase((tmp_path / "simplex_v5.polyphase").read_text())
    assert (m.rows, m.cols, m.group.name()) == (10, 5, "Z2")
    code, _, _ = run(capsys, "construct", "--family", "example933", "-o", str(tmp_path))
    assert code == 0
    assert (tmp_path / "example933.polyphase").exists()


def test_construct_flag_validation(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "--family", "simplex", "-o", str(tmp_path))
    assert code == 2 and "--v" in err
    code, _, err = run(capsys, "construct", "--family", "affine", "-o", str(tmp_path))
    assert code == 2 and "--q" in err
    code, _, err = run(capsys, "construct", "--family", "affine", "--q", "6", "-o", str(tmp_path))
    assert code == 2 and "6 is not a prime power" in err


@pytest.mark.parametrize(
    "flags,unused",
    [
        (("--family", "example933", "--q", "5"), "--q"),
        (("--family", "simplex", "--v", "5", "--q", "3"), "--q"),
        (("--family", "affine", "--q", "3", "--v", "4"), "--v"),
        (("--family", "brouwer", "--q", "2", "--v", "4"), "--v"),
    ],
)
def test_construct_refuses_flags_its_family_ignores(tmp_path, capsys, flags, unused):
    code, out, err = run(capsys, "construct", *flags, "-o", str(tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: --family {flags[1]} takes no {unused}\n"
    assert not any(tmp_path.iterdir())


def test_construct_brouwer_up_to_the_size_guard(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "--family", "brouwer", "--q", "8", "-o", str(tmp_path))
    assert (code, err) == (0, "") and (tmp_path / "brouwer_q8.polyphase").exists()
    code, out, err = run(capsys, "construct", "--family", "brouwer", "--q", "11",
                         "-o", str(tmp_path / "q11"))
    assert (code, out, err) == (2, "", "error: q = 11 exceeds the size guard 9\n")
    assert not (tmp_path / "q11").exists()


def test_construct_rejects_field_over_cap_before_allocating(tmp_path, capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "construct", "--family", "affine", "--q", "2048", "-o", str(tmp_path))
    assert code == 2 and "field order 2048 exceeds cap 1024" in err
    assert time.perf_counter() - start < 0.5
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "family,shape",
    [
        (("--family", "affine", "--q", "1024"), "1049600x1048576"),
        (("--family", "simplex", "--v", "100000"), "4999950000x100000"),
    ],
)
def test_construct_refuses_oversized_matrix_before_allocating(tmp_path, capsys, family, shape):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "construct", *family, "-o", str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {shape} matrix needs ") and err.count("\n") == 1
    assert err.endswith(f"the cap is {polymat.MAX_DENSE_CELLS}\n")
    assert peak < 2**20
    assert not any(tmp_path.iterdir())


@pytest.fixture()
def affine3_file(tmp_path, capsys):
    run(capsys, "construct", "--family", "affine", "--q", "3", "-o", str(tmp_path))
    capsys.readouterr()
    return tmp_path / "affine_q3.polyphase"


def test_verify_passes_and_writes_json(affine3_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", str(affine3_file), "--json", str(report))
    assert code == 0
    assert "overall: PASS" in out
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    subjects = [r["subject"] for r in payload["reports"]]
    assert any("combinatorial" in s for s in subjects)
    assert any("DRACKN" in s for s in subjects)
    assert any(s.startswith("GQ(2,4)") for s in subjects)
    assert any(s.startswith("SRG(27,10,1,5)") for s in subjects)


def test_verify_json_is_deterministic(affine3_file, tmp_path, capsys):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run(capsys, "verify", str(affine3_file), "--json", str(r1))
    run(capsys, "verify", str(affine3_file), "--json", str(r2))
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_mutated_file_fails_with_witness(affine3_file, tmp_path, capsys):
    m = parse_polyphase(affine3_file.read_text())
    i = int(m.jj[0])
    old = entry(m, 0, i)
    bad = replaced(m, 0, i, tuple((x + 1) % q for x, q in zip(old, m.group.factors)))
    target = tmp_path / "mutated.polyphase"
    target.write_text(format_polyphase(bad))
    code, out, _ = run(capsys, "verify", str(target))
    assert code == 1
    assert "overall: FAIL" in out and "witness=" in out


def test_verify_unequal_supports_fails_with_reports(tmp_path, capsys):
    # the GQ lift is defined for any support; the checks say what is wrong
    target = tmp_path / "unequal.polyphase"
    target.write_text("POLYPHASE rows=3 cols=4 group=Z2\n0 0 . .\n0 . 0 .\n. 0 0 0\n")
    code, out, err = run(capsys, "verify", str(target))
    assert code == 1 and err == ""
    assert "FAIL BIBD(v=4, k=2, lambda=1)" in out and "FAIL row-sums witness=(2,)" in out
    assert "FAIL row-sums witness=(2,) [got 3, want 2]\n" in out
    assert "FAIL col-sums witness=(0,) [got 2, want 3]\n" in out
    assert "FAIL pair-balance witness=(0, 0) [got 2, want 3]\n" in out
    assert "FAIL GQ(1,3) axioms" in out and "FAIL dimensions witness=(10, 8)" in out
    assert "FAIL SRG of GQ(1,3) (GQ axioms failed)" in out
    assert out.rstrip().endswith("overall: FAIL")


def test_verify_rejects_group_over_cap_before_allocating(tmp_path, capsys):
    target = tmp_path / "big.polyphase"
    target.write_text("POLYPHASE rows=1 cols=2 group=Z1500\n0 1\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "verify", str(target))
    assert code == 2 and "group order 1500 exceeds the cap 1024" in err
    assert time.perf_counter() - start < 0.5


def test_verify_runs_gq_axioms_once(tmp_path, capsys, monkeypatch):
    calls = []
    checked = cli.V.verify_gq_axioms

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return checked(*args, **kwargs)

    monkeypatch.setattr(cli.V, "verify_gq_axioms", counting)
    run(capsys, "construct", "--family", "brouwer", "--q", "2", "-o", str(tmp_path))
    path = str(tmp_path / "brouwer_q2.polyphase")
    code, out, _ = run(capsys, "verify", path)
    assert code == 0 and "PASS GQ(2,4) axioms" in out and "PASS SRG(27,10,1,5)" in out
    assert "spread" in out.split("SRG(27,10,1,5)")[0] and "spread" not in out.split("SRG")[1]
    code, out, _ = run(capsys, "verify", path, "--checks", "srg")
    assert code == 0 and "GQ(2,4) axioms" not in out and "spread" not in out
    assert len(calls) == 2


def test_verify_derives_each_object_once(tmp_path, capsys, monkeypatch):
    run(capsys, "construct", "--family", "brouwer", "--q", "2", "-o", str(tmp_path))
    calls, point_counts = {}, []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if name == "_walk_counts":
                point_counts.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("verify_bibd", "_walk_counts", "gq_cells"):
        counting(cli.V, name)
    counting(PolyphaseMatrix, "gram")
    # no dense lift: neither the dense GQ lift nor any zeroed 0/1 array
    counting(construct, "gq_from_polyphase")
    counting(cli, "gq_from_polyphase")
    counting(construct, "zero_one_array")
    counting(polymat, "zero_one_array")
    designs = []
    init = cli.V.Design.__init__

    def recording(self, m):
        designs.append(self)
        init(self, m)

    monkeypatch.setattr(cli.V.Design, "__init__", recording)
    code, out, _ = run(capsys, "verify", str(tmp_path / "brouwer_q2.polyphase"))
    assert code == 0 and "PASS (9,3,3)-DRACKN" in out and "PASS SRG(27,10,1,5)" in out
    assert calls == {"verify_bibd": 1, "gram": 1, "_walk_counts": 3, "gq_cells": 1}
    # walks ending at the design's 9 points once (the BIBD pair balance),
    # and at the 27 points of its GQ lift twice, for the collinearity and
    # the triple product, which gq and srg share
    assert sorted(point_counts) == [9, 27, 27]
    # A = Phi* Phi - rI is dropped from the Design once drackn has read it
    assert len(designs) == 1 and "drackn" not in vars(designs[0])


def test_exact_routes_are_independent_of_each_other(affine3_file, capsys, monkeypatch):
    # combinatorial counts from the exponents alone and never reads the
    # Gram; algebraic does group-ring algebra on it, built once per verify
    builds, original = [], PolyphaseMatrix.gram

    def gram(self):
        builds.append(self)
        return original(self)

    monkeypatch.setattr(PolyphaseMatrix, "gram", gram)
    code, out, _ = run(capsys, "verify", str(affine3_file), "--checks", "bibd,combinatorial")
    assert code == 0 and "PASS triple-products" in out and builds == []
    code, out, _ = run(capsys, "verify", str(affine3_file), "--checks", "bibd,combinatorial,algebraic")
    assert code == 0 and "PASS triple-products" in out and "PASS triple-identity" in out
    assert len(builds) == 1


def test_algebraic_and_drackn_read_one_gram_buffer(affine3_file, capsys, monkeypatch):
    # A = Phi* Phi - rI is built once: algebraic reads the Design's A, and
    # the character pass that makes the DRACKN report receives that same
    # memory, not a copy
    built, read, received = [], [], []
    gram, drackn = PolyphaseMatrix.gram, cli.V.character_reports
    algebraic = cli.V.verify_polyphase_algebraic

    def building(self):
        built.append(gram(self))
        return built[-1]

    def reading(d):
        rep = algebraic(d)
        read.append(vars(d)["drackn"][0])
        return rep

    def receiving(a, *args, **kwargs):
        received.append(a)
        return drackn(a, *args, **kwargs)

    monkeypatch.setattr(PolyphaseMatrix, "gram", building)
    monkeypatch.setattr(cli.V, "verify_polyphase_algebraic", reading)
    monkeypatch.setattr(cli.V, "character_reports", receiving)
    code, out, _ = run(capsys, "verify", str(affine3_file), "--checks", "algebraic,drackn")
    assert code == 0 and "PASS triple-identity" in out and "PASS (9,3,3)-DRACKN" in out
    assert (len(built), len(read), len(received)) == (1, 1, 1)
    assert np.shares_memory(read[0], built[0]) and np.shares_memory(received[0], read[0])


def test_verify_drops_drackn_matrix_before_gq(tmp_path, capsys, monkeypatch):
    run(capsys, "construct", "--family", "brouwer", "--q", "2", "-o", str(tmp_path))
    refs, alive = [], []
    drackn, axioms = cli.V.character_reports, cli.V.verify_gq_axioms

    def recording_drackn(a, *args, **kwargs):
        refs.append(weakref.ref(a))
        return drackn(a, *args, **kwargs)

    def probing_axioms(*args, **kwargs):
        alive.extend(ref() is not None for ref in refs)
        return axioms(*args, **kwargs)

    monkeypatch.setattr(cli.V, "character_reports", recording_drackn)
    monkeypatch.setattr(cli.V, "verify_gq_axioms", probing_axioms)
    code, out, _ = run(capsys, "verify", str(tmp_path / "brouwer_q2.polyphase"))
    assert code == 0 and "PASS (9,3,3)-DRACKN" in out
    assert len(refs) == 1 and alive == [False]


def test_verify_empty_check_list_is_a_usage_error(affine3_file, capsys, monkeypatch):
    monkeypatch.setattr(polymat, "MAX_DENSE_CELLS", 100)
    for checks in ("", "bibd,"):
        code, out, err = run(capsys, "verify", str(affine3_file), "--checks", checks)
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown check ''; pick from bibd,")


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    # two calls share one parser, and an argparse usage error after a good
    # call still exits 2 with its usage text
    built = []

    class Counting(cli.argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=Counting))
    cli.build_parser.cache_clear()
    try:
        for _ in range(2):
            code, out, _ = run(capsys, "screen", "--kmin", "3", "--kmax", "3", "--csv")
            assert code == 0 and out
        assert built.count("etfforge") == 1 and len(built) == 5  # and four verbs
        with pytest.raises(SystemExit) as exc:
            main(["screen", "--kmin", "3"])
        assert exc.value.code == 2 and "--kmax" in capsys.readouterr().err
        assert len(built) == 5
    finally:
        cli.build_parser.cache_clear()


def test_verify_names_non_integer_thread_count(affine3_file, capsys, monkeypatch):
    monkeypatch.setenv("ETFFORGE_THREADS", "abc")
    code, out, err = run(capsys, "verify", str(affine3_file), "--checks", "etf")
    assert (code, out) == (2, "")
    assert err == "error: ETFFORGE_THREADS must be an integer, got 'abc'\n"


def _verify_text(tmp_path, capsys, text, *checks):
    target = tmp_path / "design.polyphase"
    target.write_text(text)
    return run(capsys, "verify", str(target), *checks)


def test_verify_reports_design_with_fractional_block_count(tmp_path, capsys):
    # v = 5, k = 3 give r = 2 and c = 1, but b = v r / k = 10/3 is no integer
    text = "POLYPHASE rows=2 cols=5 group=Z3\n0 0 0 . .\n. . 0 0 0\n"
    code, out, err = _verify_text(tmp_path, capsys, text)
    assert code == 1 and err == ""
    assert "SKIP drackn (needs a BIBD: col-sums fails)" in out and "FAIL GQ(2,2) axioms" in out
    assert out.rstrip().endswith("overall: FAIL")


def test_verify_skips_drackn_without_a_bibd(tmp_path, capsys, monkeypatch):
    # one row holding two cells parses as v = 2000, k = 2 over Z2, so
    # c = k(r-1)/f = 1998 is integral; but A is a DRACKN only with the
    # parameters of a BIBD, so drackn alone builds no Gram.  etf reads the
    # Gram whatever the BIBD, within the dense cap
    builds, original = [], PolyphaseMatrix.gram

    def gram(self):
        builds.append(self)
        return original(self)

    monkeypatch.setattr(PolyphaseMatrix, "gram", gram)
    row = " ".join(["0", "0"] + ["."] * 1998)
    code, out, err = _verify_text(tmp_path, capsys, f"POLYPHASE rows=1 cols=2000 group=Z2\n{row}\n",
                                  "--checks", "drackn")
    assert (code, err) == (1, "")
    reason = "needs a BIBD: col-sums fails"
    assert out == f"FAIL DRACKN\n  FAIL applicable witness=() [{reason}]\noverall: FAIL\n"
    assert builds == []
    # unnamed, it is a SKIP line; 20 columns keep the etf check small
    row = " ".join(["0", "0"] + ["."] * 18)
    code, out, err = _verify_text(tmp_path, capsys, f"POLYPHASE rows=1 cols=20 group=Z2\n{row}\n")
    assert (code, err) == (1, "")
    assert out.startswith(f"SKIP drackn ({reason})\n") and "DRACKN" not in out
    assert "numeric ETF (1x20)" in out and len(builds) == 1


def test_verify_refuses_the_gram_over_the_dense_cap_before_allocating(tmp_path, capsys,
                                                                     monkeypatch):
    # one full row parses as v = 1000 over Z1024: A and one square at a
    # character would take 1000 * 1024 * 1000 + 2 * 1000^2 cells, so
    # algebraic, etf and drackn do not apply, as gq and srg past the lift cap
    path = tmp_path / "wide.polyphase"
    path.write_text("POLYPHASE rows=1 cols=1000 group=Z1024\n" + " ".join(["0"] * 1000) + "\n")
    reason = (f"1000x1024x1000 Gram with its square needs 1026000000 cells;"
              f" the cap is {polymat.MAX_DENSE_CELLS}")
    skips = "".join(f"SKIP {name} ({reason})\n" for name in ("algebraic", "etf", "drackn"))
    named = f"FAIL ETF\n  FAIL applicable witness=() [{reason}]\noverall: FAIL\n"
    for checks in ((), ("--checks", "etf")):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", str(path), *checks)
        assert time.perf_counter() - start < 0.5
        assert (code, err) == (1, "")
        assert out == named if checks else out.startswith(skips) and "numeric ETF" not in out
    # traced past the parse, whose group Z1024 holds 8 MiB of add table
    parsed = cli._load_input(path)
    monkeypatch.setattr(cli, "_load_input", lambda _: parsed)
    for checks in ((), ("--checks", "etf")):
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "verify", str(path), *checks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < 2**20, peak


def test_verify_reports_block_size_one_and_zero_column(tmp_path, capsys):
    text = "POLYPHASE rows=2 cols=3 group=Z2\n0 . .\n. 0 .\n"
    code, out, err = _verify_text(tmp_path, capsys, text, "--checks", "bibd")
    assert code == 1 and err == ""
    assert "FAIL parameters witness=() [block size k = 1 must be >= 2]" in out
    code, out, err = _verify_text(tmp_path, capsys, text)
    assert code == 1 and err == ""
    assert "FAIL bibd:parameters witness=() [block size k = 1 must be >= 2]" in out
    assert "FAIL nonzero-columns witness=(2,)" in out


def test_verify_reports_design_with_v_not_above_k(tmp_path, capsys):
    code, out, err = _verify_text(tmp_path, capsys, "POLYPHASE rows=1 cols=3 group=Z3\n0 0 0\n")
    assert code == 1 and err == ""
    assert "FAIL parameters witness=() [need v > k, got v = 3, k = 3]" in out
    assert out.rstrip().endswith("overall: FAIL")


def test_verify_rejects_header_only_file(tmp_path, capsys):
    code, out, err = _verify_text(tmp_path, capsys, "POLYPHASE rows=0 cols=0 group=Z3\n")
    assert code == 2 and out == ""
    assert err == "error: need rows >= 1 and cols >= 1, got rows=0, cols=0\n"


def test_verify_rejects_header_wider_than_its_rows(tmp_path, capsys):
    # a header alone must not size an allocation: 10^12 columns, one cell
    t0 = time.perf_counter()
    code, out, err = _verify_text(tmp_path, capsys, "POLYPHASE rows=1 cols=1000000000000 group=Z3\n0\n")
    assert time.perf_counter() - t0 < 0.5
    assert code == 2 and out == ""
    assert err == "error: expected 1000000000000 entries per row, found 1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["design.polyphase"]


@pytest.mark.parametrize("blank", ["\n", "\r\n"])
def test_verify_polyphase_after_a_blank_line(tmp_path, capsys, blank):
    run(capsys, "construct", "--family", "example933", "-o", str(tmp_path))
    plain = tmp_path / "example933.polyphase"
    padded = tmp_path / "padded.polyphase"
    padded.write_bytes(blank.encode() + plain.read_bytes())
    want = run(capsys, "verify", str(plain))
    assert want[0] == 0
    assert run(capsys, "verify", str(padded)) == want


def test_verify_skips_gq_and_srg_over_the_lift_cap(tmp_path, capsys, monkeypatch):
    run(capsys, "construct", "--family", "brouwer", "--q", "2", "-o", str(tmp_path))
    path = str(tmp_path / "brouwer_q2.polyphase")
    _, rest, _ = run(capsys, "verify", path, "--checks", "bibd,combinatorial,algebraic,etf,drackn")
    # the lift is (9 + 12*3) x 9*3 and lists (9 + 12*3) * 3 cells; verify
    # caps them at 1000 // 16, and export --to gq caps its 45 * 27 cells at
    # 1000, which leaves A and its square, 9*3*9 + 2*9*9 cells, in bounds
    monkeypatch.setattr(polymat, "MAX_DENSE_CELLS", 1000)
    reason = "45x27 incidence lists 135 cells; the cap is 62"
    code, out, err = run(capsys, "verify", path)
    assert (code, err) == (0, "")
    assert out == f"SKIP gq ({reason})\nSKIP srg ({reason})\n" + rest
    code, out, err = run(capsys, "verify", path, "--checks", "gq,srg")
    assert (code, err) == (1, "")
    failed = f"FAIL {{}}\n  FAIL applicable witness=() [{reason}]\n"
    assert out == failed.format("GQ") + failed.format("SRG") + "overall: FAIL\n"
    reason = "45x27 incidence needs 1215 cells; the cap is 1000"
    code, _, err = run(capsys, "export", path, "--to", "gq", "-o", str(tmp_path / "gq.txt"))
    assert (code, err) == (2, f"error: {reason}\n")


def test_verify_skips_gq_and_srg_without_integral_replication(tmp_path, capsys):
    # k = f = 3, but r = (6-1)/(3-1) is not an integer, so there is no GQ order
    path = tmp_path / "r.polyphase"
    path.write_text("POLYPHASE rows=2 cols=6 group=Z3\n0 0 0 . . .\n. . . 0 0 0\n")
    reason = "r = (v-1)/(k-1) is not an integer, got v=6, k=3"
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (1, "")
    assert f"SKIP gq ({reason})\nSKIP srg ({reason})\n" in out
    assert "needs k = f" not in out
    code, out, err = run(capsys, "verify", str(path), "--checks", "gq,srg")
    assert (code, err) == (1, "")
    failed = f"FAIL {{}}\n  FAIL applicable witness=() [{reason}]\n"
    assert out == failed.format("GQ") + failed.format("SRG") + "overall: FAIL\n"


def test_verify_subset_of_checks(affine3_file, capsys):
    code, out, _ = run(capsys, "verify", str(affine3_file), "--checks", "combinatorial")
    assert code == 0
    assert "combinatorial" in out and "DRACKN" not in out
    code, _, err = run(capsys, "verify", str(affine3_file), "--checks", "bogus")
    assert code == 2 and "unknown check" in err


def test_verify_gq_subset_names_order(tmp_path, capsys):
    run(capsys, "construct", "--family", "affine", "--q", "4", "-o", str(tmp_path))
    code, out, _ = run(capsys, "verify", str(tmp_path / "affine_q4.polyphase"), "--checks", "gq")
    assert code == 0
    assert "GQ(3,5) axioms" in out


def test_verify_character_selectors(tmp_path, capsys):
    run(capsys, "construct", "--family", "brouwer", "--q", "3", "-o", str(tmp_path))
    path = str(tmp_path / "brouwer_q3.polyphase")
    code, out, _ = run(capsys, "verify", path, "--checks", "etf", "--character", "real")
    assert code == 0 and "at character (2,)" in out
    code, out, _ = run(capsys, "verify", path, "--checks", "etf", "--character", "index:1")
    assert code == 0 and "at character (1,)" in out
    # the trivial evaluation is the incidence matrix, nowhere near tight
    code, out, _ = run(capsys, "verify", path, "--checks", "etf", "--character", "trivial")
    assert code == 1
    code, _, err = run(capsys, "verify", path, "--checks", "etf", "--character", "index:9")
    assert code == 2 and "out of range" in err


def test_verify_thread_env(affine3_file, capsys, monkeypatch):
    monkeypatch.setenv("ETFFORGE_THREADS", "2")
    code, out, _ = run(capsys, "verify", str(affine3_file), "--checks", "etf")
    assert code == 0 and out.count("numeric ETF") == 2


def test_verify_thread_pool_clamped_to_characters(affine3_file, tmp_path, capsys, monkeypatch):
    # one first of a conjugate pair runs in the calling thread; more run in
    # a pool of min(workers, firsts)
    sizes = []

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return ThreadPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(cli.V, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setenv("ETFFORGE_THREADS", "64")
    code, _, _ = run(capsys, "verify", str(affine3_file), "--checks", "etf",
                     "--character", "index:1")
    assert code == 0 and sizes == []
    # brouwer q=3 is over Z4: etf reads the firsts 1 and 2, drackn 0 too
    run(capsys, "construct", "--family", "brouwer", "--q", "3", "-o", str(tmp_path))
    path = str(tmp_path / "brouwer_q3.polyphase")
    for threads, checks, size in (("64", "etf", 2), ("64", "etf,drackn", 3), ("2", "etf,drackn", 2)):
        monkeypatch.setenv("ETFFORGE_THREADS", threads)
        sizes.clear()
        code, _, _ = run(capsys, "verify", path, "--checks", checks)
        assert code == 0 and sizes == [size]


def test_one_worker_squares_in_the_calling_thread(tmp_path, capsys, monkeypatch):
    def no_pool(max_workers):
        raise AssertionError(f"a pool of {max_workers} was made")

    square, threads = cli.V.square_at, []

    def recording_square(a, gamma):
        threads.append(threading.current_thread())
        return square(a, gamma)

    monkeypatch.setattr(cli.V, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(cli.V, "square_at", recording_square)
    monkeypatch.setenv("ETFFORGE_THREADS", "1")
    run(capsys, "construct", "--family", "brouwer", "--q", "3", "-o", str(tmp_path))
    code, out, _ = run(capsys, "verify", str(tmp_path / "brouwer_q3.polyphase"))
    assert code == 0 and "PASS (28,4,8)-DRACKN" in out
    assert threads == [threading.current_thread()] * 3


def test_two_workers_write_the_one_worker_report(tmp_path, capsys, monkeypatch):
    run(capsys, "construct", "--family", "brouwer", "--q", "5", "-o", str(tmp_path))
    path, texts = str(tmp_path / "brouwer_q5.polyphase"), []
    for threads in ("1", "2"):
        monkeypatch.setenv("ETFFORGE_THREADS", threads)
        report = tmp_path / f"report{threads}.json"
        code, out, _ = run(capsys, "verify", path, "--json", str(report))
        assert code == 0 and out.count("numeric ETF") == 5 and "SRG(" in out
        texts.append((out, report.read_bytes()))
    assert texts[0] == texts[1]


def test_verify_incidence_input(affine3_file, tmp_path, capsys):
    inc = tmp_path / "design.txt"
    run(capsys, "export", str(affine3_file), "--to", "incidence", "-o", str(inc), "--force")
    code, out, _ = run(capsys, "verify", str(inc))
    assert code == 0
    assert "BIBD(v=9, k=3" in out
    assert "SKIP etf" in out


def test_screen_text_csv_and_reference(capsys):
    code, out, _ = run(capsys, "screen", "--kmin", "3", "--kmax", "4", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "v,k,r,b,u,real_feasible"
    assert lines[1:] == ["9,3,4,12,1,0", "16,4,5,20,3,1", "28,4,9,63,2,1", "64,4,21,336,1,1"]
    code, out, _ = run(capsys, "screen", "--kmin", "2", "--kmax", "2")
    assert code == 0 and "u = 0 for every v" in out
    code, out, _ = run(capsys, "screen", "--kmin", "3", "--kmax", "9", "--check-table1")
    assert code == 0 and "reference check: OK (37 rows)" in out
    code, _, err = run(capsys, "screen", "--kmin", "1", "--kmax", "3")
    assert code == 2


def test_screen_beyond_reference_range(capsys):
    code, out, _ = run(capsys, "screen", "--kmin", "10", "--kmax", "10")
    assert code == 0
    rows = [line for line in out.splitlines() if line.strip() and line.lstrip()[0].isdigit()]
    for line in rows:
        v, k, r, b, u = (int(x) for x in line.split()[:5])
        assert k == 10 and v - 1 == r * 9 and b * 10 == v * r


def test_export_polyphase_roundtrip(affine3_file, tmp_path, capsys):
    out_path = tmp_path / "copy.polyphase"
    code, _, _ = run(capsys, "export", str(affine3_file), "--to", "polyphase", "-o", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == affine3_file.read_bytes()


def test_export_gq_incidence(affine3_file, tmp_path, capsys):
    out_path = tmp_path / "gq.txt"
    code, _, _ = run(capsys, "export", str(affine3_file), "--to", "gq", "-o", str(out_path))
    assert code == 0
    z = parse_incidence(out_path.read_text())
    assert z.shape == (45, 27)


def test_export_force_rules(affine3_file, tmp_path, capsys):
    code, _, err = run(capsys, "export", str(affine3_file), "--to", "incidence",
                       "-o", str(tmp_path / "x.txt"))
    assert code == 2 and "--force" in err
    code, _, _ = run(capsys, "export", str(affine3_file), "--to", "incidence",
                     "-o", str(tmp_path / "x.txt"), "--force")
    assert code == 0
    # index:1 on Z3 separates all exponents, so no force is needed
    code, _, _ = run(capsys, "export", str(affine3_file), "--to", "complex",
                     "-o", str(tmp_path / "c.csv"))
    assert code == 0
    rows = (tmp_path / "c.csv").read_text().strip().splitlines()
    assert len(rows) == 12 and len(rows[0].split(",")) == 9


def test_export_real_character_needs_force(tmp_path, capsys):
    run(capsys, "construct", "--family", "brouwer", "--q", "3", "-o", str(tmp_path))
    path = str(tmp_path / "brouwer_q3.polyphase")
    out_path = tmp_path / "real.csv"
    code, _, err = run(capsys, "export", path, "--to", "complex", "--character", "real",
                       "-o", str(out_path))
    assert code == 2 and "lossy" in err
    code, _, _ = run(capsys, "export", path, "--to", "complex", "--character", "real",
                     "-o", str(out_path), "--force")
    assert code == 0
    body = out_path.read_text()
    assert "i" in body  # complex format keeps the +0i suffix even when real
    vals = {cell for line in body.strip().splitlines() for cell in line.split(",")}
    assert vals <= {"1+0i", "-1+0i", "0+0i"}


def test_export_gram(affine3_file, tmp_path, capsys):
    out_path = tmp_path / "gram.csv"
    code, _, _ = run(capsys, "export", str(affine3_file), "--to", "gram",
                     "-o", str(out_path), "--force")
    assert code == 0
    rows = out_path.read_text().strip().splitlines()
    assert len(rows) == 9 and all(len(r.split(",")) == 9 for r in rows)
    assert rows[0].split(",")[0] == "4+0i"


def _child_env():
    """Environment in which a child Python imports the etfforge this suite imports."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "etfforge.cli", "screen", "--kmin", "3", "--kmax", "3"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "9" in proc.stdout


def test_package_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "etfforge", "construct", "--family", "brouwer", "--q", "2",
         "-o", str(tmp_path)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wrote {tmp_path / 'brouwer_q2.polyphase'}\nwrote {tmp_path / 'brouwer_q2.json'}\n"
    assert parse_polyphase((tmp_path / "brouwer_q2.polyphase").read_text()).rows == 12


def test_import_leaves_scipy_sparse_unloaded(tmp_path):
    # numpy is the only dependency: import and a full verify with the GQ
    # and SRG checks applicable must not load any scipy module
    code = (
        "import sys\n"
        "import etfforge\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "from etfforge.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "assert main(['construct', '--family', 'brouwer', '--q', '2', '-o', out]) == 0\n"
        "assert main(['verify', out + '/brouwer_q2.polyphase']) == 0\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert "PASS GQ(2,4) axioms" in proc.stdout and "PASS SRG(27,10,1,5)" in proc.stdout


def test_verify_leaves_numpy_ma_unloaded(tmp_path):
    # the first np.unique of a process imports numpy.ma, about 10 ms of a
    # cold construct or verify; pytest may have loaded it already, so a
    # fresh child runs both
    path = tmp_path / "affine_q3.polyphase"
    code = (
        "import sys\n"
        "from etfforge.cli import main\n"
        f"assert main(['construct', '--family', 'affine', '--q', '3', '-o', {str(tmp_path)!r}]) == 0\n"
        f"assert main(['verify', {str(path)!r}]) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert "PASS BIBD(v=9, k=3, lambda=1)" in proc.stdout


def _mutate_polyphase_text(text: str, rng) -> str:
    """One random edit of a .polyphase text: a cell, a support flip, a
    dropped row (with or without a matching header), or a header field."""
    head, *rows = text.splitlines()
    kind = rng.choice(["cell", "cell", "flip", "flip", "drop", "drop-fixed", "header"])
    if kind in ("cell", "flip"):
        i = rng.randrange(len(rows))
        cells = rows[i].split()
        j = rng.randrange(len(cells))
        if kind == "flip":
            cells[j] = rng.choice(["0", "1", "2", "0,1"]) if cells[j] == "." else "."
        else:
            cells[j] = rng.choice([".", "0", "1", "2", "3", "5", "-1", "7,1", "x"])
        rows[i] = " ".join(cells)
    elif kind.startswith("drop"):
        i = rng.randrange(len(rows))
        del rows[i]
        if kind == "drop-fixed":
            head = head.replace(f"rows={len(rows) + 1}", f"rows={len(rows)}")
    else:
        key = rng.choice(["rows", "cols", "group"])
        if key == "group":
            value = rng.choice(["Z2", "Z3", "Z4", "Z9", "Z3xZ3", "Z2xZ2", "Z1", "Z0", "Zx", "Y3", ""])
        else:
            value = rng.choice(["0", "-1", "1", "x", "2", "9", "12", "13"])
        head = " ".join(f"{key}={value}" if f.startswith(key + "=") else f for f in head.split())
    return "\n".join([head] + rows) + "\n"


def test_verify_fuzz_is_total(tmp_path, capsys, monkeypatch):
    # seeded edits of three small designs: every parseable file gets a
    # report (exit 0 or 1), exit 2 only for a parse error, never a traceback
    monkeypatch.setenv("ETFFORGE_THREADS", "1")
    rng = random.Random(20161604)
    texts = [format_polyphase(m) for m in (construct.affine_polyphase(3),
                                           construct.brouwer_polyphase(2),
                                           construct.example_9_3_3())]
    path = tmp_path / "fuzz.polyphase"
    codes = []
    for n in range(200):
        text = texts[n % 3]
        for _ in range(rng.randint(1, 2)):
            text = _mutate_polyphase_text(text, rng)
        path.write_text(text)
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", str(path))
        assert time.perf_counter() - start < 2, text
        assert code in (0, 1, 2), text
        if code == 2:
            with pytest.raises(ValueError) as exc:
                parse_polyphase(text)
            assert err == f"error: {exc.value}\n", text
        else:
            assert err == "" and out.endswith(f"overall: {'PASS' if code == 0 else 'FAIL'}\n")
        codes.append(code)
    # the edits reach the verifiers, not only the parser
    assert codes.count(1) > 50 and codes.count(2) > 20
