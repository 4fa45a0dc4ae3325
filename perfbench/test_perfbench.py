"""The benchmark's own tests: tiny-size runs through the real command.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, metric_unit  # noqa: E402
from workloads import BENCHMARKED, mutate_polyphase  # noqa: E402


def _run(root: Path, workload: str, trace: int, seed: int = 0):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def _copy_with_sources(tmp_path: Path) -> Path:
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(BENCHMARKED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, metric_unit(n)) for n in PER_LAYER
    ]


@pytest.mark.parametrize("workload", ["smoke-build", "smoke-verify"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    rc, lines, result = _run(ROOT, workload, trace)
    assert rc == 0, lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = PER_LAYER if trace else tuple(END_TO_END)
    assert set(result["metrics"]) == set(names)
    for name in names:
        unit = metric_unit(name)
        assert result["metrics"][name]["unit"] == unit
        assert any(ln.startswith(f"{name} ") and ln.endswith(f" {unit}") for ln in lines), name
    assert any(ln.startswith("fail_ratio 0 ") for ln in lines)
    if trace == 0:
        assert all(result["metrics"][n]["value"] > 0 for n in names)


def test_corrupted_golden_hash_trips_the_gate(tmp_path):
    root = _copy_with_sources(tmp_path)
    golden_path = root / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    digest = golden["reports"]["affine_q3:all"]
    golden["reports"]["affine_q3:all"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    golden_path.write_text(json.dumps(golden))
    rc, lines, result = _run(root, "smoke-verify", 0)
    assert rc == 1
    assert not result["correct"] and result["failed"] > 0
    assert any(ln.startswith("FAIL verify affine_q3:all") for ln in lines)


def test_a_check_that_stops_checking_fails_the_benchmark(tmp_path):
    """A verifier that still prints the same passing report on good input but
    no longer detects a bad one keeps every golden digest; only the mutant
    control catches it."""
    root = _copy_with_sources(tmp_path)
    verify_py = root / "src" / "etfforge" / "verify.py"
    verify_py.write_text(verify_py.read_text() + (
        "\n\n_checked_gq = verify_gq_axioms\n\n\n"
        "def verify_gq_axioms(z, s, t, check_spread=False):\n"
        "    rep = _checked_gq(z, s, t, check_spread)\n"
        "    for c in rep.checks:\n"
        "        c.passed, c.witness = True, None\n"
        "    return rep\n"
    ))
    rc, lines, result = _run(root, "smoke-verify", 0)
    assert rc == 1
    assert not result["correct"]
    assert any(ln.startswith("FAIL mutant control (gq)") for ln in lines)


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "build-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("seed", range(20))
def test_mutation_changes_exactly_one_entry_to_another_group_element(seed):
    src = "POLYPHASE rows=2 cols=3 group=Z2xZ3\n0,1 . 1,2\n. 0,0 1,0\n"
    new, (row, col, old, cell) = mutate_polyphase(src, random.Random(seed))
    before = [ln.split(" ") for ln in src.splitlines()[1:]]
    after = [ln.split(" ") for ln in new.splitlines()[1:]]
    diffs = [(i, j) for i in range(2) for j in range(3) if before[i][j] != after[i][j]]
    assert diffs == [(row, col)]
    assert old != "." and cell != old
    a, b = (int(c) for c in cell.split(","))
    assert 0 <= a < 2 and 0 <= b < 3
    assert new.splitlines()[0] == src.splitlines()[0]
