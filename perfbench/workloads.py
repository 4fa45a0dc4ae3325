"""Workload definitions shared by the parent (run.py) and the child (child.py).

A workload is a list of designs and the CLI verb run on each of them in one
pass.  Every design is fixed; the run seed only permutes the order of the
members of a multi-member workload and picks the entry that the mutant
control corrupts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

EXACT_CHECKS = "bibd,combinatorial,algebraic"
# the workloads listed in BENCHMARK.json, in its order
BENCHMARKED = ("build-ladder", "verify-brouwer5", "exact-affine16", "verify-mid")


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str  # "construct": each pass builds the designs; "verify": setup builds, each pass verifies
    designs: tuple  # (family, q) pairs; q is None for example933
    checks: str | None = None  # the --checks list of every verify, None for all checks
    mutant_check: str | None = None  # the check that must FAIL on the seeded mutant


WORKLOADS = {
    w.name: w
    for w in (
        # write side: GF tables, both constructions and format_polyphase;
        # no verifier runs
        Workload(
            "build-ladder", "construct",
            (("affine", 9), ("affine", 16), ("affine", 25), ("affine", 27),
             ("brouwer", 4), ("brouwer", 5), ("brouwer", 7)),
        ),
        # read side above SPARSE_CELL_CUTOFF: dense GQ lift, sparse gq, dense
        # srg, drackn, etf at five characters and the repeated bibd
        Workload("verify-brouwer5", "verify", (("brouwer", 5),), mutant_check="gq"),
        # group-ring kernel: GroupRingMatrix.__matmul__ issues f^2 BLAS calls
        # per product and takes about 80 % of a pass; numeric and GQ layers idle
        Workload(
            "exact-affine16", "verify", (("affine", 16),), checks=EXACT_CHECKS,
            mutant_check="algebraic",
        ),
        # small inputs whose GQ lift is below SPARSE_CELL_CUTOFF: the dense
        # verify_gq_axioms branch takes about 90 % of a pass
        Workload("verify-mid", "verify", (("affine", 7), ("brouwer", 4)), mutant_check="gq"),
        # the ROADMAP headline sizes; one pass takes 20 s to 45 s, too long
        # for steady figures on a small machine, so BENCHMARK.json omits them
        Workload("verify-brouwer7", "verify", (("brouwer", 7),), mutant_check="gq"),
        Workload(
            "exact-affine27", "verify", (("affine", 27),), checks=EXACT_CHECKS,
            mutant_check="algebraic",
        ),
        # tiny workloads for the benchmark's own tests
        Workload("smoke-build", "construct", (("affine", 3), ("brouwer", 2), ("example933", None))),
        Workload(
            "smoke-verify", "verify", (("affine", 3), ("brouwer", 2), ("example933", None)),
            mutant_check="gq",
        ),
    )
}


def design_name(family: str, q) -> str:
    return family if q is None else f"{family}_q{q}"


def construct_argv(family: str, q, out: str) -> list[str]:
    argv = ["construct", "--family", family]
    if q is not None:
        argv += ["--q", str(q)]
    return argv + ["-o", out]


def report_key(name: str, checks: str | None) -> str:
    """Golden-table key of the --json report of one verify invocation."""
    return f"{name}:{checks or 'all'}"


def verify_argv(name: str, checks: str | None) -> list[str]:
    argv = ["verify", f"{name}.polyphase"]
    if checks:
        argv += ["--checks", checks]
    return argv + ["--json", f"{name}.report.json"]


def member_order(w: Workload, seed: int) -> list:
    designs = list(w.designs)
    random.Random(seed).shuffle(designs)
    return designs


def mutate_polyphase(text: str, rng: random.Random) -> tuple[str, tuple]:
    """Change one nonzero entry z^g of a POLYPHASE file to z^h with h != g.

    Works on the text, independent of the parser under test: one coordinate
    of the group element moves by a nonzero step modulo its cyclic factor.
    Returns the new text and (row, col, old cell, new cell).
    """
    lines = text.split("\n")
    header = dict(tok.partition("=")[::2] for tok in lines[0].split()[1:])
    factors = [int(part[1:]) for part in header["group"].split("x")]
    body = [i for i in range(1, len(lines)) if lines[i].strip()]
    row = rng.choice(body)
    cells = lines[row].split(" ")
    col = rng.choice([j for j, c in enumerate(cells) if c != "."])
    coords = [int(c) for c in cells[col].split(",")]
    axis = rng.randrange(len(factors))
    coords[axis] = (coords[axis] + rng.randrange(1, factors[axis])) % factors[axis]
    old, cells[col] = cells[col], ",".join(str(c) for c in coords)
    lines[row] = " ".join(cells)
    return "\n".join(lines), (row - 1, col, old, cells[col])
