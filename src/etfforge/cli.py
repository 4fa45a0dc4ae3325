"""Command line front end.

Four verbs:

  construct  build a family member and write it with a JSON manifest
  verify     run every applicable check on a saved matrix, exit 0 iff clean
  screen     enumerate feasible design parameters, optionally cross-checked
  export     convert between the text formats

Identical invocations print the same stdout and write byte-identical
.polyphase files and manifests: manifests carry no timestamps, JSON keys
are sorted, and all numeric formatting is fixed.  A verify --json
report writes residuals in full, so their last digits can follow the
BLAS library's thread count.
Files are written to a temporary name and renamed into place.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .construct import (
    BibdParams,
    DracknParams,
    GqParams,
    affine_polyphase,
    brouwer_polyphase,
    example_9_3_3,
    gq_from_polyphase,
    simplex_phased,
)
from .groupring import select_characters
from .polymat import (
    PolyphaseMatrix,
    format_complex_csv,
    format_incidence,
    polyphase_chunks,
    read_matrix,
)
from . import verify as V


def _atomic_write(path: Path, text):
    """Write text, a str or bytes-like chunks, to path through a temporary
    name; if a chunk or a write raises, path keeps its old bytes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in [text.encode()] if isinstance(text, str) else text:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _build_family(args) -> tuple[str, PolyphaseMatrix]:
    if args.q is not None and args.family in ("simplex", "example933"):
        raise ValueError(f"--family {args.family} takes no --q")
    if args.v is not None and args.family != "simplex":
        raise ValueError(f"--family {args.family} takes no --v")
    if args.family == "example933":
        return "example933", example_9_3_3()
    if args.family == "simplex":
        if args.v is None:
            raise ValueError("--family simplex needs --v")
        return f"simplex_v{args.v}", simplex_phased(args.v)
    if args.q is None:
        raise ValueError(f"--family {args.family} needs --q")
    if args.family == "affine":
        return f"affine_q{args.q}", affine_polyphase(args.q)
    return f"brouwer_q{args.q}", brouwer_polyphase(args.q)


def _manifest(name: str, family: str, m: PolyphaseMatrix, args) -> dict:
    f = m.group.order
    params = BibdParams.from_vk(m.cols, int(np.searchsorted(m.ii, 1)))
    d = params.etf_dimension
    man = {
        "name": name,
        "family": family,
        "rows": m.rows,
        "cols": m.cols,
        "group": m.group.name(),
        "bibd": {
            "v": params.v,
            "k": params.k,
            "r": params.r,
            "b": params.b,
            "u": params.u,
            "lambda": params.lam,
        },
        "etf": {
            "n": params.v,
            "d": int(d) if d.denominator == 1 else None,
            "welch": (params.v - int(d)) / (int(d) * (params.v - 1))
            if d.denominator == 1
            else None,
        },
    }
    if man["etf"]["welch"] is not None:
        man["etf"]["welch"] = float(np.sqrt(man["etf"]["welch"]))
    if params.k == f:
        gq = GqParams(params.k - 1, params.r)
        man["gq"] = {"s": gq.s, "t": gq.t, "blocks": gq.n_blocks, "vertices": gq.n_vertices}
    else:
        man["gq"] = None
    if (params.k * (params.r - 1)) % f == 0:
        dr = DracknParams(params.v, f, params.k * (params.r - 1) // f)
        man["drackn"] = {"n": dr.n, "f": dr.f, "c": dr.c, "delta": dr.delta}
    else:
        man["drackn"] = None
    if args.q is not None:
        man["q"] = args.q
    if args.v is not None:
        man["v"] = args.v
    return man


def cmd_construct(args) -> int:
    name, m = _build_family(args)
    out = Path(args.out)
    matrix_path = out / f"{name}.polyphase"
    manifest_path = out / f"{name}.json"
    _atomic_write(matrix_path, polyphase_chunks(m))
    manifest = _manifest(name, args.family, m, args)
    _atomic_write(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {matrix_path}")
    print(f"wrote {manifest_path}")
    return 0


def _load_input(path: Path):
    with open(path, encoding="utf-8") as stream:
        return read_matrix(stream)


def cmd_verify(args) -> int:
    checks = None if args.checks is None else args.checks.split(",")
    skips, reports = V.verify(_load_input(Path(args.input)), checks, args.character)
    ok = all(rep.passed for rep in reports)
    print(*skips, *[rep.as_text() for rep in reports], f"overall: {'PASS' if ok else 'FAIL'}",
          sep="\n")
    if args.json:
        payload = {"input": str(args.input), "passed": ok, "reports": [r.as_dict() for r in reports]}
        _atomic_write(Path(args.json), json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


def cmd_screen(args) -> int:
    rows = V.screen_parameters(args.kmin, args.kmax)
    if args.kmin <= 2:
        print("k = 2: u = 0 for every v (simplex family); rows not enumerated")
    if args.csv:
        print("v,k,r,b,u,real_feasible")
        for row in rows:
            print(f"{row.v},{row.k},{row.r},{row.b},{row.u},{int(row.real_feasible)}")
    else:
        print(f"{'v':>6} {'k':>3} {'r':>5} {'b':>8} {'u':>4} real")
        for row in rows:
            print(
                f"{row.v:>6} {row.k:>3} {row.r:>5} {row.b:>8} {row.u:>4}"
                f" {'yes' if row.real_feasible else 'no'}"
            )
    if args.check_table1:
        lo, hi = max(args.kmin, 3), min(args.kmax, 9)
        got = [(r.v, r.k, r.r, r.b, r.u) for r in V.screen_parameters(lo, hi)] if lo <= hi else []
        want = [row for row in V.REFERENCE_ROWS if lo <= row[1] <= hi]
        missing = [row for row in want if row not in got]
        extra = [row for row in got if row not in want]
        if missing or extra:
            for row in missing:
                print(f"reference check: missing {row}")
            for row in extra:
                print(f"reference check: extra {row}")
            return 1
        print(f"reference check: OK ({len(got)} rows)")
    return 0


def cmd_export(args) -> int:
    m = _load_input(Path(args.input))
    if isinstance(m, np.ndarray):
        raise ValueError("export needs a polyphase input")
    needs_force, text = _render_export(m, args)
    if needs_force and not args.force:
        raise ValueError(f"--to {args.to} is lossy here; pass --force to write anyway")
    _atomic_write(Path(args.out), text)
    print(f"wrote {args.out}")
    return 0


def _render_export(m: PolyphaseMatrix, args) -> tuple[bool, object]:
    if args.to == "polyphase":
        return False, polyphase_chunks(m)
    if args.to == "gq":
        return False, format_incidence(gq_from_polyphase(m))
    if args.to == "incidence":
        return True, format_incidence(m.modulus_squared())
    gamma = select_characters(m.group, args.character)[0]
    # evaluation inverts only when the character separates group elements
    faithful = len({complex(round(v.real, 9), round(v.imag, 9)) for v in gamma.values}) == m.group.order
    if args.to == "complex":
        return not faithful, format_complex_csv(m.evaluate(gamma))
    phi = m.evaluate(gamma)
    return True, format_complex_csv(phi.conj().T @ phi)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="etfforge",
        description="construct, verify, screen, and export phased designs",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("construct", help="build a family member and write it")
    c.add_argument("--family", required=True, choices=["simplex", "example933", "affine", "brouwer"])
    c.add_argument("--q", type=int, help="prime power for affine/brouwer")
    c.add_argument("--v", type=int, help="vector count for simplex")
    c.add_argument("-o", "--out", default=".", help="output directory")

    v = sub.add_parser("verify", help="run checks on a saved matrix")
    v.add_argument("input", help="POLYPHASE or 0/1 incidence file")
    v.add_argument("--checks", default=None, help=f"comma list from {','.join(V.CHECK_NAMES)}")
    v.add_argument(
        "--character",
        default="all-nontrivial",
        help="trivial | real | all-nontrivial | index:k",
    )
    v.add_argument("--json", default=None, help="also write the reports as JSON")

    s = sub.add_parser("screen", help="enumerate feasible parameters")
    s.add_argument("--kmin", type=int, required=True)
    s.add_argument("--kmax", type=int, required=True)
    s.add_argument("--check-table1", action="store_true", dest="check_table1",
                   help="compare 3 <= k <= 9 rows against the built-in reference")
    s.add_argument("--csv", action="store_true")

    e = sub.add_parser("export", help="convert between formats")
    e.add_argument("input", help="POLYPHASE file")
    e.add_argument("--to", required=True, choices=["polyphase", "complex", "incidence", "gram", "gq"])
    e.add_argument("--character", default="index:1", help="trivial | real | all-nontrivial | index:k")
    e.add_argument("-o", "--out", required=True, help="output file")
    e.add_argument("--force", action="store_true", help="allow lossy conversions")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return globals()[f"cmd_{args.verb}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
