"""One child process of a benchmark run; run.py starts it and reads its stdout.

    python3 child.py '<json config>'

The child sets up (import etfforge, build the workload's input files in its
working directory, one warm-up LAPACK call), prints one JSON line announcing
that it is ready, then does what its mode asks:

  setup   nothing more; the parent only times the set-up
  pass    one pass of the workload through etfforge.cli.main, timed with
          perf_counter; optionally traced, with or without tracemalloc
  mutant  the untimed mutant control: corrupt one seeded entry of one seeded
          input and verify it with the workload's mutant check

and prints one JSON line with the outcome.  CLI output is captured, so the
child's stdout carries only these two lines.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time

import numpy as np

from workloads import (
    WORKLOADS,
    construct_argv,
    design_name,
    member_order,
    mutate_polyphase,
    verify_argv,
)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _invoke(main, argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    lines = buf.getvalue().splitlines()
    return {"argv": argv, "rc": rc, "last": lines[-1] if lines else ""}


def _emit(obj: dict):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _environment() -> dict:
    from importlib.metadata import version

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(config: dict) -> int:
    from etfforge.cli import main as cli_main

    w = WORKLOADS[config["workload"]]
    order = member_order(w, config["seed"])
    builds = []
    if w.verb == "verify":
        builds = [_invoke(cli_main, construct_argv(family, q, ".")) for family, q in order]
    # the first LAPACK and BLAS calls in a process pay one-off start-up costs
    a = np.arange(64.0).reshape(8, 8) + 1j
    np.linalg.svd(a, compute_uv=False)
    a.real @ a.real
    _emit({"ready": True, "setup_cpu_s": _cpu_s(), "builds": builds})

    if config["mode"] == "setup":
        _emit({"env": _environment()})
        return 0

    if config["mode"] == "mutant":
        rng = random.Random(config["seed"])
        family, q = rng.choice(list(w.designs))
        name = design_name(family, q)
        with open(f"{name}.polyphase", encoding="utf-8") as fh:
            text, where = mutate_polyphase(fh.read(), rng)
        with open("mutant.polyphase", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        res = _invoke(cli_main, ["verify", "mutant.polyphase", "--checks", w.mutant_check,
                                 "--json", "mutant.report.json"])
        _emit({"mutant": res, "design": name, "where": where, "env": _environment()})
        return 0

    if w.verb == "construct":
        members = [construct_argv(family, q, "out") for family, q in order]
    else:
        members = [verify_argv(design_name(family, q), w.checks) for family, q in order]
    tracer = None
    if config["trace"]:
        import tracemalloc

        from spans import Tracer

        tracer = Tracer(config["run_id"])
        tracer.install()
        if config["memory"]:
            tracemalloc.start()
    results = []
    t0 = time.perf_counter()
    for argv in members:
        results.append(_invoke(cli_main, argv))
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracemalloc.stop()
        with open(config["spans"], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    _emit({"wall_s": wall, "results": results,
           "missing_layers": tracer.missing if tracer else []})
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
