"""Benchmark of the etfforge command line, driven from outside the package.

    python3 perfbench/run.py --workload verify-mid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in BENCHMARK.json
    python3 perfbench/run.py --write-golden            # re-capture perfbench/golden.json

Each run starts fresh child processes (child.py) that import etfforge from
`src/` of this checkout and call `etfforge.cli.main` in-process, with every
thread pool pinned to one thread.  Each child sets up once and then does one
pass, so every pass pays the costs a command-line user pays on every call.
The run:

  1. starts MIN_SETUPS - 1 untimed children; the first runs the mutant
     control (a seeded corruption of one input must FAIL the workload's
     mutant check), the others only set up;
  2. starts timed children, one pass each, until --seconds have passed;
  3. with --trace 1, gives the timed children half of --seconds and
     traced children the other half.  Traced children alternate: one
     records spans only, for per-layer times; the next also runs
     tracemalloc, for per-span peak memory, which slows allocation-heavy
     Python code several-fold.

Every CLI invocation counts as attempted; it fails when its exit code, its
last line or the SHA-256 of an output file differs from golden.json.  A
child process that dies counts as one more failed attempt.
The last stdout line is one JSON object: correct, attempted, failed and the
metrics (end-to-end ones with --trace 0, per-layer ones with --trace 1).
The exit code is 0 only when every invocation was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import MIB, layer_metrics
from workloads import BENCHMARKED, WORKLOADS, design_name, member_order, report_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

GOLDEN = HERE / "golden.json"
# Thread pools are part of the workload: unpinned, brouwer q=7 verify varies
# by about 25 % from run to run on two cores.
CHILD_THREADS = {"ETFFORGE_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_SETUPS = 3
CHILD_TIMEOUT_S = 160

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER = (
    "gf.field_create.s",
    "groupring.AbelianGroup.s",
    "groupring.characters_of.s",
    "polymat.format_polyphase.s",
    "polymat.format_polyphase.mb_per_s",
    "polymat.parse_polyphase.s",
    "polymat.parse_polyphase.mb_per_s",
    "polymat.matmul.s",
    "polymat.matmul.calls",
    "polymat.matmul.blas_calls",
    "polymat.evaluate.s",
    "construct.affine_polyphase.s",
    "construct.brouwer_geometry.s",
    "construct.brouwer_polyphase.self_s",
    "construct.gq_from_polyphase.s",
    "construct.gq_from_polyphase.out_mb",
    "construct.drackn_from_polyphase.s",
    "verify.bibd.s",
    "verify.bibd.calls",
    "verify.combinatorial.s",
    "verify.algebraic.self_s",
    "verify.algebraic.peak_mb",
    "verify.etf.s",
    "verify.etf.calls",
    "verify.drackn.s",
    "verify.gq.s",
    "verify.gq.calls",
    "verify.srg.self_s",
    "verify.srg.peak_mb",
    "cli.construct.self_s",
    "cli.verify.self_s",
    "trace.overhead_s",
)
FIELD_UNITS = {"s": "s", "self_s": "s", "overhead_s": "s", "calls": "count",
               "blas_calls": "count", "peak_mb": "MiB", "out_mb": "MiB", "mb_per_s": "MiB/s"}


def metric_unit(name: str) -> str:
    return END_TO_END.get(name) or FIELD_UNITS[name.rsplit(".", 1)[1]]


def sha256_file(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def report_digest(path: Path) -> str | None:
    """SHA-256 of a verify --json report with each float residual replaced by
    a marker: the last digits of a residual depend on the BLAS kernel the CPU
    selects, everything else in the report is exact."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        for rep in payload["reports"]:
            for check in rep["checks"]:
                if check["residual"] is not None:
                    check["residual"] = "float"
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class Tally:
    """Counts CLI invocations and checks their outputs against the golden
    table; with no golden table it records the digests instead."""

    def __init__(self, golden: dict | None):
        self.golden = golden
        self.captured = {"files": {}, "reports": {}}
        self.attempted = 0
        self.failures: list[str] = []  # one message per failed operation

    def _match(self, table: str, key: str, digest: str | None) -> bool:
        if self.golden is None:
            self.captured[table][key] = digest
            return digest is not None
        return digest is not None and self.golden[table].get(key) == digest

    def invocation(self, res: dict | None, want_rc: int, want_last: str,
                   outputs: list[tuple[str, str, str | None]], what: str, problems=()):
        """outputs: (table, key, digest) triples that must match golden;
        problems: what the caller already found wrong with this invocation."""
        self.attempted += 1
        problems = list(problems)
        if res is None:
            problems.append("no result from child")
        else:
            if res["rc"] != want_rc:
                problems.append(f"exit code {res['rc']} != {want_rc}")
            if res["last"] != want_last:
                problems.append(f"last line {res['last']!r} != {want_last!r}")
        for table, key, digest in outputs:
            if not self._match(table, key, digest):
                problems.append(f"{key}: digest {digest} differs from golden")
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))

    def crashed(self, what: str):
        """A child process that died counts as one failed operation."""
        self.attempted += 1
        self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def spawn(config: dict, workdir: Path) -> dict:
    """Run one child; return its set-up time, its two JSON lines and the
    rusage the kernel reports for it."""
    env = dict(os.environ, **CHILD_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
    )
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(config)],
        cwd=workdir, env=env, stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        watchdog.cancel()
    out = {"rc": proc.returncode, "setup_s": setup_s, "ready": None, "result": None,
           "cpu_s": ru.ru_utime + ru.ru_stime, "rss_mib": ru.ru_maxrss / 1024.0}
    try:
        out["ready"] = json.loads(ready)
        out["result"] = json.loads(rest.splitlines()[-1])
    except (ValueError, IndexError):
        pass
    return out


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, golden: dict | None):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tally = Tally(golden)
        self.names = [design_name(f, q) for f, q in member_order(self.w, seed)]
        self.workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
        self.env: dict = {}
        self.missing_layers: set[str] = set()

    # -- checks ---------------------------------------------------------

    def _check_builds(self, child: dict):
        builds = child["ready"]["builds"] if child["ready"] else [None] * len(self.names)
        for name, res in zip(self.names, builds):
            self.tally.invocation(res, 0, f"wrote {name}.json", self._design_files(name, self.workdir),
                                  f"setup construct {name}")

    def _design_files(self, name: str, where: Path) -> list:
        return [("files", f"{name}.{ext}", sha256_file(where / f"{name}.{ext}"))
                for ext in ("polyphase", "json")]

    def _check_pass(self, child: dict):
        results = child["result"]["results"] if child["result"] else [None] * len(self.names)
        for name, res in zip(self.names, results):
            if self.w.verb == "construct":
                outputs = self._design_files(name, self.workdir / "out")
                self.tally.invocation(res, 0, f"wrote out/{name}.json", outputs, f"construct {name}")
            else:
                key = report_key(name, self.w.checks)
                digest = report_digest(self.workdir / f"{name}.report.json")
                self.tally.invocation(res, 0, "overall: PASS", [("reports", key, digest)], f"verify {key}")

    def _check_mutant(self, child: dict):
        res = child["result"]["mutant"] if child["result"] else None
        what = f"mutant control ({self.w.mutant_check})"
        if child["result"]:
            what += f" on {child['result']['design']} entry {child['result']['where']}"
        try:
            payload = json.loads((self.workdir / "mutant.report.json").read_text(encoding="utf-8"))
            caught = payload["reports"] and not all(r["passed"] for r in payload["reports"])
        except (OSError, ValueError, KeyError):
            caught = False
        problems = [] if caught else ["report shows no failing check"]
        self.tally.invocation(res, 1, "overall: FAIL", [], what, problems)

    # -- children -------------------------------------------------------

    def _child(self, mode: str, traced: bool = False, memory: bool = False, index: int = 0) -> dict:
        for stale in ("out", "mutant.report.json", *(f"{n}.report.json" for n in self.names)):
            path = self.workdir / stale
            shutil.rmtree(path) if path.is_dir() else path.unlink(missing_ok=True)
        config = {"workload": self.w.name, "seed": self.seed, "mode": mode,
                  "trace": traced, "memory": memory,
                  "run_id": f"{self.w.name}-seed{self.seed}-{os.getpid()}-{index}",
                  "spans": f"spans-{index}.jsonl"}
        child = spawn(config, self.workdir)
        if child["rc"] != 0 or child["ready"] is None or child["result"] is None:
            self.tally.crashed(f"{mode} child exited {child['rc']} without a full result")
        if self.w.verb == "verify":
            self._check_builds(child)
        if child["result"]:
            self.env = child["result"].get("env", self.env)
            self.missing_layers.update(child["result"].get("missing_layers", ()))
        return child

    def _passes(self, seconds: float, traced: bool = False) -> list[dict]:
        done = []
        start = time.perf_counter()
        while len(done) < 1 + traced or time.perf_counter() - start < seconds:
            memory = traced and len(done) % 2 == 1
            child = self._child("pass", traced, memory, index=len(done))
            child["memory"] = memory
            self._check_pass(child)
            if child["result"] is None:
                break
            if traced:
                child["spans"] = [json.loads(line) for line in
                                  (self.workdir / f"spans-{len(done)}.jsonl").read_text().splitlines()]
            done.append(child)
        return done

    def execute(self) -> dict:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        setups, plain, traced = [], [], []
        try:
            for i in range(MIN_SETUPS - 1):
                mode = "mutant" if i == 0 and self.w.mutant_check else "setup"
                child = self._child(mode)
                if mode == "mutant":
                    self._check_mutant(child)
                setups.append(child["setup_s"])
            share = self.seconds / 2 if self.trace else self.seconds
            plain = self._passes(share)
            traced = self._passes(share, traced=True) if self.trace else []
        finally:
            if traced:
                keep = ROOT / ".bench_out"
                keep.mkdir(exist_ok=True)
                with open(keep / f"spans-{self.w.name}-seed{self.seed}.jsonl", "w") as fh:
                    for child in traced:
                        fh.writelines(json.dumps(s) + "\n" for s in child["spans"])
            shutil.rmtree(self.workdir, ignore_errors=True)
            with contextlib.suppress(OSError):  # still in use by another run
                self.workdir.parent.rmdir()
        if not plain:
            return {}
        walls = [c["result"]["wall_s"] for c in plain]
        if not self.trace:
            return {
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(c["cpu_s"] - c["ready"]["setup_cpu_s"] for c in plain),
                "peak_rss_mb": statistics.median(c["rss_mib"] for c in plain),
                "setup_s": statistics.median(setups + [c["setup_s"] for c in plain]),
            }
        timed = [self._layer_values(c["spans"]) for c in traced if not c["memory"]]
        profiled = [self._layer_values(c["spans"]) for c in traced if c["memory"]]
        if not (timed and profiled):
            return {}
        values = {}
        for name in PER_LAYER[:-1]:
            source = profiled if name.endswith(".peak_mb") else timed
            values[name] = statistics.median(v[name] for v in source)
        values["trace.overhead_s"] = statistics.median(
            c["result"]["wall_s"] for c in traced if not c["memory"]
        ) - statistics.median(walls)
        return values

    @staticmethod
    def _layer_values(spans: list[dict]) -> dict:
        layers = layer_metrics(spans)
        values = {}
        for name in PER_LAYER[:-1]:
            span, field = name.rsplit(".", 1)
            m = layers.get(span, {})
            if field == "out_mb":
                values[name] = m.get("out_bytes", 0) / MIB
            elif field == "mb_per_s":
                values[name] = m["text_bytes"] / MIB / m["s"] if m.get("s") else 0.0
            else:
                values[name] = m.get(field, 0)
        return values


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            golden: dict | None) -> tuple[dict, dict]:
    """Run one workload and print its report; return the result line and
    the digests of its outputs."""
    run = Run(workload, seed, seconds, trace, golden)
    values = run.execute()
    tally = run.tally
    names = PER_LAYER if trace else tuple(END_TO_END)
    correct = tally.failed == 0 and set(values) == set(names)
    print(f"workload {workload} seed {seed}: members {' '.join(run.names)}")
    print("env " + json.dumps(dict(run.env, nproc=os.cpu_count(), threads=CHILD_THREADS), sort_keys=True))
    if run.missing_layers:
        print("layers not found (reported as 0): " + ", ".join(sorted(run.missing_layers)))
    for failure in tally.failures:
        print("FAIL " + failure)
    for name in names:
        if name in values:
            print(f"{name} {values[name]:.6g} {metric_unit(name)}")
    print(f"fail_ratio {tally.failed / max(tally.attempted, 1):.6g} ratio "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    result = {
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {n: {"value": values[n], "unit": metric_unit(n)} for n in names if n in values},
    }
    return result, tally.captured


def write_golden():
    """Capture the digests of every output on the current commit."""
    captured = {"files": {}, "reports": {}}
    for name in WORKLOADS:
        _, digests = run_one(name, seed=0, seconds=0, trace=False, golden=None)
        for table in captured:
            captured[table].update(digests[table])
    if any(d is None for table in captured.values() for d in table.values()):
        print("some output was missing; golden.json not written", file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "etfforge" / "cli.py").is_file():
        print(f"error: no etfforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_golden:
        return write_golden()
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from {', '.join(WORKLOADS)} or all")
    golden = json.loads(GOLDEN.read_text())
    names = BENCHMARKED if args.workload == "all" else (args.workload,)
    results = {name: run_one(name, args.seed, args.seconds, bool(args.trace), golden)[0]
               for name in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
