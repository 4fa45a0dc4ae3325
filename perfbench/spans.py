"""Spans around calls into etfforge, recorded from outside the package.

`Tracer.install()` wraps each public function named in LAYERS and rebinds
the wrapper in every `etfforge` module that holds the original, so calls
made through `from .x import f` are caught as well.  Methods are wrapped on
their class.  Spans stay in memory; the caller writes them out at the end.

Per-span peak memory comes from `tracemalloc`, which the caller starts for
traced runs only.  At every span boundary the peak since the previous
boundary is credited to all open spans and the peak counter is reset, so
nested spans each see their own high-water mark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import tracemalloc

MIB = float(1 << 20)


def _group_order_squared(args, kwargs, result):
    return {"blas_calls": args[0].group.order ** 2}


def _result_bytes(args, kwargs, result):
    return {"out_bytes": int(getattr(result, "nbytes", 0))}


# POLYPHASE text is ASCII, so its length is its size in bytes
def _text_out(args, kwargs, result):
    return {"text_bytes": len(result)}


def _text_in(args, kwargs, result):
    return {"text_bytes": len(args[0] if args else kwargs["text"])}


# (span name, module, attribute path, extra counters taken from the call)
LAYERS = (
    ("gf.field_create", "etfforge.gf", "field_create", None),
    ("groupring.AbelianGroup", "etfforge.groupring", "AbelianGroup.__init__", None),
    ("groupring.characters_of", "etfforge.groupring", "characters_of", None),
    ("polymat.matmul", "etfforge.polymat", "GroupRingMatrix.__matmul__", _group_order_squared),
    ("polymat.evaluate", "etfforge.polymat", "GroupRingMatrix.evaluate", None),
    ("polymat.evaluate", "etfforge.polymat", "PolyphaseMatrix.evaluate", None),
    ("polymat.format_polyphase", "etfforge.polymat", "format_polyphase", _text_out),
    ("polymat.parse_polyphase", "etfforge.polymat", "parse_polyphase", _text_in),
    ("construct.affine_polyphase", "etfforge.construct", "affine_polyphase", None),
    ("construct.brouwer_geometry", "etfforge.construct", "brouwer_geometry", None),
    ("construct.brouwer_polyphase", "etfforge.construct", "brouwer_polyphase", None),
    ("construct.gq_from_polyphase", "etfforge.construct", "gq_from_polyphase", _result_bytes),
    ("construct.drackn_from_polyphase", "etfforge.construct", "drackn_from_polyphase", None),
    ("verify.bibd", "etfforge.verify", "verify_bibd", None),
    ("verify.combinatorial", "etfforge.verify", "verify_polyphase_combinatorial", None),
    ("verify.algebraic", "etfforge.verify", "verify_polyphase_algebraic", None),
    ("verify.etf", "etfforge.verify", "verify_etf_numeric", None),
    ("verify.drackn", "etfforge.verify", "verify_drackn", None),
    ("verify.gq", "etfforge.verify", "verify_gq_axioms", None),
    ("verify.srg", "etfforge.verify", "verify_srg_collinearity", None),
    ("cli.construct", "etfforge.cli", "cmd_construct", None),
    ("cli.verify", "etfforge.cli", "cmd_verify", None),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: dict[int, dict] = {}  # span id -> span, for memory credit
        self._main_stack: list[dict] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def _credit_peak(self):
        """Credit the traced-memory peak since the last boundary to every open span."""
        if not tracemalloc.is_tracing():
            return 0
        current, peak = tracemalloc.get_traced_memory()
        for span in self._open.values():
            span["_hi"] = max(span["_hi"], peak)
        tracemalloc.reset_peak()
        return current

    def _enter(self, name: str) -> dict:
        stack = self._stack()
        # a worker thread's first span hangs under the span the main thread is in
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            base = self._credit_peak()
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": None if parent is None else parent["id"],
                "thread": threading.current_thread().name,
                "run": self.run_id,
                "_base": base,
                "_hi": base,
            }
            self.spans.append(span)
            self._open[span["id"]] = span
        stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _exit(self, span: dict, extra: dict | None):
        span["end"] = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self._credit_peak()
            del self._open[span["id"]]
        span["peak_mb"] = (span.pop("_hi") - span.pop("_base")) / MIB
        if extra:
            span.update(extra)

    def wrap(self, name: str, fn, counters=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._exit(span, counters(args, kwargs, result) if counters and result is not None else None)

        return traced

    def install(self):
        """Wrap every layer function that exists; record the ones that do not."""
        for name, module_name, path, counters in LAYERS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self.wrap(name, original, counters)
            if owners:
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "etfforge" and not mod_name.startswith("etfforge."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans: list[dict]) -> dict[str, dict]:
    """Per span name: total time (outermost spans of that name only), self
    time, call count, highest peak, summed BLAS-call and text-byte counts and
    the largest returned array."""
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out: dict[str, dict] = {}
    for s in spans:
        m = out.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0, "peak_mb": 0.0})
        m["calls"] += 1
        m["peak_mb"] = max(m["peak_mb"], s["peak_mb"])
        dur = s["end"] - s["start"]
        kids = [(c["start"], c["end"]) for c in children.get(s["id"], ())]
        m["self_s"] += dur - _covered(kids)
        for key in ("blas_calls", "text_bytes"):
            if key in s:
                m[key] = m.get(key, 0) + s[key]
        if "out_bytes" in s:
            m["out_bytes"] = max(m.get("out_bytes", 0), s["out_bytes"])
        ancestor = by_id.get(s["parent"])
        while ancestor is not None and ancestor["name"] != s["name"]:
            ancestor = by_id.get(ancestor["parent"])
        if ancestor is None:
            m["s"] += dur
    return out
