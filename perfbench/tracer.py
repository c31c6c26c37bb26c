"""Per-layer tracing of ``finmonad``, installed from outside the package.

:class:`Tracer` replaces the public functions listed in :data:`SPANS` and
:data:`COUNTERS` with timing wrappers, in every loaded ``finmonad`` module
that holds a reference to them, and puts the originals back on
:meth:`Tracer.uninstall`. No source file changes.

For every wrapped function it keeps ``calls``, inclusive time ``ms``,
``self_ms`` (inclusive time minus the part of it that wrapped callees
cover) and, for enumerators, ``results`` (summed length of the returned
lists). Layer-entry functions (:data:`SPANS`) also record one span per
call: id, parent span id, name, start, end and the op it belongs to. Spans
stay in memory until :meth:`Tracer.write_spans`. Hot leaves
(:data:`COUNTERS`) keep only the counters.

Work that ``parallel.pmap`` hands to pool threads is charged to the pmap
call that started it: pmap's self time is its duration minus the union of
the intervals that its own callees and the pool threads' top-level traced
calls cover. Spans recorded in a pool thread have parent 0.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# (module, attribute) pairs; "Class.method" names wrap the class attribute.
SPANS = (
    ("fincat", "validate_category"), ("fincat", "enumerate_functors"),
    ("fincat", "enumerate_nat_trans"),
    ("monad", "enumerate_monads"), ("monad", "enumerate_comonads"),
    ("distlaw", "enumerate_dist_laws"), ("distlaw", "enumerate_mixed_laws"),
    ("construct", "em_category"), ("construct", "kleisli_category"),
    ("construct", "em_coalgebra_category"),
    ("adjunction", "induced_monad"), ("adjunction", "mate_right"),
    ("twofunctors", "enumerate_liftings"),
    ("twofunctors", "enumerate_comonad_liftings"),
    ("twofunctors", "lift_monad"), ("twofunctors", "extend_monad"),
    ("twofunctors", "extract_dist_law"),
    ("twofunctors", "extract_from_extension"),
    ("twofunctors", "hom_iso_roundtrip"),
    ("twofunctors", "enumerate_mnd_endocells"),
    ("twofunctors", "enumerate_adjr_endocells"),
    ("jsonio", "load_category"), ("jsonio", "load_monad"),
    ("jsonio", "load_dist_law"), ("jsonio", "dump_category"),
    ("report", "VerificationReport.to_json"),
    ("cli", "main"),
    ("parallel", "pmap"),
    ("selftest", "run_selftest"),
)
COUNTERS = (
    ("fincat", "check_functor"), ("fincat", "check_naturality"),
    ("fincat", "compose_functors"), ("fincat", "Functor.__init__"),
    ("fincat", "NatTrans.__init__"), ("fincat", "FinCategory.__eq__"),
    ("monad", "check_monad_laws"), ("monad", "check_comonad_laws"),
    ("distlaw", "check_dist_law"), ("distlaw", "check_mixed_law"),
)
# Functions whose returned list length is summed as ``results``.
ENUMERATORS = frozenset(
    name for _, name in SPANS if name.startswith("enumerate_"))
POOL = ("parallel", "pmap")


def metric_base(module: str, attr: str) -> str:
    """Metric prefix: constructors are named after their class."""
    if attr.endswith(".__init__"):
        attr = attr[: -len(".__init__")]
    return f"{module}.{attr}"


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


class _ThreadState:
    __slots__ = ("stats", "stack", "open_spans", "spans", "in_pool")

    def __init__(self, in_pool: bool):
        self.stats = {}        # name -> [calls, total_s, self_s, results]
        self.stack = []        # child intervals of each open traced call
        self.open_spans = []
        self.spans = []
        self.in_pool = in_pool


class Tracer:
    """Wraps the listed finmonad functions while installed."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patches = []
        self._ids = itertools.count(1)
        self._pool_calls = []  # (start, end) of top-level calls in pool threads
        self._main = threading.main_thread()
        self.op = None         # id of the op in progress, stamped on spans

    # -- state ---------------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.current_thread() is not self._main)
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str, span: bool):
        perf = time.perf_counter
        count_results = name.rsplit(".", 1)[-1] in ENUMERATORS
        pool = name == metric_base(*POOL)
        pool_calls = self._pool_calls
        ids = self._ids

        def traced(*args, **kwargs):
            st = self._state()
            stack = st.stack
            children = []
            stack.append(children)
            if span:
                sid = next(ids)
                parent = st.open_spans[-1] if st.open_spans else 0
                st.open_spans.append(sid)
            mark = len(pool_calls)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                if stack:
                    stack[-1].append((t0, t1))
                elif st.in_pool:
                    pool_calls.append((t0, t1))
                if pool:
                    children = children + pool_calls[mark:]
                    del pool_calls[mark:]
                covered = _union_length(children) if pool else sum(
                    b - a for a, b in children)
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += max(0.0, t1 - t0 - covered)
                if span:
                    st.open_spans.pop()
                    st.spans.append((sid, parent, name, t0, t1, self.op))
            if count_results and isinstance(result, list):
                rec[3] += len(result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every listed function; a listed name that is missing raises."""
        for module_name, _ in SPANS + COUNTERS:
            importlib.import_module(f"finmonad.{module_name}")
        loaded = [m for k, m in list(sys.modules.items())
                  if m is not None and (k == "finmonad" or k.startswith("finmonad."))]
        for module_name, attr in SPANS + COUNTERS:
            module = sys.modules[f"finmonad.{module_name}"]
            name = metric_base(module_name, attr)
            span = (module_name, attr) in SPANS
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                setattr(owner, meth, self._wrap(original, name, span))
                self._patches.append((owner, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, span)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def stats(self) -> dict:
        """name -> {"calls", "ms", "self_ms", "results"} over all threads."""
        merged = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, total, own, results) in st.stats.items():
                acc = merged.setdefault(name, [0, 0.0, 0.0, 0])
                acc[0] += calls
                acc[1] += total
                acc[2] += own
                acc[3] += results
        return {name: {"calls": c, "ms": t * 1000.0, "self_ms": s * 1000.0,
                       "results": r}
                for name, (c, t, s, r) in merged.items()}

    def span_count(self) -> int:
        with self._lock:
            return sum(len(st.spans) for st in self._states)

    def write_spans(self, path: str) -> None:
        """One JSON object per line: id, parent, name, start, end (s), op."""
        with self._lock:
            states = list(self._states)
        with open(path, "w", encoding="utf-8") as fh:
            for st in states:
                for sid, parent, name, t0, t1, op in st.spans:
                    fh.write(json.dumps({"id": sid, "parent": parent,
                                         "name": name, "start": t0,
                                         "end": t1, "op": op}) + "\n")


def all_metric_names() -> list:
    """Every per-layer name the tracer can produce, in declaration order."""
    names = []
    for module_name, attr in SPANS + COUNTERS:
        base = metric_base(module_name, attr)
        names += [f"{base}.calls", f"{base}.ms", f"{base}.self_ms"]
        if attr in ENUMERATORS:
            names.append(f"{base}.results")
    return names
