"""In-memory span tracer for the lrip_lab modules, installed from outside the package.

``Tracer.install`` wraps every public function of the traced modules in each
module namespace that holds it by name, so ``harness.estimate_lrip``,
``certifier.decode_nonlinear`` and ``decoder.grid_minimum`` all record, and
every public method on the classes those modules define (``operators.apply``
aggregates both operator classes).  Nothing inside the package is edited;
``Tracer.uninstall`` puts the original objects back.

A span records its name, its parent on the same thread, start, end and self
time: the duration minus the time its child spans on that thread cover.
Stacks are per thread because ``certify`` runs draws on a thread pool; a
draw's spans have no parent on the pool thread, and the caller's span keeps
the time it waited for the pool as self time.  Spans stay in memory until
``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from array import array

import numpy as np

PACKAGE = "lrip_lab"
MODULES = ("spaces", "models", "operators", "decoder", "certifier", "harness", "seeding")


class _ThreadLog:
    """Spans and counters of one thread; only that thread writes to it."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.stack = []  # open spans as [index, time covered by children]
        self.counts = {}

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def open_names(self):
        return [self.name[i] for i, _ in self.stack]


# Counters read from a span's result when it closes, keyed by span name.

def _count_apply_batch(tracer, log, result):
    log.add("operators.apply_batch.features", int(result.size))
    if tracer.name_id("decoder.grid_minimum") in log.open_names():
        log.add("decoder.grid_minimum.points", int(result.shape[0]))


def _count_decode_nonlinear(tracer, log, result):
    log.add("decoder.gn_iters", int(result.optimizer_iters))
    log.add("decoder.converged", int(result.converged))


def _count_estimate_lrip(tracer, log, result):
    log.add("certifier.pairs_tested", int(result.pairs_tested))
    log.add("certifier.near_fallback", int(result.strata.get("near_fallback", 0)))


def _count_estimate_bp(tracer, log, result):
    log.add("certifier.pairs_tested", int(result.pairs_tested))


def _count_check_iop(tracer, log, result):
    log.add("certifier.iop_trials", len(result.trials))
    log.add("certifier.iop_satisfied", int(result.satisfied_count))


HOOKS = {
    "operators.apply_batch": _count_apply_batch,
    "decoder.decode_nonlinear": _count_decode_nonlinear,
    "certifier.estimate_lrip": _count_estimate_lrip,
    "certifier.estimate_bp": _count_estimate_bp,
    "certifier.check_iop_inequality": _count_check_iop,
}


class Tracer:
    """Records spans around the public callables of ``lrip_lab`` while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
            self._local.log = log
        return log

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        hook = HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = tracer._log()
            idx = len(log.start)
            frame = [idx, 0.0]
            log.name.append(nid)
            log.parent.append(log.stack[-1][0] if log.stack else -1)
            log.start.append(0.0)
            log.end.append(0.0)
            log.self_s.append(0.0)
            log.stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                log.stack.pop()
                log.start[idx] = t0
                log.end[idx] = t1
                log.self_s[idx] = (t1 - t0) - frame[1]
                if log.stack:
                    log.stack[-1][1] += t1 - t0
            if hook is not None:
                hook(tracer, log, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        package = importlib.import_module(PACKAGE)
        modules = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in MODULES}
        namespaces = [package, *modules.values()]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, f"{short}.{attr}")
                    for ns in namespaces:
                        for alias, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, alias, wrapper)
                elif inspect.isclass(obj):
                    for meth, member in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(member):
                            self._patch(obj, meth, self._wrap(member, f"{short}.{meth}"))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> tuple[dict, dict]:
        """Per-name {calls, self_s, durations} over all threads, plus summed counters."""
        spans: dict[str, dict] = {}
        counts: dict[str, float] = {}
        for log in self._logs:
            names = np.array(log.name, dtype=np.int32)
            dur = np.array(log.end, dtype=float) - np.array(log.start, dtype=float)
            self_s = np.array(log.self_s, dtype=float)
            for nid in np.unique(names):
                sel = names == nid
                entry = spans.setdefault(self.names[nid], {"calls": 0, "self_s": 0.0, "durations": []})
                entry["calls"] += int(sel.sum())
                entry["self_s"] += float(self_s[sel].sum())
                entry["durations"].extend(dur[sel].tolist())
            for key, value in log.counts.items():
                counts[key] = counts.get(key, 0) + value
        return spans, counts

    def span_count(self) -> int:
        return sum(len(log.start) for log in self._logs)

    def dump(self, path) -> None:
        """Write every span as columns: name id, thread number, parent index within its thread, start, end, self."""
        cols = {k: [] for k in ("name", "thread", "parent", "start", "end", "self_s")}
        for t, log in enumerate(self._logs):
            cols["name"].append(np.array(log.name, dtype=np.int32))
            cols["thread"].append(np.full(len(log.name), t, dtype=np.int32))
            cols["parent"].append(np.array(log.parent, dtype=np.int32))
            cols["start"].append(np.array(log.start, dtype=float))
            cols["end"].append(np.array(log.end, dtype=float))
            cols["self_s"].append(np.array(log.self_s, dtype=float))
        arrays = {k: np.concatenate(v) if v else np.empty(0) for k, v in cols.items()}
        np.savez_compressed(path, names=np.array(self.names), **arrays)
