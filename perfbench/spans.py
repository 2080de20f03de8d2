"""Spans around pqcbound's public functions, installed from outside the package.

Each wrapped function records a span (id, parent id, name, start, end) in
memory.  A wrapper replaces the function in every pqcbound module that holds
it, because modules bind each other's functions by name (``search`` binds
``capacity_outer_bound``, ``partial_bound`` and ``simple_path_counts``;
``cli`` binds ``run``).

The wrappers can be installed and removed between passes, so that traced
and untraced passes alternate in one process.  Pool workers are forked from
the traced process and restore the original functions when they start, so
work inside a worker carries no tracing cost and records no span; only the
pool span around it and its task count are seen.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import pqcbound.cli  # noqa: F401  (loads every module that binds a traced name)
from pqcbound import EntropyCache
from pqcbound.graphs import edges_to_mask

# (defining module, function, span name)
FUNCTIONS = (
    ("pqcbound.cli", "main", "cli"),
    ("pqcbound.search", "run", "search.run"),
    ("pqcbound.search", "e_ec_search", "search.e-ec"),
    ("pqcbound.search", "ldf_order", "search.ldf"),
    ("pqcbound.search", "ebg_order", "search.ebg"),
    ("pqcbound.search", "exhaustive_search", "search.exhaustive"),
    ("pqcbound.search", "directed_random_search", "search.random"),
    ("pqcbound.bound", "capacity_outer_bound", "bound"),
    ("pqcbound.bound", "partial_bound", "bound"),
    ("pqcbound.graphs", "simple_path_counts", "graphs.path_counts"),
)
SEARCH_METHODS = ("e-ec", "ldf", "ebg", "exhaustive", "random")
# spans whose SearchResult is the one the CLI receives
RESULT_SPANS = ("search.run", "search.exhaustive")


class Tracer:
    def __init__(self):
        self.enabled = True
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack = [(0, "root")]
        self._next_id = 1
        self._undo: list[tuple] = []
        os.register_at_fork(after_in_child=self.uninstall)

    # -- span recording ---------------------------------------------------

    def _open(self, name: str) -> tuple:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0]
        self._stack.append((sid, name))
        return sid, parent, name, time.perf_counter_ns()

    def _close(self, token: tuple) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((*token, end))

    def _call(self, name, fn, args, kwargs):
        token = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(token)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            from_cli = tracer._stack[-1][1] == "cli"
            result = tracer._call(name, fn, args, kwargs)
            if name in RESULT_SPANS and from_cli:
                tracer.counts["search.evaluations"] += result.evaluations
            return result

        return traced

    def _wrap_entropy(self, fn):
        tracer = self

        @functools.wraps(fn)
        def joint_entropy(cache, edges_or_mask):
            if not tracer.enabled:
                return fn(cache, edges_or_mask)
            before = len(cache)
            h = tracer._call("entropy", fn, (cache, edges_or_mask), {})
            if len(cache) > before:
                mask = edges_or_mask if isinstance(edges_or_mask, int) else edges_to_mask(edges_or_mask, cache.f)
                tracer.counts["entropy.misses"] += 1
                tracer.counts["entropy.rows_computed"] += cache.q ** cache.f * bin(mask).count("1")
            return h

        return joint_entropy

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            _token = None

            def __enter__(self):
                if tracer.enabled:
                    self._token = tracer._open("search.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    if self._token is not None:
                        tracer._close(self._token)

            def submit(self, fn, /, *args, **kwargs):
                if tracer.enabled:
                    tracer.counts["search.pool.tasks"] += 1
                return super().submit(fn, *args, **kwargs)

        return TracedPool

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Replace every traced function in every loaded pqcbound module."""
        replace = {}
        for module, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            replace[id(original)] = (original, self._wrap(name, original))
        replace[id(ProcessPoolExecutor)] = (ProcessPoolExecutor, self._pool_class())
        for modname, module in list(sys.modules.items()):
            if modname != "pqcbound" and not modname.startswith("pqcbound."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))
        original = EntropyCache.joint_entropy
        EntropyCache.joint_entropy = self._wrap_entropy(original)
        self._undo.append((EntropyCache, "joint_entropy", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # -- results ----------------------------------------------------------

    def summary(self) -> tuple[Counter, Counter, Counter]:
        """Call count, total time and self time (ns) of each span name.

        Self time is a span's duration minus its direct children's; spans
        nest, since everything traced runs in one thread.
        """
        in_children: Counter = Counter()
        for _, parent, _, start, end in self.spans:
            in_children[parent] += end - start
        calls, total, own = Counter(), Counter(), Counter()
        for sid, _, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - in_children[sid]
        return calls, total, own

    def layer_metrics(self) -> dict:
        """The per-layer metrics of the spans and counts recorded so far."""
        calls, total, own = self.summary()
        entropy_calls = calls["entropy"]
        misses = self.counts["entropy.misses"]
        search_names = ["search.run"] + [f"search.{m}" for m in SEARCH_METHODS]
        metrics = {
            "entropy.calls": entropy_calls,
            "entropy.misses": misses,
            "entropy.hit_ratio": (entropy_calls - misses) / entropy_calls if entropy_calls else 0.0,
            "entropy.self_s": own["entropy"] / 1e9,
            "entropy.rows_computed": self.counts["entropy.rows_computed"],
            "bound.calls": calls["bound"],
            "bound.self_s": own["bound"] / 1e9,
            "search.self_s": sum(own[n] for n in search_names) / 1e9,
            "search.run.self_s": own["search.run"] / 1e9,
        }
        for m in SEARCH_METHODS:
            metrics[f"search.{m}.self_s"] = own[f"search.{m}"] / 1e9
        metrics.update({
            "search.evaluations": self.counts["search.evaluations"],
            "search.pool.tasks": self.counts["search.pool.tasks"],
            "search.pool.s": total["search.pool"] / 1e9,
            "graphs.path_counts.calls": calls["graphs.path_counts"],
            "graphs.path_counts.s": total["graphs.path_counts"] / 1e9,
            "cli.self_s": own["cli"] / 1e9,
        })
        return metrics

    def write_spans(self, fh, pass_index: int) -> None:
        for sid, parent, name, start, end in self.spans:
            fh.write(f"{pass_index},{sid},{parent},{name},{start},{end}\n")
