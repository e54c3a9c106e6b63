"""In-memory span tracer for the benchmark's traced run.

``Tracer.install`` replaces each traced powertext function by a wrapper, in
every powertext module namespace that binds it, which is where the pipeline
looks it up (``report`` calls its own ``compute_stats`` name, ``entities``
its own ``normalize``).  ``uninstall`` puts the originals back.  The
untraced run never installs it.

A span is ``(name, parent, doc, start_ns, end_ns)``; ``parent`` is the index
of the enclosing span or -1.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import Counter, defaultdict

# Functions recorded as spans, by "<module>.<function>".
SPAN_FUNCTIONS = (
    "cli.main",
    "corpus.load_manifest",
    "corpus.load_corpus",
    "corpus.strip_gutenberg_boilerplate",
    "corpus.strip_html",
    "corpus.aggregate",
    "report.load_resources",
    "report.analyze",
    "report.render_structured",
    "textcore.build_document",
    "textcore.split_sentences",
    "textcore.tokenize",
    "textcore.compute_stats",
    "readability.readability_report",
    "powerwords.scan",
    "powerwords.distribution",
    "sentiment.analyze_sentiment",
    "entities.tag_entities",
)

# Functions too small and too frequent for a span: only their calls are counted.
COUNTED_FUNCTIONS = ("textcore.normalize", "textcore.count_syllables")

# Counts read off a traced function's result.
RESULT_COUNTS = {
    "powerwords.scan": ("powerwords.matches", lambda hits: len(hits.matches)),
    "sentiment.analyze_sentiment": ("sentiment.matched_terms", lambda score: score.matched_terms),
    "entities.tag_entities": ("entities.spans", len),
}


def _doc_of(name: str, args: tuple) -> str | None:
    """The document a call works on, when its first argument names one."""
    if not args:
        return None
    if name == "textcore.build_document":
        return args[0]
    return getattr(args[0], "doc_id", None)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, str, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.doc = "-"  # document label for spans whose arguments name none
        self.gc_ns = 0
        self.gc_collections = 0
        self._stack: list[tuple[int, str]] = []  # open spans: (index, doc)
        self._gc_started = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        result_count = RESULT_COUNTS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent, parent_doc = stack[-1] if stack else (-1, self.doc)
            doc = _doc_of(name, args) or parent_doc
            index = len(spans)
            spans.append(None)
            stack.append((index, doc))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, doc, start, end)
            if result_count is not None:
                self.counts[result_count[0]] += result_count[1](result)
            return result

        return traced

    def _counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_started
            self.gc_collections += 1

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "powertext" or name.startswith("powertext.")
        ]
        for qualname in SPAN_FUNCTIONS + COUNTED_FUNCTIONS:
            module_name, attr = qualname.split(".")
            original = getattr(sys.modules[f"powertext.{module_name}"], attr)
            make = self._span if qualname in SPAN_FUNCTIONS else self._counter
            wrapper = make(qualname, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self, first: int, last: int) -> dict[tuple[str, str], float]:
        """Self seconds of the spans ``first..last-1`` by (name, doc).

        The range must hold whole span trees (a pass of the workload)."""
        child_ns: defaultdict[int, int] = defaultdict(int)
        for index in range(first, last):
            _name, parent, _doc, start, end = self.spans[index]
            if parent >= 0:
                child_ns[parent] += end - start
        totals: defaultdict[tuple[str, str], float] = defaultdict(float)
        for index in range(first, last):
            name, _parent, doc, start, end = self.spans[index]
            totals[name, doc] += (end - start - child_ns[index]) / 1e9
        return dict(totals)

    def write_spans(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tdoc\tstart_ns\tend_ns\n")
            for index, (name, parent, doc, start, end) in enumerate(self.spans):
                out.write(f"{index}\t{parent}\t{name}\t{doc}\t{start}\t{end}\n")
