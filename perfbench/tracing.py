"""In-memory spans around the calls into each layer, for the traced run.

The benchmark measures end-to-end figures with tracing off.  A separate
traced run installs the wrappers below for its traced rounds only: each wraps a
public entry point *at the name its caller binds* (a module attribute such as
``repro.exploration.cost.PathEnumerator``, or a method on its class) and
records one span per call — name, start, end, parent and thread — into a
list kept in memory.  Nothing inside ``src/`` is edited or instrumented.

A span's *self* time is its duration minus the part of it that its child
spans cover.  ``check_spans`` is the sanity check the benchmark applies to
every traced run: a child never starts before or ends after its parent, and
on each thread the self times of all spans sum to no more than the measured
wall time.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple


class Span:
    """One timed call into a layer."""

    __slots__ = ("name", "start", "end", "parent", "thread", "count", "flag")

    def __init__(self, name: str, parent: Optional["Span"], thread: int) -> None:
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        #: A size the layer reports for this call (paths, messages, tasks...).
        self.count = 0
        #: A yes/no outcome of the call (e.g. an infeasible evaluation).
        self.flag = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread; per-thread stacks give parents."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._paused = False

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, measure=None):
        if self._paused:
            return fn(*args, **kwargs)
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if measure is not None:
            measure(span, result)
        return result

    @contextmanager
    def paused(self):
        """Record nothing inside (work the benchmark keeps off the clock)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False


# -- what gets wrapped -------------------------------------------------------


def _count_tasks(span: Span, result) -> None:
    span.count = len(result.tasks)


def _count_messages(span: Span, result) -> None:
    # For the calls that return the finished ExpandedGraph.
    span.count = len(result.communications)


def _flag_infeasible(span: Span, result) -> None:
    span.flag = not result.feasible


def _count_batch(span: Span, result) -> None:
    span.count = len(result)


def _enumerated_paths(real):
    """Factory standing in for ``PathEnumerator``: builds and enumerates.

    Callers construct an enumerator and immediately ask for its paths; doing
    both inside one span times path enumeration as a unit (the returned
    object is the real enumerator, its ``paths()`` tuple already cached).
    """
    def build(graph):
        enumerator = real(graph)
        enumerator.paths()
        return enumerator
    return build


def _count_enumerated(span: Span, result) -> None:
    span.count = len(result.paths())


#: (module, attribute, span name, measure, factory) — module-level names.
MODULE_TARGETS: Tuple = (
    ("repro.exploration.cost", "crossing_edges", "graph.communication", None, None),
    ("repro.exploration.cost", "expansion_structure", "graph.communication",
     None, None),
    ("repro.exploration.cost", "assign_buses", "graph.communication",
     _count_messages, None),
    ("repro.exploration.cost", "expand_communications", "graph.communication",
     _count_messages, None),
    ("repro.exploration.cost", "PathEnumerator", "graph.paths",
     _count_enumerated, _enumerated_paths),
    ("repro.exploration.cost", "evaluate_candidate", "exploration.cost",
     _flag_infeasible, None),
)

#: (module, class, method, span name, measure) — methods, wrapped on the class.
METHOD_TARGETS: Tuple = (
    ("repro.graph.cpg", "ConditionalProcessGraph", "guards", "graph.guards", None),
    ("repro.scheduling.list_scheduler", "PathListScheduler", "schedule",
     "scheduling.list_scheduler", _count_tasks),
    ("repro.scheduling.merging", "ScheduleMerger", "merge",
     "scheduling.merging", None),
    ("repro.exploration.evaluator", "CachedEvaluator", "evaluate_many",
     "exploration.evaluator", _count_batch),
    ("repro.exploration.engines", "TabuSearchEngine", "run",
     "exploration.engines", None),
    ("repro.exploration.genetic", "GeneticEngine", "run",
     "exploration.engines", None),
    ("repro.exploration.pool", "EvaluationPool", "evaluate",
     "exploration.pool", _count_batch),
    ("repro.service.client", "ServiceClient", "submit", "service.submit", None),
    ("repro.service.client", "ServiceClient", "status", "service.status", None),
    ("repro.service.client", "ServiceClient", "result", "service.result", None),
)


class Patches:
    """Installs the wrappers for one traced round and removes them after.

    ``extra_modules`` names further modules whose imported bindings of the
    wrapped module-level names should be wrapped as well — the benchmark's
    own workload code, which calls the graph and scheduling layers directly.
    """

    def __init__(self, recorder: Recorder, extra_modules=()) -> None:
        self._recorder = recorder
        self._extra = tuple(extra_modules)
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, measure, factory=None):
        recorder = self._recorder
        target = factory(fn) if factory is not None else fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.call(name, target, args, kwargs, measure)

        return wrapper

    def _set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def __enter__(self) -> "Patches":
        wrapped: Dict[int, object] = {}
        for module_name, attribute, name, measure, factory in MODULE_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            wrapper = self._wrap(original, name, measure, factory)
            wrapped[id(original)] = wrapper
            self._set(module, attribute, wrapper)
        for module in self._extra:
            for attribute, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._set(module, attribute, wrapped[id(value)])
        for module_name, class_name, method, name, measure in METHOD_TARGETS:
            owner = getattr(importlib.import_module(module_name), class_name)
            self._set(owner, method, self._wrap(owner.__dict__[method], name, measure))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


# -- from spans to per-layer figures -----------------------------------------


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span (keyed by ``id(span)``)."""
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            key = id(span.parent)
            covered[key] = covered.get(key, 0.0) + span.duration
    return {id(span): span.duration - covered.get(id(span), 0.0) for span in spans}


def check_spans(spans: List[Span], wall_seconds: float) -> List[str]:
    """Sanity problems of a traced run (an empty list when sound)."""
    problems: List[str] = []
    for span in spans:
        parent = span.parent
        if parent is not None and (
            span.start < parent.start or span.end > parent.end
        ):
            problems.append(f"span {span.name} exceeds its parent {parent.name}")
            break
    selfs = self_times(spans)
    per_thread: Dict[int, float] = {}
    for span in spans:
        per_thread[span.thread] = per_thread.get(span.thread, 0.0) + selfs[id(span)]
    for thread, total in per_thread.items():
        if total > wall_seconds * (1 + 1e-9):
            problems.append(
                f"self times on one thread sum to {total:.4f} s, more than the "
                f"phase's wall time {wall_seconds:.4f} s"
            )
    return problems


def outermost(spans: List[Span], name: str) -> List[Span]:
    """Spans of ``name`` not nested inside another span of the same name."""
    result = []
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and parent.name != name:
            parent = parent.parent
        if parent is None:
            result.append(span)
    return result


def layer_summary(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """calls / busy (outermost, inclusive) / self / count / flags per span name."""
    selfs = self_times(spans)
    summary: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = summary.setdefault(
            span.name,
            {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0, "flags": 0},
        )
        entry["calls"] += 1
        entry["self_s"] += selfs[id(span)]
        entry["count"] += span.count
        entry["flags"] += int(span.flag)
    for name, entry in summary.items():
        entry["busy_s"] = sum(span.duration for span in outermost(spans, name))
    return summary


def nested_under(spans: List[Span], name: str, ancestor: str) -> List[Span]:
    """Spans of ``name`` that run inside a span named ``ancestor``."""
    result = []
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and parent.name != ancestor:
            parent = parent.parent
        if parent is not None:
            result.append(span)
    return result
