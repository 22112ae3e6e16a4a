"""Wall-clock spans around calls into the UDR's layers, installed from outside.

The program under test carries no tracing of its own.  :func:`install`
replaces the functions of each layer's modules with thin wrappers that record
a span per call: its start, end, parent span and trace (request) id.  The
first ``SPAN_LIMIT`` spans are kept in memory and written out at the end by
:meth:`Tracer.write_spans`; later ones are only counted (``dropped``).  The
per-function time and call tables cover every span.

A layer's *self time* is the time of its spans minus the part covered by
their child spans, so time spent in an unwrapped helper counts for the
nearest wrapped caller, and time outside every span is ``unattributed``.

Simulation processes are generators that the engine resumes many times.  A
wrapped generator function returns a driver generator that opens one span per
resume, so a pipeline stage's work is charged to the pipeline even though the
engine (the ``sim`` layer) is the code that resumes it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from typing import Dict, List, Optional

#: Which modules make up each layer.  ``repro.core`` is split: the
#: dispatcher and the pipeline are layers of their own, the façade belongs
#: to the API and the deployment handle (placement and identity
#: registration) plus the PoA location caches to the directory.
LAYER_MODULES: Dict[str, tuple] = {
    "api": ("repro.api", "repro.core.udr"),
    "dispatcher": ("repro.core.dispatcher",),
    "pipeline": ("repro.core.pipeline",),
    "ldap": ("repro.ldap",),
    "directory": ("repro.directory", "repro.core.deployment",
                  "repro.core.location_cache"),
    "storage": ("repro.storage",),
    "replication": ("repro.replication",),
    "net": ("repro.net",),
    "sim": ("repro.sim",),
    "metrics": ("repro.metrics",),
    "subscriber": ("repro.subscriber",),
}
LAYERS = tuple(LAYER_MODULES)

#: Generator functions that are plain iterators, not simulation processes:
#: a span per yielded item would cost more than the work it measures.
ITERATORS = frozenset({
    "repro.directory.identity_map.IdentityLocationMap.entries",
    "repro.net.topology.NetworkTopology.site_pairs",
    "repro.subscriber.generator.SubscriberGenerator.stream",
})

#: ``RecordStore.keys`` gets a counting wrapper instead of spans: the
#: number of keys it yields inside ``has_capacity_for`` is the placement
#: scan this benchmark watches.
KEYS = "repro.storage.engine.RecordStore.keys"
CAPACITY_CHECK = "repro.storage.storage_element.StorageElement.has_capacity_for"

#: Private functions wrapped as well: DN escaping and parsing, measured as
#: ``ldap.dn_s``.
EXTRA = frozenset({
    "repro.ldap.dn._escape_value",
    "repro.ldap.dn._split_on_unescaped",
    "repro.ldap.dn.DistinguishedName.__init__",
    "repro.ldap.dn.DistinguishedName.__str__",
})

#: Calls that start a new trace id: one client request, one dispatcher wave
#: or one bulk load.  Spans opened beneath them (including resumes of the
#: generators they create) carry that id; every resume of a generator root
#: (the dispatcher wave) carries the id its call was given.
TRACE_ROOTS = frozenset({
    "repro.api.session.Session.submit",
    "repro.api.session.Session.call",
    "repro.core.dispatcher.BatchDispatcher._dispatch_wave",
    "repro.core.udr.UDRNetworkFunction.load_subscriber_base",
})

#: Spans kept in memory and written out (about 230 bytes each); later spans
#: still count in the time and call tables.
SPAN_LIMIT = 200_000

#: Functions whose first argument's length is summed (``arg_items``).
SIZED_ARGUMENT = frozenset({
    "repro.core.pipeline.BatchAdmissionStage.order",
})


class Tracer:
    """In-memory span recorder with per-function time and call tables."""

    def __init__(self):
        self.enabled = False
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.index: Dict[str, int] = {}
        self.self_time: List[float] = []
        self.total_time: List[float] = []
        self.calls: List[int] = []
        self.arg_items: Dict[str, int] = {}
        self.keys_in_capacity_check = 0
        self.capacity_depth = 0
        #: Open spans, innermost last: ``[child_seconds, span_id]``.
        self.stack: List[list] = []
        #: Closed spans: ``(span_id, parent_id, trace_id, name_index,
        #: start, end)``; parent 0 is "no parent".
        self.spans: List[tuple] = []
        #: Spans closed after ``SPAN_LIMIT`` were kept, so not written.
        self.dropped = 0
        self.next_span = 1
        self.next_trace = 1
        self.trace = 0

    def register(self, name: str, layer: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.index[name] = index
        self.self_time.append(0.0)
        self.total_time.append(0.0)
        self.calls.append(0)
        return index

    # -- wrappers -------------------------------------------------------------

    def wrap_function(self, fn, name: str, layer: str):
        index = self.register(name, layer)
        tracer = self
        stack = self.stack
        self_time, total_time, calls = \
            self.self_time, self.total_time, self.calls
        spans = self.spans
        clock = time.perf_counter
        root = name in TRACE_ROOTS
        sized = name in SIZED_ARGUMENT
        capacity = name == CAPACITY_CHECK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if sized:
                tracer.arg_items[name] = \
                    tracer.arg_items.get(name, 0) + len(args[1])
            saved_trace = tracer.trace
            if root:
                tracer.trace = tracer.next_trace
                tracer.next_trace += 1
            span_id = tracer.next_span
            tracer.next_span = span_id + 1
            parent_id = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            if capacity:
                tracer.capacity_depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                if capacity:
                    tracer.capacity_depth -= 1
                stack.pop()
                duration = end - start
                self_time[index] += duration - frame[0]
                total_time[index] += duration
                calls[index] += 1
                if stack:
                    stack[-1][0] += duration
                if len(spans) < SPAN_LIMIT:
                    spans.append((span_id, parent_id, tracer.trace, index,
                                  start, end))
                else:
                    tracer.dropped += 1
                tracer.trace = saved_trace

        return traced

    def wrap_generator(self, fn, name: str, layer: str):
        index = self.register(name, layer)
        tracer = self
        stack = self.stack
        self_time, total_time, calls = \
            self.self_time, self.total_time, self.calls
        spans = self.spans
        clock = time.perf_counter
        root = name in TRACE_ROOTS

        def resume(generator, send_value, error):
            """One step of the wrapped generator: ``(finished, value)``."""
            try:
                if error is None:
                    return False, generator.send(send_value)
                return False, generator.throw(error)
            except StopIteration as stop:
                return True, stop.value

        def drive(generator, trace_id):
            send_value = None
            error: Optional[BaseException] = None
            while True:
                if not tracer.enabled:
                    finished, value = resume(generator, send_value, error)
                else:
                    saved_trace = tracer.trace
                    tracer.trace = trace_id
                    span_id = tracer.next_span
                    tracer.next_span = span_id + 1
                    parent_id = stack[-1][1] if stack else 0
                    frame = [0.0, span_id]
                    stack.append(frame)
                    start = clock()
                    try:
                        finished, value = resume(generator, send_value, error)
                    finally:
                        end = clock()
                        stack.pop()
                        duration = end - start
                        self_time[index] += duration - frame[0]
                        total_time[index] += duration
                        calls[index] += 1
                        if stack:
                            stack[-1][0] += duration
                        if len(spans) < SPAN_LIMIT:
                            spans.append((span_id, parent_id, trace_id,
                                          index, start, end))
                        else:
                            tracer.dropped += 1
                        tracer.trace = saved_trace
                if finished:
                    return value
                error = None
                try:
                    send_value = yield value
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as raised:  # forwarded into the body
                    error = raised
                    send_value = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Wrapped even while tracing is off: a process created during
            # set-up (the dispatch loop, replication rounds) is traced once
            # tracing is switched on.
            trace_id = tracer.trace
            if root:
                trace_id = tracer.next_trace
                tracer.next_trace += 1
            return drive(fn(*args, **kwargs), trace_id)

        return traced

    def wrap_keys(self, fn):
        tracer = self

        @functools.wraps(fn)
        def keys(*args, **kwargs):
            if not tracer.enabled or not tracer.capacity_depth:
                yield from fn(*args, **kwargs)
                return
            for key in fn(*args, **kwargs):
                tracer.keys_in_capacity_check += 1
                yield key

        return keys

    # -- reports --------------------------------------------------------------

    def self_by_layer(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for index, layer in enumerate(self.layer_of):
            totals[layer] += self.self_time[index]
        return totals

    def total(self, name: str) -> float:
        index = self.index.get(name)
        return 0.0 if index is None else self.total_time[index]

    def count(self, name: str) -> int:
        index = self.index.get(name)
        return 0 if index is None else self.calls[index]

    def self_in_module(self, module: str) -> float:
        prefix = module + "."
        return sum(self.self_time[index]
                   for index, name in enumerate(self.names)
                   if name.startswith(prefix))

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON lines after a header naming the
        functions and the number of spans dropped; returns how many were
        written."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"names": self.names,
                                     "layers": self.layer_of,
                                     "dropped": self.dropped,
                                     "fields": ["span", "parent", "trace",
                                                "name", "start_s", "end_s"]})
                         + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        return len(self.spans)


def _layer_modules():
    """``(module, layer)`` for every module of every layer."""
    for layer, prefixes in LAYER_MODULES.items():
        for prefix in prefixes:
            package = importlib.import_module(prefix)
            yield package, layer
            if hasattr(package, "__path__"):
                for info in pkgutil.walk_packages(package.__path__,
                                                  prefix + "."):
                    yield importlib.import_module(info.name), layer


def _wants(name: str, attribute: str, function) -> bool:
    if name in EXTRA:
        return True
    if attribute.startswith("__"):
        return False
    # Private generators are wrapped too: they run as simulation processes
    # (dispatch loop, replication rounds), which would otherwise be charged
    # to the engine that resumes them.
    return not attribute.startswith("_") or \
        inspect.isgeneratorfunction(function)


def _wrap(tracer: Tracer, function, name: str, layer: str):
    if name == KEYS:
        return tracer.wrap_keys(function)
    if inspect.isgeneratorfunction(function):
        if name in ITERATORS:
            return None
        return tracer.wrap_generator(function, name, layer)
    return tracer.wrap_function(function, name, layer)


def install(tracer: Tracer) -> int:
    """Wrap every layer's functions in place; returns how many were wrapped.

    Call before any deployment is built, so bound methods captured at build
    time are the wrapped ones.  Module-level functions are also replaced
    wherever another ``repro`` module imported them by name.
    """
    replaced = {}
    for module, layer in _layer_modules():
        for attribute, value in list(vars(module).items()):
            if inspect.isclass(value) and value.__module__ == module.__name__:
                if issubclass(value, BaseException) or \
                        type(value).__name__ in ("EnumMeta", "EnumType"):
                    continue
                for member, raw in list(vars(value).items()):
                    kind = None
                    function = raw
                    if isinstance(raw, staticmethod):
                        kind, function = staticmethod, raw.__func__
                    elif isinstance(raw, classmethod):
                        kind, function = classmethod, raw.__func__
                    if not inspect.isfunction(function):
                        continue
                    name = f"{module.__name__}.{value.__name__}.{member}"
                    if not _wants(name, member, function):
                        continue
                    wrapped = _wrap(tracer, function, name, layer)
                    if wrapped is not None:
                        setattr(value, member,
                                kind(wrapped) if kind else wrapped)
            elif inspect.isfunction(value) and \
                    value.__module__ == module.__name__:
                name = f"{module.__name__}.{attribute}"
                if not _wants(name, attribute, value):
                    continue
                wrapped = _wrap(tracer, value, name, layer)
                if wrapped is not None:
                    replaced[id(value)] = (value, wrapped)
                    setattr(module, attribute, wrapped)
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro.") or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            entry = replaced.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attribute, entry[1])
    return len(tracer.names)
