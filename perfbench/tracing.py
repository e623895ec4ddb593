"""Span tracing from outside the program: wrap jamnet's public functions.

``Tracer`` replaces every public jamnet function bound in the traced modules
with a timing wrapper, and restores the originals when it is closed.  A name
imported into another module (``validate_profile`` in ``asym`` and
``simulate``, ``validate_scenario`` in ``cli``) is wrapped there too, under
the name of the module that defines it, so calls through either binding are
seen.

Each call to a wrapped function is a span: name, start, end, parent span and
command id, kept in memory.  Functions called in tight loops (the MMSE oracle
and its helpers, the adversary root-find, the setting-I cost inside the
threshold bisection, the CEO distortion) would produce thousands of spans per
command, so their calls are instead aggregated (count, total time) into the
nearest ordinary ancestor span.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import time

MODULES = ("cli", "model", "symmetric", "asym", "simulate", "bounds")

AGGREGATED = frozenset({
    "asym.direct_mmse_cost",
    "asym.channel_moments",
    "asym.bayes_decoder_gain",
    "asym.adversary_linear_response",
    "model.adversary_second_moments",
    "symmetric.cost_inputs",
    "symmetric.cost_setting1",
    "symmetric.setting2_formula",
    "symmetric.effective_jam_power",
    "bounds.ceo_distortion",
})


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int | None
    command: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children (spans and aggregated calls)
    ok: bool = False
    aggregated: dict = dataclasses.field(default_factory=dict)  # name -> [calls, seconds]
    work: float = 0.0  # from the span's counter, if it has one

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class _Call:
    """Stack frame of an aggregated call: it has no span of its own."""

    __slots__ = ("child_s", "owner")

    def __init__(self, owner: Span | None):
        self.child_s = 0.0
        self.owner = owner


class Tracer:
    """Context manager: wraps on enter, restores on exit.

    ``counters`` maps a span name to a function of the call's arguments that
    gives the work the call does (e.g. normals drawn); it is stored in
    ``Span.work``.
    """

    def __init__(self, package, counters=None):
        self.modules = [getattr(package, name) for name in MODULES]
        self.counters = dict(counters or {})
        self.spans: list[Span] = []
        self.orphans: dict = {}  # aggregated calls made outside any span
        self.command: int | None = None
        self._stack: list = []
        self._patched: list = []
        self._ids = itertools.count()

    def __enter__(self):
        wrappers = {}
        for module in self.modules:
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith("jamnet."):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn)
                self._patched.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])
        return self

    def __exit__(self, *exc_info):
        self.restore()
        return False

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        aggregated = name in AGGREGATED
        counter = self.counters.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        ids = self._ids
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            owner = parent.owner if isinstance(parent, _Call) else parent
            if aggregated:
                frame = _Call(owner)
            else:
                frame = Span(next(ids), name,
                             None if owner is None else owner.id, tracer.command, 0.0)
                if counter is not None:
                    frame.work = counter(*args, **kwargs)
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent.child_s += elapsed
                if aggregated:
                    bucket = (tracer.orphans if owner is None else owner.aggregated)
                    entry = bucket.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
                else:
                    frame.start, frame.end, frame.ok = start, end, ok
                    spans.append(frame)

        return wrapper
