"""Per-layer self times, measured from outside the program.

A traced cycle wraps the public entry points of each ``repro`` layer
(the benchmark changes no code under ``src/``) and keeps a stack of open
calls, so a layer's *self* time is its calls' wall-clock minus the part
covered by calls into other wrapped layers nested inside them -- e.g.
the build inside ``execute_batch`` counts to ``emulib``, not ``cpu``.

=================  =================================================
layer              wrapped entry points
=================  =================================================
``emulib.build``   ``repro.exp.engine.built_kernel`` / ``built_app``
                   (kernel, app and vc code generation through emulib)
``cpu.sim``        ``repro.exp.engine.execute_group`` (BatchCore or
                   per-point ``Core.run``; ``memsys`` host time is in
                   here, it has no public per-access entry point)
``exp.lookup``     ``repro.exp.engine.Session.lookup``
``exp.store``      ``repro.exp.engine.Session.store``
``serve.client``   the benchmark's awaits on ``repro.serve.AsyncClient``
=================  =================================================
"""

from __future__ import annotations

import functools
import time
from collections import Counter

now = time.perf_counter


class LayerClock:
    """Self time and call counts per layer, for one process."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []        # [layer, child seconds]
        self._serve_active = 0
        self._serve_since = 0.0

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` as one call into ``layer``."""
        start = now()
        self._stack.append([layer, 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            frame = self._stack.pop()
            spent = now() - start
            self.self_s[layer] += spent - frame[1]
            self.counts[layer] += 1
            if self._stack:
                self._stack[-1][1] += spent

    # Two clients await the server concurrently on one event loop, so the
    # serve layer's self time is the union of their open intervals.
    def serve_enter(self) -> None:
        if self._serve_active == 0:
            self._serve_since = now()
        self._serve_active += 1

    def serve_exit(self) -> None:
        self._serve_active -= 1
        if self._serve_active == 0:
            self.self_s["serve.client"] += now() - self._serve_since


def install(clock: LayerClock, on_build, on_group) -> None:
    """Wrap the engine's layer entry points to report into ``clock``.

    ``on_build(key, built)`` sees every build call's result and
    ``on_group(points, results)`` every executed same-trace group, so
    the caller can count work without touching private state.
    """
    from repro.exp import engine

    def wrap_build(fn, kind):
        @functools.wraps(fn)
        def built(target, isa, scale=1):
            result = clock.call("emulib.build", fn, target, isa, scale)
            on_build((kind, target, isa, scale), result)
            return result
        return built

    def wrap_group(fn):
        @functools.wraps(fn)
        def execute_group(points, **kwargs):
            results = clock.call("cpu.sim", fn, points, **kwargs)
            on_group(points, results)
            return results
        return execute_group

    lookup_fn = engine.Session.lookup
    store_fn = engine.Session.store

    @functools.wraps(lookup_fn)
    def lookup(self, point):
        result = clock.call("exp.lookup", lookup_fn, self, point)
        if result is not None:
            clock.counts["exp.lookup.hit"] += 1
        return result

    @functools.wraps(store_fn)
    def store(self, point, result):
        return clock.call("exp.store", store_fn, self, point, result)

    engine.built_kernel = wrap_build(engine.built_kernel, "kernel")
    engine.built_app = wrap_build(engine.built_app, "app")
    engine.execute_group = wrap_group(engine.execute_group)
    engine.Session.lookup = lookup
    engine.Session.store = store
