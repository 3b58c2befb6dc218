"""Outside-in layer spans: wrap each layer's public entry points from here.

The program under test carries no instrumentation of its own for this
benchmark.  A traced run instead replaces a fixed set of functions and
methods (:data:`WRAPS`) with timing wrappers for the duration of the
run, and restores the originals afterwards.  Every wrapped call becomes
a span with a parent (the innermost wrapped call still open when it
started), so each layer's *self time* is its spans' durations minus the
part covered by their timed children.

What the outside-in split cannot separate: ``CPU.run_chunk`` translates
a chunk, scans it for trap candidates and runs the in-order delivery
loop in one call, so ``machine.cpu.self_s`` is scan and delivery
together (minus the handler, page-fault and clock-tick children).  The
dispatcher's own bookkeeping also lands there, since the span boundary
is the Tapeworm handler it calls.  Splitting those needs spans inside
the program.  Spans are recorded in this process only: farm workers fork
with the wrappers installed, but what they record stays in the worker,
so on ``farm_store`` every worker-side layer is inside ``farm.run_jobs``
and counts as ``farm`` self time.

Wrappers must be installed before the simulated objects that cache
bound methods are built (the kernel binds its page-fault and tick
handlers at boot, Tapeworm binds its miss handler at install); every
such object is built per operation, so installing between operations is
enough.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: (span name, module, attribute path) of every wrapped entry point; the
#: layer of a span is the first component of its name
WRAPS: tuple[tuple[str, str, str], ...] = (
    ("streams.stream_for", "repro.streams.session", "StreamSession.stream_for"),
    ("streams.compile", "repro.streams.session", "compile_stream"),
    ("streams.next_chunk", "repro.streams.compile", "CompiledStream.next_chunk"),
    ("streams.store.get", "repro.streams.store", "StreamStore.get"),
    ("streams.store.put", "repro.streams.store", "StreamStore.put"),
    ("kernel.boot", "repro.kernel.kernel", "Kernel.__init__"),
    ("kernel.run_chunk", "repro.kernel.kernel", "Kernel.run_chunk"),
    ("kernel.fork", "repro.kernel.kernel", "Kernel.fork"),
    ("kernel.exit_task", "repro.kernel.kernel", "Kernel.exit_task"),
    ("kernel.tick", "repro.kernel.kernel", "Kernel._clock_tick"),
    ("kernel.vm.fault", "repro.kernel.vm", "VMSystem.fault"),
    ("kernel.scheduler.next_round", "repro.kernel.scheduler",
     "SlicePlanner.next_round"),
    ("machine.cpu.run_chunk", "repro.machine.cpu", "CPU.run_chunk"),
    ("machine.ecc.diagnose", "repro.machine.ecc", "ECCController.diagnose"),
    ("core.init", "repro.core.tapeworm", "Tapeworm.__init__"),
    ("core.install", "repro.core.tapeworm", "Tapeworm.install"),
    ("core.handler", "repro.core.tapeworm", "Tapeworm._miss_trap"),
    ("core.tw_register_page", "repro.core.tapeworm", "Tapeworm.tw_register_page"),
    ("core.tw_remove_page", "repro.core.tapeworm", "Tapeworm.tw_remove_page"),
    ("core.tw_replace", "repro.core.replace", "Replacer.tw_replace"),
    ("core.tw_set_trap", "repro.core.primitives", "TrapPrimitives.tw_set_trap"),
    ("core.tw_clear_trap", "repro.core.primitives", "TrapPrimitives.tw_clear_trap"),
    ("core.tw_set_page_trap", "repro.core.primitives",
     "TrapPrimitives.tw_set_page_trap"),
    ("core.tw_clear_page_trap", "repro.core.primitives",
     "TrapPrimitives.tw_clear_page_trap"),
    ("caches.cache2000.simulate_chunk", "repro.tracing.cache2000",
     "Cache2000.simulate_chunk"),
    ("caches.grid.simulate_chunk", "repro.caches.gridsweep",
     "GridSweepSimulator.simulate_chunk"),
    ("caches.compile_kernel", "repro.caches.pipeline.registry", "run_pipeline"),
    ("tracing.run_trace_driven", "repro.harness.runner", "run_trace_driven"),
    ("tracing.run_grid_sweep", "repro.caches.gridsweep", "run_grid_sweep"),
    ("harness.run_trap_driven", "repro.harness.runner", "run_trap_driven"),
    ("farm.run_jobs", "repro.farm.pool", "Farm.run_jobs"),
    ("farm.cache.get", "repro.farm.cache", "ResultCache.get"),
    ("farm.cache.put", "repro.farm.cache", "ResultCache.put"),
)

#: the layers the benchmark attributes time to, in report order
LAYERS = (
    "streams", "kernel", "machine", "core", "caches", "tracing", "harness",
    "farm",
)

#: self time of these layers counts as unattributed: ``bench`` is the
#: benchmark's own loop, ``harness`` the glue around the simulator
UNATTRIBUTED_LAYERS = frozenset({"bench", "harness"})

#: spans kept for the Chrome trace; aggregates cover every span
DEFAULT_CAPACITY = 100_000

#: Chrome-trace process id of the benchmark's span lane
TRACE_PID = 50


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class LayerTracer:
    """Span recorder plus per-phase aggregates of calls, time and self time.

    ``totals[phase][name]`` is ``[calls, seconds, self_seconds]``.  Spans
    claim their record slot on entry, so roots survive when the capacity
    runs out; later spans are counted in ``dropped`` but still
    aggregated.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self.records: list[list[Any]] = []
        self.dropped = 0
        self.totals: dict[str, dict[str, list]] = {}
        self.origin = time.perf_counter()
        self._stack: list[list[Any]] = []
        self._next_id = 1
        self._phase: dict[str, list] = self.totals.setdefault("setup", {})
        self._installed: list[tuple[Any, str, Any]] = []

    def set_phase(self, phase: str) -> None:
        self._phase = self.totals.setdefault(phase, {})

    # -- span bookkeeping

    def _open(self, name: str, start: float) -> list[Any]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][2] if self._stack else None
        record = None
        if len(self.records) < self.capacity:
            record = [name, span_id, parent, start, 0.0]
            self.records.append(record)
        else:
            self.dropped += 1
        frame = [start, 0.0, span_id, record]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list[Any], end: float) -> None:
        duration = end - frame[0]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        entry = self._phase.get(name)
        if entry is None:
            entry = self._phase[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        if frame[3] is not None:
            frame[3][4] = duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self._open(name, time.perf_counter())
        try:
            yield
        finally:
            self._close(name, frame, time.perf_counter())

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = time.perf_counter
        open_span = self._open
        close_span = self._close

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = open_span(name, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(name, frame, clock())

        return timed

    # -- installation

    def install(self) -> None:
        """Replace every entry point in :data:`WRAPS` with a timed one."""
        if self._installed:
            raise RuntimeError("layer wrappers are already installed")
        for name, module, path in WRAPS:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(name, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every original entry point."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reading the aggregates

    def layer_self(self, phase: str) -> dict[str, float]:
        """Self seconds per layer (first name component) in one phase."""
        out: dict[str, float] = {}
        for name, (_, _, self_s) in self.totals.get(phase, {}).items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def chrome_trace(self, other: dict[str, Any]) -> dict[str, Any]:
        """Every kept span as a Chrome ``trace_event`` document, in the
        shape the repository's own trace export uses (``repro trace
        merge`` reads it)."""
        from repro.telemetry.spans import Span, chrome_span_events

        spans = [
            Span(
                name=name,
                span_id=span_id,
                parent_id=parent,
                start_us=(start - self.origin) * 1e6,
                dur_us=duration * 1e6,
            )
            for name, span_id, parent, start, duration in self.records
        ]
        events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": 0,
                "args": {"name": "perfbench outside-in layer spans"},
            }
        ]
        events.extend(chrome_span_events(spans, pid=TRACE_PID, tid=1))
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(other, dropped_spans=self.dropped),
        }
