"""Trap kinds, trap frames, and the kernel trap dispatch table.

Every hardware event that enters the kernel is represented as a
:class:`TrapFrame`.  The kernel installs handlers on a
:class:`TrapDispatcher`; Tapeworm's miss handler is just one such handler
(for :data:`TrapKind.ECC_ERROR` or :data:`TrapKind.PAGE_INVALID`),
registered through the kernel exactly as the paper describes — "modified
kernel entry code" directing these traps to Tapeworm.

A handler returns the number of cycles it consumed, which the CPU adds to
the run's overhead.  This is how the paper's 246-cycle miss handler turns
into measured slowdown.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple

from repro._types import Component
from repro.errors import MachineError
from repro.telemetry.session import active as _telemetry


class TrapKind(enum.Enum):
    """Hardware events that vector into the kernel."""

    ECC_ERROR = "ecc_error"
    PAGE_INVALID = "page_invalid"
    PAGE_FAULT = "page_fault"
    BREAKPOINT = "breakpoint"
    TLB_MISS = "tlb_miss"
    CLOCK_INTERRUPT = "clock_interrupt"
    DOUBLE_BIT_ERROR = "double_bit_error"


class TrapFrame(NamedTuple):
    """State pushed by the (simulated) hardware on a kernel entry.

    An immutable record, built once per delivered trap: a named tuple
    costs a fraction of a frozen dataclass to construct.
    """

    kind: TrapKind
    tid: int
    component: Component
    va: int
    pa: int
    cycle: int


#: A trap handler consumes a frame and returns the cycles it spent.
TrapHandler = Callable[[TrapFrame], int]


class BatchHandler(NamedTuple):
    """A whole-segment handler installed beside a per-trap handler.

    ``deliver(ctx, pas, granules, trapped)`` handles every trap of one
    fully mapped segment at once and returns ``(traps, cycles)``.  The
    CPU uses it only while ``per_trap`` is still the installed handler
    of its kind, ``observed()`` is false (nothing wrapped the handler's
    own steps) and ``reasons`` — the configurations the batch handler
    cannot serve — is empty.
    """

    per_trap: TrapHandler
    deliver: Callable[..., tuple[int, int]]
    observed: Callable[[], bool]
    reasons: tuple[str, ...]


class TrapDispatcher:
    """The kernel's trap vector table."""

    def __init__(self) -> None:
        self._handlers: dict[TrapKind, TrapHandler] = {}
        self._batch: dict[TrapKind, BatchHandler] = {}
        self.counts: dict[TrapKind, int] = {kind: 0 for kind in TrapKind}

    def install(self, kind: TrapKind, handler: TrapHandler) -> None:
        if kind in self._handlers:
            raise MachineError(f"a handler is already installed for {kind}")
        self._handlers[kind] = handler

    def replace(self, kind: TrapKind, handler: TrapHandler) -> TrapHandler | None:
        """Swap in a new handler, returning the old one (or None)."""
        old = self._handlers.get(kind)
        self._handlers[kind] = handler
        return old

    def uninstall(self, kind: TrapKind) -> None:
        if kind not in self._handlers:
            raise MachineError(f"no handler installed for {kind}")
        del self._handlers[kind]

    def installed(self, kind: TrapKind) -> bool:
        return kind in self._handlers

    def install_batch(self, kind: TrapKind, batch: BatchHandler) -> None:
        self._batch[kind] = batch

    def uninstall_batch(self, kind: TrapKind) -> None:
        self._batch.pop(kind, None)

    def batch_handler(self, kind: TrapKind) -> BatchHandler | None:
        """The batch handler of ``kind`` while the per-trap handler it
        stands beside is still installed, else None."""
        batch = self._batch.get(kind)
        if batch is None or self._handlers.get(kind) is not batch.per_trap:
            return None
        return batch

    def dispatch_batch(self, kind: TrapKind, *segment) -> tuple[int, int]:
        """Deliver one segment's traps through the batch handler of
        ``kind``, counting them as per-trap dispatch would.  Returns
        ``(traps, cycles)``."""
        traps, cycles = self._batch[kind].deliver(*segment)
        self.counts[kind] += traps
        return traps, cycles

    def dispatch(self, frame: TrapFrame) -> int:
        """Deliver a trap; returns handler cycles (0 if unhandled)."""
        self.counts[frame.kind] += 1
        handler = self._handlers.get(frame.kind)
        cycles = 0 if handler is None else handler(frame)
        session = _telemetry()
        if session is not None and session.trace_machine:
            session.trace.trap(frame, cycles)
        return cycles

    def publish_metrics(self, metrics) -> None:
        """Copy dispatch totals into a metrics registry
        (``machine.traps.dispatched{kind=...}``)."""
        for kind, count in self.counts.items():
            if count:
                metrics.counter(
                    "machine.traps.dispatched", kind=kind.value
                ).inc(count)
