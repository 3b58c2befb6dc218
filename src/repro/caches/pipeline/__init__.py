"""Kernel selection and composition for the chunk engine.

Given a ``(geometry, policy, indexing, profiling, mechanisms)``
configuration, this package selects one kernel path, composes a
specialized chunk-access kernel for it *once*, memoizes it per process,
and hands back a program the hot loop invokes with zero per-chunk
dispatch.

``Cache2000``, ``MultiSizeDMSweep``, ``GridSweepSimulator``,
``SimulatedTLB`` and the CPU chunk engine all request kernels here
instead of branching inline; the capability report on each program says
which path a configuration runs and why.  See "Kernel selection" in
docs/INTERNALS.md.
"""

from repro.caches.pipeline.compose import (
    CapabilityReport,
    KernelProgram,
    select_kernel,
)
from repro.caches.pipeline.registry import (
    compile_kernel,
    reset_default_registry,
    run_pipeline,
)
from repro.caches.pipeline.request import (
    KernelRequest,
    cache_request,
    grid_request,
    scan_request,
    sweep_request,
    tlb_request,
)

__all__ = [
    "CapabilityReport",
    "KernelProgram",
    "KernelRequest",
    "cache_request",
    "compile_kernel",
    "grid_request",
    "reset_default_registry",
    "run_pipeline",
    "scan_request",
    "select_kernel",
    "sweep_request",
    "tlb_request",
]
