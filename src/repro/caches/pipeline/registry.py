"""The in-process kernel memo: compose once per request, hand out forever.

:func:`compile_kernel` is the only entry point the simulators use: it
keys a per-process program dict directly on the (hashable)
:class:`~repro.caches.pipeline.request.KernelRequest`, so constructing
a simulator whose configuration was seen before is one dict probe.  A
miss calls :func:`run_pipeline` through this module's global name, so a
profiler that wraps that name sees every compose.
"""

from __future__ import annotations

from repro.caches.pipeline.compose import COMPOSERS, KernelProgram, select_kernel
from repro.caches.pipeline.request import KernelRequest

_programs: dict[KernelRequest, KernelProgram] = {}


def run_pipeline(request: KernelRequest) -> KernelProgram:
    """Select, compose and (for ``--profile`` requests) shim one kernel."""
    capabilities = select_kernel(request)
    fields = COMPOSERS[capabilities.selected](request)
    phase_name = fields.pop("phase_name")
    inner = fields.get("run")
    if request.profile and phase_name is not None and inner is not None:
        from repro.telemetry.profile import phase

        def run(state, payload, tid: int = 0):
            with phase(phase_name):
                return inner(state, payload, tid)

        fields["run"] = run
    return KernelProgram(request=request, capabilities=capabilities, **fields)


def compile_kernel(request: KernelRequest) -> KernelProgram:
    """The composed program for ``request`` (composed on first use)."""
    program = _programs.get(request)
    if program is None:
        program = _programs[request] = run_pipeline(request)
    return program


def reset_default_registry() -> None:
    """Forget every composed program (tests, benchmarks, services)."""
    _programs.clear()
