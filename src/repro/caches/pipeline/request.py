"""Kernel requests: the configuration tuple a composed kernel answers.

A :class:`KernelRequest` is the *complete* input of kernel composition —
geometry, replacement policy, indexing, profiling shims, forced-general
overrides, active trap mechanisms.  It is frozen and hashable so the
registry can memoize composed programs directly on the request.  Which
kernel a configuration runs is a pure function of the request and the
code version, so the run manifest's ``config_hash``/``code_version``
pair already identifies it; requests carry no separate fingerprint.

The policy is carried by *name*, not instance: composed kernels never
bake replacement state into the closure (the grouped paths need only
"is it LRU", and the general paths receive the caller's live policy
object through ``make_state``), so a seeded ``RandomPolicy``'s RNG
stream stays owned by the simulator instance that consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches.config import CacheConfig, GridConfig, TLBConfig
from repro.errors import ConfigError

@dataclass(frozen=True)
class KernelRequest:
    """One fully-normalized kernel configuration.

    ``kind`` selects the geometry field that applies (``cache``,
    ``tlb``, ``grid`` — or none for ``scan``, which is configured by
    ``mechanisms`` + ``granule_shift``).  ``profile`` asks for a phase
    timer composed *around* the kernel; ``force_general`` pins the
    per-reference path regardless of kernel selection.
    """

    kind: str
    cache: CacheConfig | None = None
    tlb: TLBConfig | None = None
    grid: GridConfig | None = None
    policy: str | None = None
    force_general: bool = False
    profile: bool = False
    mechanisms: tuple[str, ...] = ()
    granule_shift: int = 0


def _profile_default(profile: bool | None) -> bool:
    if profile is not None:
        return bool(profile)
    from repro.telemetry.profile import profiling_enabled

    return profiling_enabled()


def _policy_name(policy) -> str:
    name = getattr(policy, "name", None)
    if policy is None:
        name = "lru"
    if not isinstance(name, str):
        raise ConfigError(
            f"replacement policy {policy!r} has no name; kernels are "
            "keyed by policy name"
        )
    return name


def cache_request(
    config: CacheConfig,
    policy=None,
    force_general: bool = False,
    profile: bool | None = None,
) -> KernelRequest:
    """The request for one trace-driven cache chunk kernel.

    ``profile`` defaults to the active telemetry session's profiling
    flag at request time, so simulators built inside a ``--profile``
    run get the timed shims and everything else gets the bare kernel.
    """
    return KernelRequest(
        kind="cache",
        cache=config,
        policy=_policy_name(policy),
        force_general=bool(force_general),
        profile=_profile_default(profile),
    )


def tlb_request(
    config: TLBConfig,
    policy=None,
    force_general: bool = False,
    profile: bool | None = None,
) -> KernelRequest:
    """The request for one TLB chunk-access kernel."""
    return KernelRequest(
        kind="tlb",
        tlb=config,
        policy=_policy_name(policy),
        force_general=bool(force_general),
        profile=_profile_default(profile),
    )


def grid_request(
    grid: GridConfig, policy=None, profile: bool | None = None
) -> KernelRequest:
    """The request for one all-associativity ``(sets × ways)`` sweep
    kernel.  Exact for LRU only (stack inclusion); kernel selection
    rejects other policies — route those to per-config kernels."""
    return KernelRequest(
        kind="grid",
        grid=grid,
        policy=_policy_name(policy),
        profile=_profile_default(profile),
    )


def sweep_request(
    configs: tuple[CacheConfig, ...], profile: bool | None = None
) -> KernelRequest:
    """The request for one multi-size direct-mapped sweep kernel.

    Since the grid engine subsumed the bespoke dm_sweep kernel this is
    an adapter: the power-of-two DM sizes become the ``ways=(1,)``
    column of a :class:`~repro.caches.config.GridConfig` (a DM cache of
    ``S`` sets is exactly the 1-way column cell at set count ``S``).
    """
    configs = tuple(configs)
    if not configs:
        raise ConfigError("dm sweep request carries no configs")
    for config in configs:
        if config.associativity != 1:
            raise ConfigError(
                f"dm sweep requires direct-mapped configs, got "
                f"{config.describe()}"
            )
    line_sizes = {config.line_bytes for config in configs}
    indexings = {config.indexing for config in configs}
    if len(line_sizes) != 1 or len(indexings) != 1:
        raise ConfigError(
            "dm sweep configs must share one line size and indexing"
        )
    grid = GridConfig(
        set_counts=tuple(config.n_sets for config in configs),
        ways=(1,),
        line_bytes=configs[0].line_bytes,
        indexing=configs[0].indexing,
    )
    return grid_request(grid, profile=profile)


def scan_request(
    use_ecc: bool,
    use_pages: bool,
    use_breakpoints: bool,
    granule_shift: int,
    profile: bool | None = None,
) -> KernelRequest:
    """The request for one chunk-engine trap-scan kernel."""
    mechanisms = tuple(
        name
        for name, active in (
            ("ecc", use_ecc),
            ("pages", use_pages),
            ("breakpoints", use_breakpoints),
        )
        if active
    )
    return KernelRequest(
        kind="scan",
        mechanisms=mechanisms,
        granule_shift=int(granule_shift),
        profile=_profile_default(profile),
    )

