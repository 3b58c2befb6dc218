"""Validated configurations for simulated caches and TLBs.

Derived geometry (``n_sets``, ``line_shift``, ``set_mask``, ...) is a
:func:`~functools.cached_property`: computed on first use and then read
from the instance dict, because the trap handler and page registration
ask for it on every call.  Cached values are not dataclass fields, so
equality, hashing and farm keys see only the declared geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro._types import PAGE_SIZE, WORD_SIZE, Indexing, WritePolicy
from repro.errors import ConfigError


def _is_power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one simulated cache.

    The paper's canonical configuration is a direct-mapped cache with
    4-word (16-byte) lines; Figures 2/3 sweep ``size_bytes`` from 1 KB to
    1 MB, associativity 1–4, and line size 4–16 words.
    """

    size_bytes: int
    line_bytes: int = 4 * WORD_SIZE
    associativity: int = 1
    indexing: Indexing = Indexing.PHYSICAL
    write_policy: WritePolicy = WritePolicy.WRITE_BACK

    def __post_init__(self) -> None:
        for name in ("size_bytes", "line_bytes", "associativity"):
            value = getattr(self, name)
            if not _is_power_of_two(value):
                raise ConfigError(f"{name} must be a power of two, got {value}")
        if self.line_bytes < WORD_SIZE:
            raise ConfigError(
                f"line_bytes must be at least one word, got {self.line_bytes}"
            )
        if self.size_bytes < self.line_bytes * self.associativity:
            raise ConfigError(
                f"cache of {self.size_bytes} bytes cannot hold one "
                f"{self.associativity}-way set of {self.line_bytes}-byte lines"
            )

    @cached_property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @cached_property
    def n_sets(self) -> int:
        return self.n_lines // self.associativity

    @cached_property
    def line_shift(self) -> int:
        return self.line_bytes.bit_length() - 1

    @cached_property
    def set_mask(self) -> int:
        """``n_sets - 1``: the set index of a line number is its low bits."""
        return self.n_sets - 1

    def set_of(self, addr):
        """Set index of an address (virtual or physical per ``indexing``);
        also accepts a numpy array of addresses."""
        return (addr >> self.line_shift) & self.set_mask

    def line_of(self, addr: int) -> int:
        """Line-aligned base address."""
        return addr & ~(self.line_bytes - 1)

    def describe(self) -> str:
        kb = self.size_bytes / 1024
        return (
            f"{kb:g}K {self.associativity}-way "
            f"{self.line_bytes}B-line {self.indexing.value}-indexed"
        )


@dataclass(frozen=True)
class GridConfig:
    """Geometry of one all-associativity ``(sets × ways)`` sweep grid.

    Every cell ``(S, A)`` names the LRU cache ``CacheConfig(size=S *
    A * line_bytes, associativity=A)`` — the one-pass grid engine
    (:mod:`repro.caches.gridsweep`) prices all of them from one stack-
    distance pass per set count.  Axes are normalized to sorted,
    ascending tuples so equal grids compare (and fingerprint) equal
    regardless of the order a caller listed them in.
    """

    set_counts: tuple[int, ...]
    ways: tuple[int, ...]
    line_bytes: int = 4 * WORD_SIZE
    indexing: Indexing = Indexing.PHYSICAL

    def __post_init__(self) -> None:
        for name in ("set_counts", "ways"):
            values = tuple(getattr(self, name))
            if not values:
                raise ConfigError(f"grid {name} must be non-empty")
            if len(set(values)) != len(values):
                raise ConfigError(f"duplicate grid {name}: {values}")
            for value in values:
                if not _is_power_of_two(value):
                    raise ConfigError(
                        f"grid {name} must be powers of two, got {value}"
                    )
            object.__setattr__(self, name, tuple(sorted(values)))
        if not _is_power_of_two(self.line_bytes):
            raise ConfigError(
                f"line_bytes must be a power of two, got {self.line_bytes}"
            )
        if self.line_bytes < WORD_SIZE:
            raise ConfigError(
                f"line_bytes must be at least one word, got {self.line_bytes}"
            )

    @property
    def max_ways(self) -> int:
        return self.ways[-1]

    @property
    def n_cells(self) -> int:
        return len(self.set_counts) * len(self.ways)

    @property
    def line_shift(self) -> int:
        return self.line_bytes.bit_length() - 1

    def cells(self) -> tuple[tuple[int, int], ...]:
        """Every ``(set_count, ways)`` grid point, row-major."""
        return tuple(
            (n_sets, ways) for n_sets in self.set_counts for ways in self.ways
        )

    def config_for(self, n_sets: int, ways: int) -> CacheConfig:
        """The per-config :class:`CacheConfig` behind one grid cell."""
        return CacheConfig(
            size_bytes=n_sets * ways * self.line_bytes,
            line_bytes=self.line_bytes,
            associativity=ways,
            indexing=self.indexing,
        )

    def describe(self) -> str:
        return (
            f"{len(self.set_counts)}x{len(self.ways)} grid "
            f"(sets {','.join(map(str, self.set_counts))} × "
            f"ways {','.join(map(str, self.ways))}), "
            f"{self.line_bytes}B lines, {self.indexing.value}-indexed"
        )


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of one simulated TLB.

    ``page_bytes`` may exceed the machine page size (variable page size /
    superpage support, Table 2); Tapeworm then traps at the machine-page
    granularity but tags simulated entries by superpage number.
    """

    n_entries: int
    associativity: int = 0  # 0 means fully associative
    page_bytes: int = PAGE_SIZE

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.n_entries):
            raise ConfigError(
                f"n_entries must be a power of two, got {self.n_entries}"
            )
        if not _is_power_of_two(self.page_bytes) or self.page_bytes < PAGE_SIZE:
            raise ConfigError(
                f"page_bytes must be a power-of-two multiple of the "
                f"{PAGE_SIZE}-byte machine page, got {self.page_bytes}"
            )
        effective = self.effective_associativity
        if not _is_power_of_two(effective) or effective > self.n_entries:
            raise ConfigError(
                f"associativity {self.associativity} invalid for "
                f"{self.n_entries} entries"
            )

    @cached_property
    def effective_associativity(self) -> int:
        return self.associativity or self.n_entries

    @cached_property
    def n_sets(self) -> int:
        return self.n_entries // self.effective_associativity

    @cached_property
    def pages_per_entry(self) -> int:
        return self.page_bytes // PAGE_SIZE

    def describe(self) -> str:
        assoc = (
            "fully-assoc"
            if self.effective_associativity == self.n_entries
            else f"{self.effective_associativity}-way"
        )
        return f"{self.n_entries}-entry {assoc} TLB, {self.page_bytes}B pages"
