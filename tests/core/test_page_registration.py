"""Page registration and flush agree with their per-line definitions.

``tw_register_page`` finds a page's sampled lines with one vectorized
set mask, and ``flush_page`` probes each line's set without searching
for absent keys.  Both must pick exactly what the per-line rules pick:
a line is trapped iff ``sampler.covers_set(config.set_of(index_base +
offset))``, and a flush removes exactly the page's resident keys.
"""

import random

import numpy as np
import pytest

from repro._types import PAGE_SIZE, Indexing
from repro.caches.cache import SetAssociativeCache
from repro.caches.config import CacheConfig
from repro.core.tapeworm import Tapeworm, TapewormConfig
from repro.kernel.kernel import Kernel
from repro.machine.machine import Machine, MachineConfig
from repro.machine.memory import GRANULE_BYTES


def _tapeworm(cache, sampling, seed):
    machine = Machine(
        MachineConfig(memory_bytes=2 * 1024 * 1024, n_vpages=1024)
    )
    kernel = Kernel(machine=machine, alloc_policy="sequential", trial_seed=0)
    tapeworm = Tapeworm(
        kernel,
        TapewormConfig(cache=cache, sampling=sampling, sampling_seed=seed),
    )
    tapeworm.install()
    return tapeworm


def _per_line_granules(tapeworm, pa, va):
    config = tapeworm.config.cache
    index_base = va if config.indexing is Indexing.VIRTUAL else pa
    lines = [
        offset
        for offset in range(0, PAGE_SIZE, config.line_bytes)
        if tapeworm.sampler.covers_set(config.set_of(index_base + offset))
    ]
    granules = {
        (pa + offset + word) // GRANULE_BYTES
        for offset in lines
        for word in range(0, config.line_bytes, GRANULE_BYTES)
    }
    return granules, len(lines)


@pytest.mark.parametrize("indexing", [Indexing.PHYSICAL, Indexing.VIRTUAL])
@pytest.mark.parametrize("line_bytes", [16, 32, 64])
@pytest.mark.parametrize("sampling", [2, 8])
def test_sampled_registration_traps_exactly_the_per_line_choice(
    indexing, line_bytes, sampling
):
    cache = CacheConfig(
        size_bytes=8 * 1024, line_bytes=line_bytes, indexing=indexing
    )
    rng = random.Random(line_bytes * 31 + sampling)
    for seed in range(4):
        tapeworm = _tapeworm(cache, sampling, seed)
        ecc = tapeworm.machine.ecc
        expected = set()
        n_lines = 0
        for tid, page in enumerate(rng.sample(range(1, 400), 6), start=1):
            pa = page * PAGE_SIZE
            # a virtual page number unrelated to the frame, so virtual
            # and physical indexing pick different sets
            va = rng.randrange(1, 1000) * PAGE_SIZE
            granules, lines = _per_line_granules(tapeworm, pa, va)
            expected |= granules
            n_lines += lines
            tapeworm.tw_register_page(tid, pa, va)
        assert set(ecc.tapeworm_granules().tolist()) == expected
        assert tapeworm.primitives.set_calls == n_lines
        assert ecc.stats_sets == n_lines


@pytest.mark.parametrize("associativity", [1, 2, 4])
@pytest.mark.parametrize("indexing", [Indexing.PHYSICAL, Indexing.VIRTUAL])
def test_flush_page_removes_exactly_the_pages_resident_keys(
    associativity, indexing
):
    config = CacheConfig(
        size_bytes=2048, associativity=associativity, indexing=indexing
    )
    rng = np.random.default_rng(associativity)
    for _ in range(20):
        cache = SetAssociativeCache(config)
        for tid, addr in zip(
            rng.integers(1, 3, size=300), rng.integers(0, 4 * PAGE_SIZE, 300)
        ):
            cache.access(int(tid), int(addr))
        tid = int(rng.integers(1, 3))
        page = int(rng.integers(0, 4)) * PAGE_SIZE
        space = cache.space_of(tid)
        before = cache.resident_keys()
        expected = sorted(
            key
            for key in before
            if key[0] == space and page <= key[1] < page + PAGE_SIZE
        )
        removed = cache.flush_page(tid, page, PAGE_SIZE)
        assert removed == expected
        assert cache.resident_keys() == before - set(expected)
