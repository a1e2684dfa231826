"""Keyed random streams and an order-preserving parallel map.

Every stochastic component of the library draws from a generator derived
from an integer seed plus a tuple key (replication index, group id, retry
attempt, ...).  Streams with distinct keys are statistically independent and
reproducible, so results never depend on evaluation order or worker count.
"""
from __future__ import annotations

import numpy as np


def derive_stream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator keyed by ``(seed, *path)``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse ``(seed, *path)`` into a fresh 64-bit seed for nested engines."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map ``fn`` over ``items`` preserving order.

    With ``threads > 1`` the work runs on a thread pool; results are identical
    to the serial path because every item owns its derived stream.  The pool
    module is imported only then.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
