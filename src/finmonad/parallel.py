"""Deterministic fan-out helper for enumeration work.

Results are merged in submission order, so output never depends on the
worker count; callers still canonically sort what they return.
"""

from __future__ import annotations


def pmap(fn, items, jobs: int = 1) -> list:
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # imported here, so that a run at one job never loads the pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))
