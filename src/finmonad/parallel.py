"""The map the functor and monad searches run their branches through.

It is a plain serial map. The name stays because the benchmark tracer
wraps ``parallel.pmap``; the benchmark revision that reads the library's
own counters (ROADMAP item 4, step 1) folds it into its callers.
"""

from __future__ import annotations


def pmap(fn, items) -> list:
    """``[fn(x) for x in items]``, in order."""
    return [fn(x) for x in items]
