"""Test tooling: empty the caches a scan fills, so the next run reads them as a fresh process does."""

from symqfi import schemes


def cold_caches():
    """Clear every functools cache in schemes, found by its cache_clear attribute.

    Every cache of the set-up route lives there: the set-ups, the base
    factors, the block layouts and the start and grid rotations.
    """
    for value in vars(schemes).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
