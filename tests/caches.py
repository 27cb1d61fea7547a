"""Test tooling: empty the caches a scan fills, so the next run reads them as a fresh process does."""

from symqfi import dephasing, schemes


def cold_caches():
    """Clear every functools cache in schemes and dephasing, found by its cache_clear attribute.

    Every cache of the set-up route lives there: the set-ups, the base
    factors, the block layouts, the start and grid rotations, the kernel
    index per occupied set (_distances, at most 64 entries, 88 KB over
    the 31 sets of 4 050 di_dense cells), the one cell's kernels and the
    collective kernel's -d^2 / 2 rows.
    """
    for module in (schemes, dephasing):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
