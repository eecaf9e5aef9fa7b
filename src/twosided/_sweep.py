"""Read by ``solvebench/run.py`` to name the kernel; goes when a benchmark change drops that read."""

HAVE_NUMBA = False
