"""Import surface kept for ``perf/``: see :mod:`repro.parallel.engine`."""
