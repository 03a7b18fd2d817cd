"""Golden fixture for RPR003 (private cache access): positive + waived + clean.

Fixtures lint with ``module=None`` (outside the repro package), so the
``repro.routing`` exemption does not apply here — that path is covered
by module-override tests in test_rules.py.
"""


def bad_peek_assembly(cache) -> int:
    return len(cache._assembly)  # expect: RPR003


def bad_grab_arena(cache) -> object:
    return cache._arena  # expect: RPR003


def bad_clobber(cache) -> None:
    cache._assembly = []  # expect: RPR003


def waived_peek(cache) -> int:
    return len(cache._assembly)  # repro-lint: disable=RPR003 -- fixture waiver


def clean_public_api(cache) -> int:
    return cache.stats().cached


def clean_pending(cache) -> list:
    return cache.pending_runs()
