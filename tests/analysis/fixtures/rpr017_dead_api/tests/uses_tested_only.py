"""A test is not a caller: what only tests use is still dead."""

from repro.fixture017.core import tested_only


def check() -> None:
    assert tested_only() == 4
