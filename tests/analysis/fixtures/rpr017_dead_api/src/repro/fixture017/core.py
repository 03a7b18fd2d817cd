"""Public symbols in every liveness class the dead-API pass knows."""

USED_CONST = 3


def used_helper() -> int:
    return USED_CONST


def dead_helper() -> int:  # expect: RPR017
    return 0


def dead_export() -> int:  # expect: RPR017 -- re-exported by __init__ but consumed nowhere
    return 1


def tested_only() -> int:  # expect: RPR017 -- a sibling tests/ file is no caller
    return 4


def perf_only() -> int:
    # the sibling perf/ harness calls it: alive
    return 5


class DeadClass:  # expect: RPR017
    def method(self) -> None:
        return None


class UsedBase:
    pass


class _Internal(UsedBase):
    # subclassing in this same file is a load of UsedBase: alive
    pass


def main() -> int:
    # console-script entry points are wired via pyproject: never flagged
    return 0


def _private_helper() -> int:
    return 2
