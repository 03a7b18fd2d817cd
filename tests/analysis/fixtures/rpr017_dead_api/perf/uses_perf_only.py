"""The perf harness is a program that calls the library: a use."""

from repro.fixture017.core import perf_only

print(perf_only())
