# module: repro.core.engine
"""Golden fixture for RPR013 (kernel impl imported outside the registry)."""

import repro.routing.backends.numpy_impl  # expect: RPR013
from repro.routing import backends
from repro.routing.backends import cext_impl  # expect: RPR013
from repro.routing.backends import kernels_for
from repro.routing.backends._loops import trees_stacked  # expect: RPR013
from repro.routing.backends.cext_impl import weights_stacked  # expect: RPR013
from repro.routing.backends.numpy_impl import (  # repro-lint: disable=RPR013 -- fixture waiver
    jacobi_converge,
)


def clean_goes_through_registry(arena):
    # the sanctioned shape: resolve through the registry, never pin an impl
    name, kernels = kernels_for(arena.backend)
    return name, kernels


def clean_registry_module_use():
    return backends.resolve_backend("auto")


def uses_the_pinned_impls():
    return (
        repro.routing.backends.numpy_impl,
        cext_impl,
        trees_stacked,
        weights_stacked,
        jacobi_converge,
    )
