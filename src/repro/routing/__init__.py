"""BGP policy-routing substrate: route classes, tiebreak sets, trees.

Import from the submodules (``repro.routing.cache``, ``.policy``,
``.tree``, ...): the package itself loads nothing, so importing
:mod:`repro.routing.backends` (the kernel registry, numpy-free) does
not pull in the numpy-backed routing stack.
"""
