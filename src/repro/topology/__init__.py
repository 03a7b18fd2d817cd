"""AS-level topology substrate: graph, generator, augmentation, I/O.

Import from the submodules (``repro.topology.graph``, ``.generator``,
``.serialization``, ...): the package itself loads nothing, so the
numpy-free ones (``errors``, ``relationships``) stay numpy-free.
"""
