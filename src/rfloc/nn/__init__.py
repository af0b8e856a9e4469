"""Minimal float64 neural-network kernel: named parameters, handwritten
layer gradients, Adam, and counter-based random streams.

There is no autodiff graph. The networks (`rfloc.networks`) run their
layers' handwritten backward passes in reverse order against the forward
caches, which keeps the arithmetic auditable and bit-reproducible.

Each name is imported from the module that defines it: ``rfloc.nn.adam``,
``rfloc.nn.layers``, ``rfloc.nn.params`` or ``rfloc.nn.rng``.
"""
