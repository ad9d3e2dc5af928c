"""Kernels and kernel machines on the manifold of linear subspaces.

The package is layered: `numerics` wraps the dense linear algebra,
`grassmann` defines subspaces, distances and embeddings, `kernels`
the kernel catalog with spectral certification, `machines` the learners
that consume Gram matrices, and `harness` the experiment runner behind
the command line tool.  Import names from the layer modules.
"""

__version__ = "0.1.0"
