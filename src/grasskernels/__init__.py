"""Kernels and kernel machines on the manifold of linear subspaces.

The package is layered: `numerics` wraps the dense linear algebra,
`grassmann` defines subspaces, distances and embeddings, `kernels`
the kernel catalog with spectral certification, `machines` the learners
that consume Gram matrices, and `harness` the experiment runner behind
the command line tool.
"""

from . import exceptions
from .grassmann import (PluckerVector, PrincipalAngles, Subspace,
                        bc_distance_sq, bc_inner, compound_matrix,
                        curve_length_ratio, geodesic_distance,
                        plucker_embed, principal_angles, proj_distance_sq,
                        proj_inner, projection_embed, random_subspace,
                        similarity, subspace_pair_with_angles, tilt_subspace)
from .kernels import (CertificationReport, GramMatrix, KernelSpec,
                      certify_pd, counterexample_gram,
                      counterexample_subspaces, cross_gram, evaluate,
                      geodesic_rbf_pseudo_kernel, gram, parse_kernel_token)
from .machines import (ClusterAssignment, HashFamily, SparseCode, SvmModel,
                       clustering_accuracy, kernel_sparse_code, kkmeans,
                       klsh_build, klsh_hash_gram,
                       normalized_mutual_information, sparse_code_classify,
                       svm_decision_from_rows, svm_train)

__version__ = "0.1.0"

__all__ = [
    "CertificationReport",
    "ClusterAssignment",
    "GramMatrix",
    "HashFamily",
    "KernelSpec",
    "PluckerVector",
    "PrincipalAngles",
    "SparseCode",
    "Subspace",
    "SvmModel",
    "bc_distance_sq",
    "bc_inner",
    "certify_pd",
    "clustering_accuracy",
    "compound_matrix",
    "counterexample_gram",
    "counterexample_subspaces",
    "cross_gram",
    "curve_length_ratio",
    "evaluate",
    "exceptions",
    "geodesic_distance",
    "geodesic_rbf_pseudo_kernel",
    "gram",
    "kernel_sparse_code",
    "kkmeans",
    "klsh_build",
    "klsh_hash_gram",
    "normalized_mutual_information",
    "parse_kernel_token",
    "plucker_embed",
    "principal_angles",
    "proj_distance_sq",
    "proj_inner",
    "projection_embed",
    "random_subspace",
    "similarity",
    "sparse_code_classify",
    "subspace_pair_with_angles",
    "svm_decision_from_rows",
    "svm_train",
    "tilt_subspace",
]
