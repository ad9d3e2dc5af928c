"""Learning machines that consume precomputed kernel matrices."""

from .kkmeans import ClusterAssignment, kkmeans
from .klsh import HashFamily, klsh_build, klsh_hash_gram
from .metrics import clustering_accuracy, normalized_mutual_information
from .sparse import (SparseCode, SparseCodes, kernel_sparse_code,
                     sparse_code_classify)
from .svm import SvmModel, SvmModels, svm_decision_from_rows, svm_train

__all__ = [
    "ClusterAssignment",
    "HashFamily",
    "SparseCode",
    "SparseCodes",
    "SvmModel",
    "SvmModels",
    "clustering_accuracy",
    "kernel_sparse_code",
    "kkmeans",
    "klsh_build",
    "klsh_hash_gram",
    "normalized_mutual_information",
    "sparse_code_classify",
    "svm_decision_from_rows",
    "svm_train",
]
