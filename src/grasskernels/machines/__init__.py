"""Learning machines that consume precomputed kernel matrices."""

from .kkmeans import ClusterAssignment, kkmeans
from .klsh import (HashFamily, hamming_distance, klsh_build, klsh_hash,
                   klsh_hash_gram, klsh_query, rank_by_hamming)
from .metrics import clustering_accuracy, normalized_mutual_information
from .sparse import SparseCode, kernel_sparse_code, sparse_code_classify
from .svm import SvmModel, svm_decision_from_rows, svm_predict, svm_train

__all__ = [
    "ClusterAssignment",
    "HashFamily",
    "SparseCode",
    "SvmModel",
    "clustering_accuracy",
    "hamming_distance",
    "kernel_sparse_code",
    "kkmeans",
    "klsh_build",
    "klsh_hash",
    "klsh_hash_gram",
    "klsh_query",
    "normalized_mutual_information",
    "rank_by_hamming",
    "sparse_code_classify",
    "svm_decision_from_rows",
    "svm_predict",
    "svm_train",
]
