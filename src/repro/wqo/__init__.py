"""Well-quasi-ordering toolkit (Higman, Kruskal, antichains, bases)."""

from .basis import UpwardClosedSet
from .higman import multiset_leq, multiset_order, subword_leq, subword_order
from .kruskal import (
    EmbeddingBasis,
    bad_sequence_extension,
    gap_embedding_order,
    greedy_bad_sequence,
    tree_embedding_order,
)
from .orderings import (
    QuasiOrder,
    check_increasing_pair,
    equality_order,
    is_bad_sequence,
    minimal_elements,
    natural_order,
    product_order,
)

__all__ = [
    "UpwardClosedSet",
    "EmbeddingBasis",
    "multiset_leq",
    "multiset_order",
    "subword_leq",
    "subword_order",
    "bad_sequence_extension",
    "gap_embedding_order",
    "greedy_bad_sequence",
    "tree_embedding_order",
    "QuasiOrder",
    "check_increasing_pair",
    "equality_order",
    "is_bad_sequence",
    "minimal_elements",
    "natural_order",
    "product_order",
]
