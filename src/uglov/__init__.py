"""Combinatorics of level-two Fock-space crystals.

Bipartitions with extended Young diagrams, good-node crystal operators,
Uglov/FLOTW bipartitions, charge-change crystal isomorphisms and
admissible residue sequences, together with exhaustive verifiers for the
generalized Dipper-James-Murphy property.
"""

from .diagrams import (
    Bipartition,
    Node,
    addable_nodes,
    boundary_sequence,
    compare_lex,
    compare_uglov,
    content,
    format_bipartition,
    nature_at,
    nature_table,
    node_less,
    parse_bipartition,
    removable_nodes,
    residue,
    uglov_max,
)
from .crystal import (
    CrystalParams,
    e_action,
    enumerate_uglov,
    f_action,
    good_addable_node,
    good_removable_node,
    is_flotw,
    is_uglov,
    max_of_monomial,
)
from .isomorphism import psi_to, reduce_to_fundamental
from .admissible import (
    adm,
    adm_flotw,
    has_period,
    max_normal_removable_node,
    removable_class,
    verify_djm_forward,
)

__all__ = [
    "Bipartition",
    "Node",
    "CrystalParams",
    "addable_nodes",
    "adm",
    "adm_flotw",
    "boundary_sequence",
    "compare_lex",
    "compare_uglov",
    "content",
    "e_action",
    "enumerate_uglov",
    "f_action",
    "format_bipartition",
    "good_addable_node",
    "good_removable_node",
    "has_period",
    "is_flotw",
    "is_uglov",
    "max_normal_removable_node",
    "max_of_monomial",
    "nature_at",
    "nature_table",
    "node_less",
    "parse_bipartition",
    "psi_to",
    "reduce_to_fundamental",
    "removable_class",
    "removable_nodes",
    "residue",
    "uglov_max",
    "verify_djm_forward",
]
