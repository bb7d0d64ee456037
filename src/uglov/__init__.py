"""Combinatorics of level-two Fock-space crystals.

Bipartitions with extended Young diagrams, good-node crystal operators,
Uglov/FLOTW bipartitions, charge-change crystal isomorphisms and
admissible residue sequences, together with exhaustive verifiers for the
generalized Dipper-James-Murphy property.  Import them from the layer
modules diagrams, crystal, isomorphism, admissible and cli.
"""
