"""Combinatorial models of higher type-A cluster categories.

Builds the module, derived-window, cluster, almost-positive and
restricted-cyclic category models from gapped index tuples, realizes
their d-exangles, constructs the two ideal quotients, and verifies the
equivalence and mutation correspondences exhaustively at desk scale.
The names live in the submodules (``hicat.models``, ``hicat.rigidity``
and so on); the package itself exports only its version.
"""
__version__ = "0.1.0"
