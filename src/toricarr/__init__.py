"""Combinatorial models for complements of complexified toric arrangements.

The pipeline: describe an arrangement by integer characters and rational
angles, enumerate the faces of its periodic lift at one vertex per
vertex orbit, quotient by the translation lattice to get the face
category of the compact torus, build the Salvetti category whose nerve
models the complement, and read off layers, integral homology and a
finite presentation of the fundamental group.
"""

from .errors import SpecError, InternalError
from .exact import SparseMatrix, hnf, snf
from .arrangement import ArrangementSpec, parse_spec, is_essential, essentialize
from .cells import (PeriodicCategory, FaceCategory, VertexStars, LayerPoset,
                    torus_vertices, layers, opposite_chamber, chamber_fiber)
from .category import (AcyclicCategory, ChainComplex, check_acyclic,
                       nerve_chains, nerve_counts, boundary_matrices, homology,
                       euler_characteristic)
from .pi1 import (GroupPresentation, Pi1Context, abelianize,
                  simplify_presentation, positive_minimal_path,
                  omega_paths, sigma, delta_word, h_of_G, relations_for_G)

__version__ = "0.1.0"
