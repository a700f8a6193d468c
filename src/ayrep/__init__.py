"""Exact cell representations of symmetric and hyperoctahedral groups.

Integer functionals on the root space carve the group into descent cells;
each generic cell carries a representation with a two-term action per basis
vector, realized here in exact rational arithmetic and verified against
independent combinatorial oracles.
"""

from .cells import (
    BasicFlat,
    Cell,
    Functional,
    boundary_reflections,
    cell_tableau_bijection,
    descent_cell,
    flat_partition,
    is_generic,
    is_generic_integer,
    is_minimal_ay_cell,
)
from .errors import (
    AyrepError,
    ContentVectorError,
    EmptyShapeError,
    GenericityError,
    NotStandardError,
    PreconditionError,
    SizeCapError,
)
from .groups import (
    Permutation,
    Reflection,
    SignedPermutation,
    identity,
    is_convex,
    left_descents_in,
    minimal_coset_reps,
    pair,
    reflection,
    weak_interval,
)
from .induction import (
    bn_classical,
    classical_induced_character,
    extend_to_bn,
    induce,
    shuffle_cell,
)
from .reps import (
    Character,
    Representation,
    build_from_functional,
    build_orthogonal_skew,
    char_inner,
    character,
    is_irreducible,
    mn_character,
    verify_axiom_B,
    verify_coxeter,
)
from .tableaux import (
    SkewShape,
    Tableau,
    content_vector,
    derived,
    enumerate_standard,
    hook_distance,
    inversions,
    is_column_tableau,
    is_content_vector,
    is_row_tableau,
    reading_words,
    relabel,
    row_tableau,
    tableau_from_content,
)
from .tops import TopReport, is_top_brute, top_elements

__version__ = "0.1.0"
