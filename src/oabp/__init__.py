"""Exact arithmetic for ordered algebraic branching programs.

Programs are leveled DAGs computing sums over paths of edge-label products;
an order fixes the sequence in which variables may appear along paths.  The
package builds, validates, reshapes, and expands such programs over the
rationals and finite fields, lower-bounds how often a program in a given
order must read a variable, and decides whether a program is the zero
polynomial, exactly through a span of coefficient vectors or through
deterministic black-box queries.
"""

from .abp import (
    Abp,
    AbpStats,
    ConstLabel,
    Edge,
    Permutation,
    VarLabel,
    check_oblivious,
    check_order,
    evaluate,
    expand,
    infer_order,
    make_abp,
    prune,
    stats,
    validate,
    zero_abp,
)
from .errors import BudgetError, FieldError, FormatError, OabpError, StructureError
from .fields import (
    ExtensionField,
    Field,
    FieldConfig,
    PrimeField,
    RationalField,
    enumerate_points,
    extension_field,
    find_irreducible,
    is_irreducible,
    make_field,
    prime_field,
    rationals,
)
from .families import (
    OrderSeparation,
    VarSplit,
    deriv_matrix,
    elementary_symmetric_abp,
    full_rank_poly,
    middle_partition,
    order_separation_family,
    read_lower_bound,
    ryser_permanent_abp,
    seeded_weights,
    verify_full_rank,
)
from .generator import (
    GeneratorParams,
    build_generator,
    eval_generator,
    points_needed,
    seed_count,
    seed_names,
    z_count,
)
from .pit import (
    PitOptions,
    PitVerdict,
    abp_oracle,
    compose_test,
    hitset_test,
    hitset_test_abp,
    level_for,
    random_probe,
    span_test,
)
from .poly import SparsePoly
from .serialize import (
    abp_dumps,
    abp_loads,
    poly_dumps,
    poly_loads,
    sniff_load,
)
from .transforms import (
    Decomposition,
    cut_decompose,
    derivative_abp,
    obliviate,
    reduce_independent,
)

__version__ = "0.1.0"
