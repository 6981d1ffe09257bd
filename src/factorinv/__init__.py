"""Factorization invariants of zero-sum monoids, Krull monoids, and
ideal-lattice chain models.

The library computes, at desk scale and with exhaustive verification in
mind: minimal zero-sum sequences and Davenport constants over finite
abelian groups; sets of lengths, distance sets, elasticities, and catenary
degrees of reduced atomic commutative monoids; transfer homomorphisms from
class-map Krull monoids onto block monoids, with constructive lifting and
fiber catenary bounds; the disjoint-prefix covering of cyclic groups by
arithmetic progressions with its arc-module consequences and the genus
update calculus; and rigid factorizations as maximal principal chains in
finite labeled ideal lattices.
"""

from .abelian import Element, FinAbGroup, make_group
from .blocks import (
    BlockMonoid,
    Sequence,
    davenport,
    minimal_zero_sum_sequences,
    subset_from_doc,
    subset_nonzero,
)
from .chains import BUILTIN_NAMES, Chain, IdealLattice, builtin, composition_distance, load_lattice
from .errors import FactorInvError
from .factorize import (
    DEFAULT_FACTORIZATION_LIMIT,
    Factorization,
    PresentedMonoid,
    delta_of_set,
    permutable_distance,
)
from .krull import KrullMonoid, TransferReport, make_krull, synth_hnp
from .towers import (
    Arc,
    ArcModule,
    GenusVector,
    Tower,
    TowerSpec,
    disjoint_prefix_cover,
    full_cycle_quotient,
    full_cycle_submodule,
    genus_step,
    has_cycle_standard_rank,
    standard_genus,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "ArcModule",
    "BUILTIN_NAMES",
    "BlockMonoid",
    "Chain",
    "DEFAULT_FACTORIZATION_LIMIT",
    "Element",
    "FactorInvError",
    "Factorization",
    "FinAbGroup",
    "GenusVector",
    "IdealLattice",
    "KrullMonoid",
    "PresentedMonoid",
    "Sequence",
    "Tower",
    "TowerSpec",
    "TransferReport",
    "builtin",
    "composition_distance",
    "davenport",
    "delta_of_set",
    "disjoint_prefix_cover",
    "full_cycle_quotient",
    "full_cycle_submodule",
    "genus_step",
    "has_cycle_standard_rank",
    "load_lattice",
    "make_group",
    "make_krull",
    "minimal_zero_sum_sequences",
    "permutable_distance",
    "standard_genus",
    "subset_from_doc",
    "subset_nonzero",
    "synth_hnp",
    "__version__",
]
