"""Analysis toolkit for finite semidistributive lattices."""

from .canonical import (
    CanonicalRep,
    FlagComplex,
    canonical_join_complex,
    cjr,
    cmr,
    joins_canonically,
)
from .core import IntervalView, Lattice, Poset
from .cores import (
    CoreData,
    DerivedPoset,
    OrdersReport,
    clo_down,
    clo_up,
    core_data,
    is_conuclear,
    is_nuclear,
    kappa_order,
    orders_coincide_report,
    pop_down,
    pop_up,
)
from .errors import (
    BadParameter,
    ChainCapExceeded,
    CycleError,
    InconsistentLabels,
    LatticeError,
    MissingLabel,
    NoBoundsError,
    NotACover,
    NotALattice,
    NotComparable,
    NotJoinIrreducible,
    NotSemidistributive,
    NotTransitiveReduction,
    NoUniqueMax,
    RecursionMismatch,
    SchemaError,
    SizeLimitExceeded,
)
from .generators import generate, random_sd_lattice
from .irreducibles import (
    CoverLabeling,
    IrreducibleTable,
    cover_labeling,
    irreducible_table,
    j_label_cover,
    j_label_interval,
    kappa_bar,
    kappa_bar_cycles,
    kappa_bar_d,
    m_label_cover,
)
from .jsonio import (
    LatticeDocument,
    emit_dot,
    emit_json,
    parse_document,
    parse_json,
    to_document,
)
from .sequences import (
    CloLabeling,
    KdCheck,
    KdSequence,
    count_kd_exceptional,
    enumerate_kd_exceptional,
    is_kd_exceptional,
    label_clo_up,
)
from .shelling import (
    ELReport,
    ELWitness,
    LabeledPoset,
    find_el_order,
    is_el_labeling,
    is_extremal,
    lattice_j_labeling,
)

__version__ = "0.1.0"
