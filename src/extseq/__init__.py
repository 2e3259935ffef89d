"""Exact deciders and property suites for proper and exterior sequentiality
on finitely presented tail spaces."""

from .core import (
    EvSet,
    FinitePoint,
    PointRef,
    TailPoint,
    Universe,
    ev_complement,
    ev_intersect,
    ev_set,
    ev_union,
    from_points,
    full_set,
    make_universe,
)
from .errors import ParseError, PresentationError, UniverseMismatch
from .spaces import (
    Space,
    SpaceReport,
    coproduct,
    is_open,
    is_sequentially_open,
    set_properties,
    space_report,
    subspace,
    validate_space,
)
from .sequences import (
    Affine,
    ConstThread,
    Seq,
    WalkThread,
    classify,
    convergence_ideal,
    make_seq,
    seq_compose,
    seq_equal,
    subseq,
)
from .maps import (
    SpaceMap,
    TailToConst,
    TailToTail,
    apply_map,
    compose_maps,
    make_map,
    map_properties,
    map_seq,
    preimage,
)
from .exteriority import (
    ExtSpace,
    Externology,
    canonicalize,
    cocompact_ext_space,
    cocompact_externology,
    coreflect,
    e_report,
    exterior_base,
    is_e_open,
    is_exterior_map,
    is_exterior_seq,
    limit_points,
    make_ext_space,
    sequentially_e_open,
)
from .compactify import (
    BasedSpace,
    bar,
    based_iso,
    epsilon_sc,
    infinity,
    is_omega_sequential,
    is_s_compact,
    make_based,
    plus,
    plus_map,
    wedge,
)
from .sheaves import (
    CMap,
    CSet,
    ConvElem,
    Ideal,
    affine_divide,
    build_sigma,
    c_map_check,
    glue,
    ideal_member,
    is_cover,
    make_ideal,
    restrict_family,
    sigma_map,
)
from .generate import generate_instances
from .serial import parse_entity
from .suites import CheckReport, run_suite, suite_names

__version__ = "0.1.0"
