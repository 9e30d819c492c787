"""maxcyc: maximal cyclic subgroup invariants of finite permutation groups.

The library computes eta(G), the number of conjugacy classes of maximal
cyclic subgroups, together with the companion objects G^-, <G^->, eta*,
eta_p, l(G) and X(G), on explicitly enumerated permutation groups, and
ships an executable verification suite over a bundled corpus of groups.
"""

from .core import (
    DEFAULT_DEGREE_CAP,
    DEFAULT_ORDER_CAP,
    CosetTable,
    Group,
    center,
    class_index,
    conjugacy_classes,
    coset_table,
    derived_subgroup,
    element_orders,
    enumerate_elements,
    is_normal,
    named_normal,
    normal_closure,
    normal_subgroups,
    point_stabilizer,
    quotient_group,
    subgroup_generated,
)
from .constructors import (
    GroupSpec,
    parse_spec,
    realize,
    realize_text,
    render,
)
from .cyclic import (
    CyclicSubgroup,
    EtaReport,
    QuotientInvariants,
    SubgroupInvariants,
    cyclic_classes,
    cyclic_subgroups,
    eta,
    eta_p,
    eta_star,
    g_minus,
    g_minus_via_powers,
    g_power_set,
    maximal_cyclic_subgroups,
    quotient_invariants,
    subgroup_invariants,
)
from .errors import (
    ArityError,
    CapExceeded,
    ClassificationFailed,
    CorpusError,
    GroupIsCyclic,
    HypothesisFailed,
    InternalCheckError,
    MaxcycError,
    NoSuchNormal,
    NotExponentP,
    NotFrobenius,
    NotNormal,
    NotPGroup,
    NotProper,
    NotSubgroup,
    ParseError,
)
from .perm import Permutation

__version__ = "0.1.0"
