"""Milnor invariants of welded string links via exact truncated Magnus expansions.

The pipeline: Gauss codes (``gauss``) give Wirtinger presentations whose
longitudes are expanded in a truncated free power-series ring over the
integers (``magnus``, with the free-group word calculus in ``words``); the
coefficients are the Milnor invariants and the level-k equivalence tests
(``invariants``).  A Hall basis of basic commutators (``hall``) and a tree
presentation realizer (``arrows``) provide independent cross-checks.  The
``cli`` module exposes everything as the ``weldmag`` command.
"""

from .words import Word, WordError, commutator, conjugate, exponent_sum
from .words import format_word, invert, linear_commutator, multiply, parse_word
from .magnus import (
    MagnusError,
    TruncatedSeries,
    TruncationPolicy,
    coefficient,
    expand,
    format_series,
    in_Jr,
    lcs_lower_bound,
    series_inverse,
    series_mul,
    series_one,
    series_pow,
)
from .hall import BasicCommutator, HallError, generate_basic, hall_factorize, principal_part
from .gauss import (
    GaussCodeError,
    LinkCode,
    Passage,
    StringLinkCode,
    apply_move,
    applicable_sites,
    closure,
    cut,
    longitude_series,
    parse,
    self_writhe,
    serialize,
    stack,
    wirtinger,
)
from .arrows import (
    ArrowError,
    ArrowPresentation,
    CommTree,
    insert_self_tree,
    leaf,
    node,
    realize_sorted,
    sorted_presentation,
    surgery,
    tree_word,
)
from .invariants import (
    InvariantError,
    InvariantTable,
    KReducedAction,
    action,
    action_apply,
    action_compose,
    action_invert,
    identity_action,
    k_equal,
    link_vanishing,
    milnor,
    milnor_table,
    r_index,
)

__version__ = "0.1.0"
