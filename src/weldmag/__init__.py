"""Milnor invariants of welded string links via exact truncated Magnus expansions.

The pipeline: Gauss codes (``gauss``) give Wirtinger presentations whose
longitudes are expanded in a truncated free power-series ring over the
integers (``magnus``, with the free-group word calculus in ``words``); the
coefficients are the Milnor invariants and the level-k equivalence tests
(``invariants``).  A Hall basis of basic commutators (``hall``) and a tree
presentation realizer (``arrows``) provide independent cross-checks.  The
``cli`` module exposes everything as the ``weldmag`` command.
"""

from .words import Word, WordError, commutator, conjugate, format_word, invert, multiply, parse_word
from .magnus import (
    MagnusError,
    TruncatedSeries,
    TruncationPolicy,
    expand,
    format_series,
    series_inverse,
    series_mul,
    series_one,
)
from .hall import BasicCommutator, HallError, generate_basic, hall_factorize
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
    action_compose,
    action_invert,
    identity_action,
    link_vanishing,
    milnor,
    milnor_table,
    r_index,
)

__version__ = "0.1.0"
