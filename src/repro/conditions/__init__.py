"""Boolean machinery for conditions, guards, path labels and column headers.

The conditional process graph model of Eles et al. attaches boolean
*conditions* to conditional edges.  This package provides the small, exact
boolean algebra the scheduler needs:

* :class:`Condition` / :class:`Literal` — condition variables and polarised
  occurrences;
* :class:`Conjunction` — an AND of literals (path labels, schedule-table
  column headers, "conditions known at time t on PE p");
* :class:`Guard` — process guards, canonical sets of bitmask minterms;
* assignment helpers for enumerating and manipulating condition valuations.
"""

from .assignment import (
    Assignment,
    all_assignments,
    assignment_from_literals,
    conjunction_from_assignment,
    extend_assignment,
    is_extension_of,
    literals_from_assignment,
    restrict_assignment,
)
from .conjunction import Conjunction, ContradictionError
from .guard import Guard
from .literals import Condition, Literal, conditions_of
from .universe import (
    DEFAULT_UNIVERSE,
    ConditionUniverse,
    condition_bit,
    masks_from_assignment,
)

__all__ = [
    "Assignment",
    "Condition",
    "ConditionUniverse",
    "Conjunction",
    "ContradictionError",
    "DEFAULT_UNIVERSE",
    "Guard",
    "Literal",
    "condition_bit",
    "masks_from_assignment",
    "all_assignments",
    "assignment_from_literals",
    "conditions_of",
    "conjunction_from_assignment",
    "extend_assignment",
    "is_extension_of",
    "literals_from_assignment",
    "restrict_assignment",
]
