"""Process guards as canonical sets of bitmask minterms.

The guard ``X_Pi`` of a process is the condition under which it is
activated.  Below a disjunction node it is a conjunction such as ``D & K``;
at a conjunction node that re-joins alternative paths it is the OR of the
guards of the joined branches, which usually collapses back to the guard that
held before the split.

:class:`Guard` keeps such a function in one canonical form: the set of its
minterms over its *relevant* conditions (those whose value can change the
outcome), each minterm a ``(pos_mask, neg_mask)`` pair over
:data:`~repro.conditions.universe.DEFAULT_UNIVERSE`.  ``true`` is the single
empty term and ``false`` the empty set.  Equal functions therefore have equal
term sets, and the questions the scheduler asks — implication, mutual
exclusion, satisfaction by a (partial) assignment — are integer tests over
the terms.  AND with a literal over a condition the guard does not mention is
a mask OR on every term; the form is rebuilt only where several terms meet.
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, Iterable, Mapping, Tuple

from .conjunction import Conjunction
from .literals import Condition, Literal
from .universe import DEFAULT_UNIVERSE

#: One guard term: ``(pos_mask, neg_mask)`` of a conjunction of literals.
TermMasks = Tuple[int, int]


class Guard:
    """An immutable boolean function of conditions in canonical minterm form.

    Build guards from any sum of products (``Guard(conjunctions)``) or from
    :meth:`true` with :meth:`and_literal`, and combine them with
    :meth:`and_`, :meth:`all_of` and :meth:`any_of`; every result is
    canonical, so ``==`` is semantic equivalence.
    """

    __slots__ = ("_masks", "_care", "_terms", "_conditions")

    def __init__(self, terms: Iterable[Conjunction] = ()) -> None:
        masks, care = _canonical(
            {(term.pos_mask, term.neg_mask) for term in terms}
        )
        self._masks = masks
        self._care = care
        self._terms = None
        self._conditions = None

    @classmethod
    def _of(cls, masks: FrozenSet[TermMasks], care: int) -> "Guard":
        """Wrap term masks that are already canonical over ``care``."""
        self = object.__new__(cls)
        self._masks = masks
        self._care = care
        self._terms = None
        self._conditions = None
        return self

    # -- constructors -----------------------------------------------------

    @classmethod
    def true(cls) -> "Guard":
        return _TRUE

    @classmethod
    def any_of(cls, guards: Iterable["Guard"]) -> "Guard":
        """The OR of several guards."""
        distinct = []
        for guard in guards:
            if guard._care == 0:
                if guard._masks:
                    return _TRUE
                continue
            if all(guard._masks != seen._masks for seen in distinct):
                distinct.append(guard)
        if not distinct:
            return _FALSE
        if len(distinct) == 1:
            return distinct[0]
        terms = set()
        for guard in distinct:
            terms.update(guard._masks)
        return cls._of(*_canonical(terms))

    @classmethod
    def all_of(cls, guards: Iterable["Guard"]) -> "Guard":
        """The AND of several guards."""
        result = _TRUE
        for guard in guards:
            result = result.and_(guard)
        return result

    # -- basic protocol ----------------------------------------------------

    @property
    def masks(self) -> FrozenSet[TermMasks]:
        """The canonical terms as ``(pos_mask, neg_mask)`` pairs."""
        return self._masks

    @property
    def terms(self) -> FrozenSet[Conjunction]:
        """The canonical terms as conjunctions."""
        if self._terms is None:
            self._terms = frozenset(
                Conjunction.from_masks(pos, neg) for pos, neg in self._masks
            )
        return self._terms

    @property
    def conditions(self) -> FrozenSet[Condition]:
        """The relevant conditions."""
        if self._conditions is None:
            self._conditions = frozenset(DEFAULT_UNIVERSE.conditions_in(self._care))
        return self._conditions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Guard):
            return NotImplemented
        return self._masks == other._masks

    def __hash__(self) -> int:
        return hash(self._masks)

    def __str__(self) -> str:
        if not self._masks:
            return "false"
        if not self._care:
            return "true"
        return " | ".join(
            f"({term})" if len(term) > 1 else str(term)
            for term in sorted(self.terms, key=str)
        )

    def __repr__(self) -> str:
        return f"Guard({str(self)!r})"

    def is_true(self) -> bool:
        """True when the guard holds under every assignment."""
        return not self._care and bool(self._masks)

    # -- algebra -----------------------------------------------------------

    def and_literal(self, literal: Literal) -> "Guard":
        """The AND of this guard and one literal."""
        bit = DEFAULT_UNIVERSE.bit_of(literal.condition)
        if not bit & self._care:
            # A new relevant condition: every minterm gains one literal.
            if literal.value:
                masks = frozenset((pos | bit, neg) for pos, neg in self._masks)
            else:
                masks = frozenset((pos, neg | bit) for pos, neg in self._masks)
            return Guard._of(masks, self._care | bit if masks else 0)
        index = 0 if literal.value else 1
        return Guard._of(
            *_canonical({term for term in self._masks if term[index] & bit})
        )

    def and_(self, other: "Guard") -> "Guard":
        if other._masks == self._masks or other.is_true():
            return self
        if self.is_true():
            return other
        products = {
            (pos | other_pos, neg | other_neg)
            for pos, neg in self._masks
            for other_pos, other_neg in other._masks
            if not ((pos & other_neg) | (neg & other_pos))
        }
        if not self._care & other._care:
            # Functions of disjoint conditions: the products are the minterms.
            return Guard._of(
                frozenset(products), self._care | other._care if products else 0
            )
        return Guard._of(*_canonical(products))

    # -- semantics ----------------------------------------------------------

    def satisfied_by_masks(self, pos_mask: int, neg_mask: int) -> bool:
        """True when some term is fully assigned and satisfied (two probes per term)."""
        not_pos = ~pos_mask
        not_neg = ~neg_mask
        return any(
            not (pos & not_pos) and not (neg & not_neg) for pos, neg in self._masks
        )

    def satisfied_by_partial(self, assignment: Mapping[Condition, bool]) -> bool:
        """Mapping form of :meth:`satisfied_by_masks`."""
        return self.satisfied_by_masks(*DEFAULT_UNIVERSE.masks_of(assignment))

    def covers_masks(self, pos_mask: int, neg_mask: int) -> bool:
        """True when the conjunction ``(pos_mask, neg_mask)`` implies this guard.

        The terms are distinct minterms over the relevant conditions, so the
        conjunction implies the guard exactly when every minterm compatible
        with it is present: ``2 ** (relevant conditions it leaves free)``.
        """
        compatible = 0
        for pos, neg in self._masks:
            if not ((pos & neg_mask) | (neg & pos_mask)):
                compatible += 1
        free = self._care & ~(pos_mask | neg_mask)
        return compatible == 1 << free.bit_count()

    def implies(self, other: "Guard") -> bool:
        return all(other.covers_masks(pos, neg) for pos, neg in self._masks)

    def is_mutually_exclusive_with(self, other: "Guard") -> bool:
        """True when ``self AND other`` is unsatisfiable: every term pair clashes."""
        return all(
            (pos & other_neg) | (neg & other_pos)
            for pos, neg in self._masks
            for other_pos, other_neg in other._masks
        )


def _canonical(terms: AbstractSet[TermMasks]) -> Tuple[FrozenSet[TermMasks], int]:
    """Canonical ``(minterms, relevant mask)`` of a sum of consistent terms.

    Expands every term to its minterms over the mentioned conditions, drops
    the conditions whose flip never changes the outcome, and projects the
    minterms onto the rest.
    """
    if len(terms) <= 1:
        # No term is false; one term is its own single minterm.
        if not terms:
            return _NO_TERMS, 0
        ((pos, neg),) = terms
        return frozenset(terms), pos | neg
    care = 0
    for pos, neg in terms:
        care |= pos | neg
    minterms = set()
    for pos, neg in terms:
        free = care & ~(pos | neg)
        subset = free
        while True:
            minterms.add(pos | subset)
            if not subset:
                break
            subset = (subset - 1) & free
    if len(minterms) == 1 << care.bit_count():
        return _TRUE_TERMS, 0
    relevant = care
    remaining = care
    while remaining:
        bit = remaining & -remaining
        remaining ^= bit
        if all(minterm ^ bit in minterms for minterm in minterms):
            relevant ^= bit
    return (
        frozenset((minterm & relevant, relevant & ~minterm) for minterm in minterms),
        relevant,
    )


_NO_TERMS: FrozenSet[TermMasks] = frozenset()
_TRUE_TERMS: FrozenSet[TermMasks] = frozenset(((0, 0),))
_TRUE = Guard._of(_TRUE_TERMS, 0)
_FALSE = Guard._of(_NO_TERMS, 0)
