"""Unit and property-based tests for guards (canonical bitmask minterm sets)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conditions import (
    Condition,
    Conjunction,
    Guard,
    Literal,
    masks_from_assignment,
)

C = Condition("C")
D = Condition("D")
K = Condition("K")

ALL_CONDITIONS = [C, D, K]
ALL_ASSIGNMENTS = [
    dict(zip(ALL_CONDITIONS, bits))
    for bits in itertools.product((False, True), repeat=len(ALL_CONDITIONS))
]


def expr_of(*terms):
    return Guard([Conjunction(term) for term in terms])


def literal_guard(literal):
    return Guard.true().and_literal(literal)


def holds(guard, assignment):
    """Evaluate a guard under a complete assignment of ALL_CONDITIONS."""
    return guard.satisfied_by_masks(*masks_from_assignment(assignment))


def oracle_terms(terms):
    """Minterms over the relevant conditions of a sum of products, by truth table."""
    outcome = {
        tuple(a.values()): any(term.evaluate(a) for term in terms)
        for a in ALL_ASSIGNMENTS
    }
    relevant = [
        index
        for index in range(len(ALL_CONDITIONS))
        if any(
            outcome[bits]
            != outcome[bits[:index] + (not bits[index],) + bits[index + 1 :]]
            for bits in outcome
        )
    ]
    if not any(outcome.values()):
        return frozenset()
    return frozenset(
        Conjunction(Literal(ALL_CONDITIONS[index], bits[index]) for index in relevant)
        for bits, value in outcome.items()
        if value
    )


class TestBasics:
    def test_true_and_false(self):
        assert Guard.true().is_true()
        assert not Guard().is_true()
        assert Guard() != Guard.true()

    def test_from_literal(self):
        expr = literal_guard(C.true())
        assert expr.satisfied_by_partial({C: True})
        assert not expr.satisfied_by_partial({C: False})

    def test_str_forms(self):
        assert str(Guard.true()) == "true"
        assert str(Guard()) == "false"
        assert "C" in str(literal_guard(C.true()))

    def test_absorption(self):
        expr = expr_of([C.true()], [C.true(), D.true()])
        assert expr == literal_guard(C.true())

    def test_contradictory_product_dropped(self):
        expr = literal_guard(C.true()).and_(literal_guard(C.false()))
        assert expr == Guard()

    def test_conditions_property(self):
        expr = expr_of([C.true()], [D.false()])
        assert expr.conditions == frozenset({C, D})


class TestAlgebra:
    def test_or_of_complementary_literals_is_true(self):
        expr = Guard.any_of((literal_guard(C.true()), literal_guard(C.false())))
        assert expr == Guard.true()
        assert expr.is_true()

    def test_and_distributes(self):
        left = expr_of([C.true()], [C.false()])
        right = literal_guard(D.true())
        combined = left.and_(right)
        assert combined == literal_guard(D.true())

    def test_and_with_false_is_false(self):
        assert literal_guard(C.true()).and_(Guard()) == Guard()

    def test_or_with_true_is_true(self):
        assert Guard.any_of((literal_guard(C.true()), Guard.true())).is_true()

    def test_implies_reflexive(self):
        expr = expr_of([C.true(), D.false()])
        assert expr.implies(expr)

    def test_implies_weakening(self):
        specific = expr_of([C.true(), D.true()])
        general = expr_of([C.true()])
        assert specific.implies(general)
        assert not general.implies(specific)

    def test_false_implies_everything(self):
        assert Guard().implies(expr_of([K.true()]))

    def test_mutual_exclusion(self):
        assert expr_of([C.true()]).is_mutually_exclusive_with(expr_of([C.false()]))
        assert not expr_of([C.true()]).is_mutually_exclusive_with(expr_of([D.true()]))

    def test_covers_conjunction(self):
        guard = expr_of([D.true(), K.true()])
        column = Conjunction.of(D.true(), K.true(), C.false())
        assert guard.covers_masks(column.pos_mask, column.neg_mask)
        column = Conjunction.of(D.true())
        assert not guard.covers_masks(column.pos_mask, column.neg_mask)

    def test_equality_is_semantic(self):
        left = expr_of([C.true()], [C.false(), D.true()])
        right = expr_of([C.true()], [D.true()])
        assert left == right
        assert hash(left) == hash(right)

    def test_satisfying_assignments(self):
        # The canonical terms are the satisfying assignments of the relevant
        # conditions.
        assert expr_of([C.true(), D.false()]).terms == {
            Conjunction.of(C.true(), D.false())
        }
        assert expr_of([C.true()], [D.true()]).terms == {
            Conjunction.of(C.true(), D.true()),
            Conjunction.of(C.true(), D.false()),
            Conjunction.of(C.false(), D.true()),
        }

    def test_and_literal_drops_conditions_that_stop_mattering(self):
        either = expr_of([C.true()], [D.true()])
        assert either.and_literal(C.true()) == literal_guard(C.true())
        assert either.and_literal(C.false()) == expr_of([C.false(), D.true()])

    def test_partial_satisfaction_needs_every_relevant_condition(self):
        either = expr_of([C.true()], [D.true()])
        assert not either.satisfied_by_partial({C: True})
        assert either.satisfied_by_partial({C: True, D: False})
        assert Guard.true().satisfied_by_masks(0, 0)
        assert not Guard().satisfied_by_masks(0, 0)


# -- property-based tests -----------------------------------------------------------

literals = st.sampled_from(
    [C.true(), C.false(), D.true(), D.false(), K.true(), K.false()]
)


@st.composite
def conjunctions(draw):
    chosen = draw(st.lists(literals, max_size=3))
    consistent = {}
    for literal in chosen:
        consistent.setdefault(literal.condition, literal)
    return Conjunction(consistent.values())


@st.composite
def expressions(draw):
    terms = draw(st.lists(conjunctions(), max_size=4))
    return Guard(terms)


def assignments():
    return st.sampled_from(ALL_ASSIGNMENTS)


@settings(max_examples=60, deadline=None)
@given(expressions(), expressions(), assignments())
def test_or_semantics(left, right, assignment):
    assert holds(Guard.any_of((left, right)), assignment) == (
        holds(left, assignment) or holds(right, assignment)
    )


@settings(max_examples=60, deadline=None)
@given(expressions(), expressions(), assignments())
def test_and_semantics(left, right, assignment):
    assert holds(left.and_(right), assignment) == (
        holds(left, assignment) and holds(right, assignment)
    )


@settings(max_examples=60, deadline=None)
@given(expressions(), literals, assignments())
def test_and_literal_semantics(expr, literal, assignment):
    product = expr.and_literal(literal)
    assert holds(product, assignment) == (
        holds(expr, assignment) and literal.evaluate(assignment)
    )
    assert product == expr.and_(literal_guard(literal))


@settings(max_examples=60, deadline=None)
@given(st.lists(conjunctions(), max_size=5))
def test_terms_are_the_truth_table_minterms(terms):
    expr = Guard(terms)
    assert expr.terms == oracle_terms(terms)
    assert expr.conditions == {c for term in expr.terms for c in term.conditions}


@settings(max_examples=60, deadline=None)
@given(expressions(), expressions())
def test_implication_matches_evaluation(left, right):
    implied = left.implies(right)
    brute_force = all(
        (not holds(left, assignment)) or holds(right, assignment)
        for assignment in ALL_ASSIGNMENTS
    )
    assert implied == brute_force


@settings(max_examples=60, deadline=None)
@given(expressions(), expressions())
def test_exclusion_matches_evaluation(left, right):
    assert left.is_mutually_exclusive_with(right) == (
        not any(holds(left, a) and holds(right, a) for a in ALL_ASSIGNMENTS)
    )


@settings(max_examples=60, deadline=None)
@given(conjunctions(), conjunctions())
def test_conjunction_exclusion_matches_expression_exclusion(left, right):
    as_expr = Guard([left]).is_mutually_exclusive_with(Guard([right]))
    assert left.is_mutually_exclusive_with(right) == as_expr


@settings(max_examples=60, deadline=None)
@given(expressions())
def test_expression_equivalent_to_itself_or_true_false(expr):
    assert expr == expr
    satisfiable = any(holds(expr, assignment) for assignment in ALL_ASSIGNMENTS)
    assert (expr == Guard()) == (not satisfiable)
    assert expr.is_true() == all(holds(expr, a) for a in ALL_ASSIGNMENTS)


@pytest.mark.parametrize("value", [True, False])
def test_single_condition_round_trip(value):
    expr = literal_guard(C.literal(value))
    assert expr.satisfied_by_partial({C: value})
    assert not expr.satisfied_by_partial({C: not value})
