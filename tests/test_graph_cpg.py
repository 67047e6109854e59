"""Unit tests for the conditional process graph container (guards, structure, validation)."""

import pytest

from repro.conditions import Condition, Guard
from repro.graph import (
    CPGBuilder,
    ConditionalProcessGraph,
    Edge,
    GraphStructureError,
    ordinary_process,
    sink_process,
    source_process,
)

C = Condition("C")
D = Condition("D")


def build_branching_graph():
    """source -> P1 (computes C) -> {P2 if C, P3 if !C} -> P4 (conjunction) -> sink."""
    builder = CPGBuilder("branching")
    builder.process("P1", 2.0)
    builder.process("P2", 3.0)
    builder.process("P3", 4.0)
    builder.process("P4", 1.0)
    builder.edge("P1", "P2", condition=C.true())
    builder.edge("P1", "P3", condition=C.false())
    builder.edge("P2", "P4")
    builder.edge("P3", "P4")
    return builder.build()


class TestConstruction:
    def test_duplicate_process_rejected(self):
        graph = ConditionalProcessGraph()
        graph.add_process(ordinary_process("P1", 1.0))
        with pytest.raises(GraphStructureError):
            graph.add_process(ordinary_process("P1", 2.0))

    def test_duplicate_source_rejected(self):
        graph = ConditionalProcessGraph()
        graph.add_process(source_process("s1"))
        with pytest.raises(GraphStructureError):
            graph.add_process(source_process("s2"))

    def test_edge_requires_existing_endpoints(self):
        graph = ConditionalProcessGraph()
        graph.add_process(ordinary_process("P1", 1.0))
        with pytest.raises(GraphStructureError):
            graph.add_edge(Edge("P1", "P2"))

    def test_duplicate_edge_rejected(self):
        graph = ConditionalProcessGraph()
        graph.add_process(ordinary_process("P1", 1.0))
        graph.add_process(ordinary_process("P2", 1.0))
        graph.connect("P1", "P2")
        with pytest.raises(GraphStructureError):
            graph.connect("P1", "P2")

    def test_len_and_iteration(self):
        graph = build_branching_graph()
        assert len(graph) == 6  # four processes + source + sink
        assert {p.name for p in graph} >= {"P1", "P2", "P3", "P4"}

    def test_accessors(self):
        graph = build_branching_graph()
        assert graph.source.is_source and graph.sink.is_sink
        assert graph.has_edge("P1", "P2")
        assert graph.get_edge("P1", "P2").condition == C.true()
        assert set(graph.successors("P1")) == {"P2", "P3"}
        assert set(graph.predecessors("P4")) == {"P2", "P3"}
        assert len(graph.conditional_edges) == 2

    def test_topological_order_is_consistent(self):
        graph = build_branching_graph()
        order = graph.topological_order()
        assert order.index("P1") < order.index("P2")
        assert order.index("P2") < order.index("P4")

    def test_to_networkx_carries_attributes(self):
        nx_graph = build_branching_graph().to_networkx()
        assert nx_graph.nodes["P1"]["process"].name == "P1"
        assert nx_graph.edges["P1", "P2"]["edge"].is_conditional

    def test_copy_and_subgraph(self):
        graph = build_branching_graph()
        clone = graph.copy()
        assert len(clone) == len(graph)
        sub = graph.subgraph(["P1", "P2"])
        assert set(sub.process_names) == {"P1", "P2"}
        assert sub.has_edge("P1", "P2")
        assert not sub.has_edge("P1", "P3")


class TestConditionsAndGuards:
    def test_conditions_listed(self):
        assert build_branching_graph().conditions == (C,)

    def test_disjunction_processes(self):
        graph = build_branching_graph()
        assert graph.disjunction_processes() == {"P1": C}
        assert graph.disjunction_process_of(C) == "P1"

    def test_disjunction_process_of_unknown_condition(self):
        with pytest.raises(KeyError):
            build_branching_graph().disjunction_process_of(Condition("Z"))

    def test_conjunction_detection(self):
        graph = build_branching_graph()
        assert graph.is_conjunction_process("P4")
        assert not graph.is_conjunction_process("P2")

    def test_explicit_conjunction_flag_respected(self):
        builder = CPGBuilder("explicit")
        builder.process("P1", 1.0)
        builder.add(ordinary_process("P2", 1.0, is_conjunction=True))
        builder.edge("P1", "P2")
        graph = builder.build()
        assert graph.is_conjunction_process("P2")

    def test_guards(self):
        graph = build_branching_graph()
        guards = graph.guards()
        assert guards["P1"].is_true()
        assert guards["P2"] == Guard.true().and_literal(C.true())
        assert guards["P3"] == Guard.true().and_literal(C.false())
        assert guards["P4"].is_true()
        assert guards[graph.sink.name].is_true()

    def test_guard_of_single_process(self):
        graph = build_branching_graph()
        assert graph.guard_of("P2") == Guard.true().and_literal(C.true())

    def test_nested_condition_guard(self):
        builder = CPGBuilder("nested")
        for name in ("P1", "P2", "P3", "P4", "P5"):
            builder.process(name, 1.0)
        builder.edge("P1", "P2", condition=C.true())
        builder.edge("P1", "P3", condition=C.false())
        builder.edge("P2", "P4", condition=D.true())
        builder.edge("P2", "P5", condition=D.false())
        graph = builder.build(validate=False)
        guards = graph.guards()
        assert guards["P4"] == Guard.true().and_literal(C.true()).and_literal(
            D.true()
        )

    def test_two_conditions_from_one_node_rejected(self):
        builder = CPGBuilder("bad")
        for name in ("P1", "P2", "P3"):
            builder.process(name, 1.0)
        builder.edge("P1", "P2", condition=C.true())
        builder.edge("P1", "P3", condition=D.true())
        with pytest.raises(GraphStructureError):
            builder.build()

    def test_condition_computed_twice_rejected(self):
        builder = CPGBuilder("bad")
        for name in ("P1", "P2", "P3", "P4"):
            builder.process(name, 1.0)
        builder.edge("P1", "P2", condition=C.true())
        builder.edge("P3", "P4", condition=C.true())
        with pytest.raises(GraphStructureError):
            builder.build()


class TestActivation:
    def test_active_processes_follow_guards(self):
        graph = build_branching_graph()
        active_true = graph.active_processes({C: True})
        active_false = graph.active_processes({C: False})
        assert "P2" in active_true and "P3" not in active_true
        assert "P3" in active_false and "P2" not in active_false
        assert "P4" in active_true and "P4" in active_false

    def test_active_predecessors_of_conjunction(self):
        graph = build_branching_graph()
        assert graph.active_predecessors("P4", {C: True}) == ("P2",)
        assert graph.active_predecessors("P4", {C: False}) == ("P3",)

    def test_active_predecessors_of_regular_node(self):
        graph = build_branching_graph()
        assert graph.active_predecessors("P2", {C: True}) == ("P1",)
        assert graph.active_predecessors("P2", {C: False}) == ()


class TestValidation:
    def test_valid_graph_passes(self):
        build_branching_graph().validate()

    def test_missing_source_detected(self):
        graph = ConditionalProcessGraph()
        graph.add_process(sink_process())
        with pytest.raises(GraphStructureError):
            graph.validate()

    def test_cycle_detected(self):
        graph = ConditionalProcessGraph()
        graph.add_process(source_process())
        graph.add_process(sink_process())
        graph.add_process(ordinary_process("P1", 1.0))
        graph.add_process(ordinary_process("P2", 1.0))
        graph.connect("source", "P1")
        graph.connect("P1", "P2")
        graph.connect("P2", "P1")
        graph.connect("P2", "sink")
        with pytest.raises(GraphStructureError):
            graph.validate()

    def test_non_polar_graph_detected(self):
        graph = ConditionalProcessGraph()
        graph.add_process(source_process())
        graph.add_process(sink_process())
        graph.add_process(ordinary_process("P1", 1.0))
        graph.connect("source", "sink")
        # P1 is disconnected: neither successor of source nor predecessor of sink
        with pytest.raises(GraphStructureError):
            graph.validate()

    def test_mixed_inputs_inherit_the_stronger_guard(self):
        # P3 waits for inputs from both P1 (always active) and P2 (guard C);
        # deriving its guard as the conjunction keeps the model's rule
        # "X_Pj implies X_Pi" satisfied: P3 only runs when C holds, so it never
        # waits for a message that cannot arrive.
        builder = CPGBuilder("mixed-guard")
        builder.process("P1", 1.0)
        builder.process("P2", 1.0)
        builder.process("P3", 1.0)
        builder.process("P4", 1.0)
        builder.edge("P1", "P2", condition=C.true())
        builder.edge("P1", "P4", condition=C.false())
        builder.edge("P2", "P3")
        builder.edge("P1", "P3")
        graph = builder.build()
        assert graph.guard_of("P3") == Guard.true().and_literal(C.true())
        for edge in graph.in_edges("P3"):
            assert graph.guard_of("P3").implies(graph.guard_of(edge.src))

    def test_repr_mentions_size(self):
        assert "processes=6" in repr(build_branching_graph())
