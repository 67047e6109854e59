"""Differential tests of guard derivation and of guard/path projection.

Communication expansion projects the process-level guards and alternative
paths onto the inserted communication processes instead of deriving and
enumerating them again (``project_paths``).  These tests hold the projection
to a fresh derivation and enumeration on the expanded graph, and hold the
bitmask guard derivation itself to a truth-table oracle.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atm import build_all_modes
from repro.conditions import Condition, Conjunction, Literal
from repro.data import load_fig1_example
from repro.exploration import ExplorationProblem, StageCache
from repro.exploration.moves import NeighborhoodSampler
from repro.generator import generate_system
from repro.graph import (
    CPGBuilder,
    PathEnumerator,
    crossing_edges,
    expansion_structure,
    project_paths,
)
from repro.graph.process import ordinary_process


def path_records(paths):
    return [
        (
            path.label,
            sorted(path.assignment.items()),
            path.active_processes,
            path.index,
        )
        for path in paths
    ]


def guard_records(graph):
    return [
        (name, guard.masks, str(guard)) for name, guard in graph.guards().items()
    ]


def assert_projection_matches_fresh(graph, crossing):
    """Projected paths and guards equal those of a freshly built structure."""
    structure = expansion_structure(graph, crossing)
    projected = project_paths(graph, structure)
    fresh = expansion_structure(graph, crossing).graph
    assert fresh._guard_cache is None
    assert path_records(projected) == path_records(PathEnumerator(fresh).paths())
    assert guard_records(structure.graph) == guard_records(fresh)
    assert (
        structure.graph.conjunction_processes() == fresh.conjunction_processes()
    )
    assert PathEnumerator(structure.graph).paths() is projected


def all_crossing(graph):
    return tuple(
        (edge.src, edge.dst)
        for edge in graph.edges
        if not graph[edge.src].is_dummy and not graph[edge.dst].is_dummy
    )


#: (nodes, alternative paths, seed) of the generator sweep: 20-240 nodes,
#: 1-16 paths.
SWEEP = [
    (20, 1, 1),
    (24, 2, 2),
    (40, 3, 3),
    (60, 5, 4),
    (80, 8, 11),
    (100, 6, 5),
    (120, 12, 6),
    (160, 10, 7),
    (200, 16, 8),
    (240, 16, 9),
]


@pytest.mark.parametrize("nodes, paths, seed", SWEEP)
def test_projection_matches_fresh_enumeration(nodes, paths, seed):
    system = generate_system(nodes, paths, seed=seed)
    graph = system.process_graph
    every = all_crossing(graph)
    rng = random.Random(seed)
    patterns = [
        (),
        every,
        crossing_edges(graph, system.mapping),
        tuple(edge for edge in every if rng.random() < 0.5),
    ]
    for crossing in patterns:
        assert_projection_matches_fresh(graph, crossing)


@pytest.mark.parametrize("map_communications", [False, True])
def test_stage_cache_expansion_matches_fresh(map_communications):
    problem = ExplorationProblem.from_system(
        generate_system(48, 6, seed=21), map_communications=map_communications
    )
    cache = StageCache()
    sampler = NeighborhoodSampler(problem)
    rng = random.Random(5)
    candidate = problem.initial_candidate()
    for _ in range(12):
        expanded, paths = cache.expansion(problem, candidate)
        mapping = problem.mapping_for(candidate)
        fresh = expansion_structure(
            problem.graph, crossing_edges(problem.graph, mapping)
        ).graph
        assert path_records(paths) == path_records(PathEnumerator(fresh).paths())
        assert guard_records(expanded.graph) == guard_records(fresh)
        neighbours = sampler.sample(candidate, rng, 1)
        if neighbours:
            candidate = neighbours[0][1]
    assert cache.stats.structure_misses >= 2


# -- truth-table oracle ----------------------------------------------------------


def oracle(graph):
    """Guards (as satisfying-assignment sets) and conjunction processes.

    Follows the model's definition directly: the source is always active, an
    edge carries ``guard(src) AND condition``, a node whose incoming edge
    guards include a mutually exclusive pair (or that is flagged) takes their
    OR, any other node their AND.
    """
    conditions = sorted({edge.condition.condition for edge in graph.conditional_edges})
    universe = [
        dict(zip(conditions, bits))
        for bits in itertools.product((False, True), repeat=len(conditions))
    ]
    everything = frozenset(range(len(universe)))
    guards, conjunctions = {}, set()
    for name in graph.topological_order():
        edge_sets = []
        for edge in graph.in_edges(name):
            holds = guards[edge.src]
            if edge.is_conditional:
                holds = frozenset(
                    i for i in holds if edge.condition.evaluate(universe[i])
                )
            edge_sets.append(holds)
        if not edge_sets:
            guards[name] = everything
            if graph[name].is_conjunction:
                conjunctions.add(name)
            continue
        exclusive = any(
            not (left & right) for left, right in itertools.combinations(edge_sets, 2)
        )
        if graph[name].is_conjunction or exclusive:
            conjunctions.add(name)
            guards[name] = frozenset().union(*edge_sets)
        else:
            guards[name] = frozenset.intersection(*edge_sets)
    return conditions, universe, guards, conjunctions


def oracle_terms(conditions, universe, satisfying):
    """Minterms over the relevant conditions of a satisfying-assignment set."""
    index = {tuple(a[c] for c in conditions): i for i, a in enumerate(universe)}
    relevant = [
        condition
        for position, condition in enumerate(conditions)
        if any(
            (i in satisfying)
            != (
                index[
                    tuple(
                        not value if k == position else value
                        for k, value in enumerate(bits)
                    )
                ]
                in satisfying
            )
            for bits, i in index.items()
        )
    ]
    return frozenset(
        Conjunction(Literal(c, universe[i][c]) for c in relevant) for i in satisfying
    )


def assert_guards_match_oracle(graph):
    conditions, universe, guards, conjunctions = oracle(graph)
    derived = graph.guards()
    assert list(derived) == graph.topological_order()
    for name, satisfying in guards.items():
        expected = oracle_terms(conditions, universe, satisfying)
        assert derived[name].terms == expected, name
    assert set(graph.conjunction_processes()) == conjunctions
    for name in graph.process_names:
        assert graph.is_conjunction_process(name) == (name in conjunctions)


def test_fig1_guards_match_oracle():
    example = load_fig1_example()
    assert_guards_match_oracle(example.process_graph)
    assert_guards_match_oracle(example.graph)


@pytest.mark.parametrize("mode", build_all_modes(), ids=lambda mode: mode.name)
def test_atm_mode_guards_match_oracle(mode):
    assert_guards_match_oracle(mode.graph)


@st.composite
def random_cpgs(draw):
    """Small DAGs; some nodes compute a condition, a few are flagged conjunctions."""
    count = draw(st.integers(3, 9))
    names = [f"P{i}" for i in range(count)]
    builder = CPGBuilder("random")
    computes = {}
    for index, name in enumerate(names):
        flagged = index > 0 and draw(st.integers(0, 9)) == 0
        builder.add(ordinary_process(name, 1.0, is_conjunction=flagged))
        if index < count - 1 and draw(st.booleans()):
            computes[name] = Condition(f"c{index}")
    for index in range(1, count):
        sources = draw(
            st.lists(st.integers(0, index - 1), min_size=1, max_size=3, unique=True)
        )
        for source in sources:
            src = names[source]
            condition = computes.get(src)
            literal = None
            if condition is not None and draw(st.integers(0, 3)) > 0:
                literal = condition.literal(draw(st.booleans()))
            builder.edge(src, names[index], condition=literal)
    return builder.build(validate=False)


@settings(max_examples=80, deadline=None)
@given(random_cpgs(), st.randoms(use_true_random=False))
def test_random_cpg_guards_and_projection(graph, rng):
    assert_guards_match_oracle(graph)
    every = all_crossing(graph)
    assert_projection_matches_fresh(
        graph, tuple(edge for edge in every if rng.random() < 0.5)
    )
    assert_projection_matches_fresh(graph, every)


def test_conjunction_set_rederived_when_only_the_guard_memo_is_set():
    """Each memo is read on its own: a graph whose guard memo is set but whose
    conjunction memo is not (as another thread may see it mid-derivation)
    still answers conjunction queries, validation and projection."""
    reference = load_fig1_example().process_graph
    graph = load_fig1_example().process_graph
    graph._guard_cache = dict(reference.guards())
    graph._conjunction_cache = None
    assert graph.conjunction_processes() == reference.conjunction_processes()
    assert graph.conjunction_processes()
    for name in graph.process_names:
        assert graph.is_conjunction_process(name) == reference.is_conjunction_process(
            name
        )
    graph._conjunction_cache = None
    graph.validate()
    graph._conjunction_cache = None
    assert_projection_matches_fresh(graph, all_crossing(graph))
