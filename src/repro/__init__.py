"""repro — reproduction of "Scheduling of Conditional Process Graphs for the
Synthesis of Embedded Systems" (Eles, Kuchcinski, Peng, Doboli, Pop — DATE 1998).

The library models embedded systems as conditional process graphs mapped onto
heterogeneous architectures (programmable processors, ASICs, shared buses),
schedules every alternative path with a list scheduler, and merges the
per-path schedules into a single deterministic schedule table whose worst-case
delay is minimised — the paper's core contribution.

Typical usage::

    from repro import load_fig1_example, ScheduleMerger
    example = load_fig1_example()
    result = ScheduleMerger(example.graph, example.expanded_mapping).merge()
    print(result.delta_m, result.delta_max)
"""

from .architecture import (
    Architecture,
    ArchitectureError,
    Mapping,
    MappingError,
    PEKind,
    ProcessingElement,
    bus,
    hardware,
    programmable,
    simple_architecture,
)
from .conditions import Condition, Conjunction, Guard, Literal
from .data import Fig1Example, load_fig1_example
from .exploration import (
    ArchitectureBounds,
    CachedEvaluator,
    Candidate,
    CandidateEvaluation,
    CostWeights,
    EvaluationPool,
    ExplorationConfig,
    ExplorationProblem,
    ExplorationResult,
    Explorer,
    GeneticEngine,
    ParetoFront,
    ParetoPoint,
)
from .graph import (
    AlternativePath,
    CPGBuilder,
    ConditionalProcessGraph,
    Edge,
    ExpandedGraph,
    GraphStructureError,
    PathEnumerator,
    Process,
    ProcessKind,
    count_paths,
    enumerate_paths,
    expand_communications,
)
from .scheduling import (
    MergeResult,
    MergeTrace,
    PathListScheduler,
    PathSchedule,
    ScheduleMerger,
    ScheduleTable,
    ScheduledTask,
    merge_schedules,
)
from .simulation import (
    RuntimeSimulator,
    SimulationError,
    ValidationReport,
    validate_merge_result,
    validate_schedule_table,
)

__version__ = "1.0.0"

__all__ = [
    "AlternativePath",
    "Architecture",
    "ArchitectureBounds",
    "ArchitectureError",
    "CPGBuilder",
    "CachedEvaluator",
    "Candidate",
    "CandidateEvaluation",
    "Condition",
    "ConditionalProcessGraph",
    "Conjunction",
    "CostWeights",
    "Edge",
    "EvaluationPool",
    "ExpandedGraph",
    "ExplorationConfig",
    "ExplorationProblem",
    "ExplorationResult",
    "Explorer",
    "Fig1Example",
    "GeneticEngine",
    "GraphStructureError",
    "Guard",
    "Literal",
    "Mapping",
    "MappingError",
    "MergeResult",
    "MergeTrace",
    "PEKind",
    "ParetoFront",
    "ParetoPoint",
    "PathEnumerator",
    "PathListScheduler",
    "PathSchedule",
    "Process",
    "ProcessKind",
    "ProcessingElement",
    "RuntimeSimulator",
    "ScheduleMerger",
    "ScheduleTable",
    "ScheduledTask",
    "SimulationError",
    "ValidationReport",
    "bus",
    "count_paths",
    "enumerate_paths",
    "expand_communications",
    "hardware",
    "load_fig1_example",
    "merge_schedules",
    "programmable",
    "simple_architecture",
    "validate_merge_result",
    "validate_schedule_table",
    "__version__",
]
