"""Scheduling of conditional process graphs.

The package contains the two halves of the paper's scheduling strategy:

1. list scheduling of each individual alternative path
   (:class:`PathListScheduler`), and
2. merging the per-path schedules into the global schedule table
   (:class:`ScheduleMerger`), the paper's core contribution.
"""

from .list_scheduler import PathListScheduler, SchedulingError
from .merging import MergeConflictError, MergeResult, ScheduleMerger, merge_schedules
from .priorities import (
    PATH_LOCAL_PRIORITY_FUNCTIONS,
    PRIORITY_FUNCTIONS,
    PriorityFunction,
    critical_path_priorities,
    priority_function,
    static_order_priorities,
    topological_order_priorities,
    upward_rank_priorities,
)
from .schedule import PathSchedule, ScheduledTask
from .schedule_table import ScheduleTable, ScheduleTableError, TableEntry
from .trace import DecisionNode, MergeTrace

__all__ = [
    "DecisionNode",
    "MergeConflictError",
    "MergeResult",
    "MergeTrace",
    "PATH_LOCAL_PRIORITY_FUNCTIONS",
    "PRIORITY_FUNCTIONS",
    "PathListScheduler",
    "PathSchedule",
    "PriorityFunction",
    "ScheduleMerger",
    "ScheduleTable",
    "ScheduleTableError",
    "ScheduledTask",
    "SchedulingError",
    "TableEntry",
    "critical_path_priorities",
    "merge_schedules",
    "priority_function",
    "static_order_priorities",
    "topological_order_priorities",
    "upward_rank_priorities",
]
