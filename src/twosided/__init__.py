"""Exact crossing minimization for two-sided circular graph layouts.

Given a graph with a fixed cyclic vertex order, the package computes an
optimal set of edges to route outside the circle such that no exterior edge
is crossed more than k times by other exterior edges.  The problem is solved
exactly as a max-weight bounded-overlap selection on the interval
representation of the layout's circle graph: a fast dynamic program for
k <= 1 and a capacity-vector dynamic program for arbitrary fixed k, both
validated against brute-force oracles.
"""

from .model import (
    Interval,
    IntervalSet,
    LayoutInstance,
    SizeGuardError,
    Solution,
    TwoSidedAssignment,
    chords_cross,
    count_crossings,
    crossings_per_chord,
    overlap_kind,
    solution_weight,
)
from .transform import EdgeWeightMode, ProjectionResult, project_to_intervals
from .solver_k1 import Dms1Table, compute_dms1, dms1_pair, dms1_single, solve_k0, solve_k1
from .solver_general import (
    CapacityVector,
    GeneralSolver,
    LegalSuccessor,
    dms_k,
    is_valid_for,
    legal_successors,
    solve_k,
    transition_weight,
)
from .oracle import (
    brute_force_k_overlap,
    brute_force_min_dominating_set,
    brute_force_two_sided,
)
from .hardness import ReducedInstance, extract_dominating_set, reduce_mds_to_bdmwis
from .pipeline import PipelineResult, solve_layout, verify_accounting
from .render import LayoutStats, layout_stats, render_layout
from .bench import (
    ExperimentConfig,
    generate_random_biconnected,
    random_interval_set,
    run_experiment,
    rows_to_csv,
)
from .graphio import dump_intervals, format_graph, parse_graph, parse_graph_file, parse_intervals

__version__ = "0.1.0"
