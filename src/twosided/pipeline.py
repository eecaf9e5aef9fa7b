"""End-to-end solve: layout graph -> interval projection -> selection.

Ties the transform and the solvers together and re-derives the crossing
accounting of the resulting two-sided drawing.  With pair weights 1
(COUNT_SHIFTED) the selection weight equals the number of crossings removed
from the interior; with pair weights 2 (IGNORE_SHIFTED) it equals the
reduction in total crossings.  ``verify_accounting`` asserts those identities
exactly, and ``solve_layout`` runs it on every result before returning it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import LayoutInstance, Solution, TwoSidedAssignment, count_crossings
from .solver_general import solve_k
from .transform import EdgeWeightMode, project_to_intervals


@dataclass(frozen=True)
class PipelineResult:
    instance: LayoutInstance
    mode: EdgeWeightMode
    k: int
    solution: Solution
    assignment: TwoSidedAssignment
    crossings_one_sided: int
    interior: int
    exterior: int

    @property
    def total(self) -> int:
        return self.interior + self.exterior


def solve_layout(
    instance: LayoutInstance,
    k: int,
    mode: EdgeWeightMode = EdgeWeightMode.IGNORE_SHIFTED,
    force_general: bool = False,
) -> PipelineResult:
    """Compute an optimal outer k-plane exterior edge set for the layout.

    Raises AssertionError when the result breaks the crossing accounting of
    its weight mode (``verify_accounting``).
    """
    projection = project_to_intervals(instance, mode)
    solution = solve_k(projection.interval_set, k, force_general=force_general)
    assignment = TwoSidedAssignment.from_exterior(instance, solution.chosen)
    interior, exterior = count_crossings(instance, assignment)
    one_sided = count_crossings(
        instance, TwoSidedAssignment.from_exterior(instance, ())
    )[0]
    result = PipelineResult(
        instance, mode, k, solution, assignment, one_sided, interior, exterior
    )
    verify_accounting(result)
    return result


def verify_accounting(result: PipelineResult) -> None:
    """Exact crossing-count identities of the objective.

    COUNT_SHIFTED: interior crossings = one-sided crossings - weight.
    IGNORE_SHIFTED: total crossings   = one-sided crossings - weight.
    """
    w = result.solution.weight
    if result.mode is EdgeWeightMode.COUNT_SHIFTED:
        name, counted = "interior", result.interior
    else:
        name, counted = "total", result.total
    if counted != result.crossings_one_sided - w:
        raise AssertionError(
            f"{name} accounting broken: {counted} != {result.crossings_one_sided} - {w}"
        )
