"""The multi-level evaluation's outcome, and the one-call quickstart.

The methodology itself lives in three composable layers:

* :mod:`repro.core.spec` — :class:`EvaluationSpec`, the declarative
  grid (tools x platforms x sizes x apps x profiles x seeds) that
  expands into hashable :class:`~repro.core.jobs.MeasurementJob`\\ s;
* :mod:`repro.core.scheduler` — :class:`Scheduler`, which executes
  jobs through a pluggable executor behind a content-keyed result
  cache, so nothing is ever simulated twice;
* :mod:`repro.core.results` — :class:`ResultSet`, which re-weights
  one set of cached samples into a scored
  :class:`EvaluationReport` per (platform, profile, seed) cell.

This module holds the report types and :func:`evaluate_tools`, the
paper-shaped single-platform workflow composed from those layers —
objective 1 of the paper: "enabling the selection of the most
appropriate PDC tools for a particular application class and system
configuration".
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.levels import EvaluationLevel
from repro.core.metrics import MeasurementSet
from repro.core.weights import BALANCED, WeightProfile
from repro.tools.registry import PAPER_TOOL_NAMES

__all__ = ["ToolEvaluation", "EvaluationReport", "evaluate_tools"]


class ToolEvaluation(object):
    """All three level scores for one tool, plus the overall score."""

    def __init__(
        self,
        tool: str,
        level_scores: Dict[EvaluationLevel, float],
        overall: float,
        detail: Dict[str, Dict[str, float]],
    ) -> None:
        self.tool = tool
        self.level_scores = level_scores
        self.overall = overall
        self.detail = detail

    def __repr__(self) -> str:
        return "<ToolEvaluation %s overall=%.3f>" % (self.tool, self.overall)


class EvaluationReport(object):
    """The outcome of one evaluation: scores, ranking, rendering."""

    def __init__(
        self,
        platform_name: str,
        processors: int,
        profile: WeightProfile,
        evaluations: List[ToolEvaluation],
        tpl_sets: List[MeasurementSet],
        apl_sets: List[MeasurementSet],
    ) -> None:
        self.platform_name = platform_name
        self.processors = processors
        self.profile = profile
        self.evaluations = sorted(evaluations, key=lambda e: -e.overall)
        self.tpl_sets = tpl_sets
        self.apl_sets = apl_sets

    def __repr__(self) -> str:
        return "<EvaluationReport %s: %s>" % (
            self.platform_name,
            ", ".join("%s=%.2f" % (e.tool, e.overall) for e in self.evaluations),
        )

    def ranking(self) -> List[str]:
        """Tools ordered by overall score, best first."""
        return [evaluation.tool for evaluation in self.evaluations]

    def best_tool(self) -> str:
        return self.evaluations[0].tool

    def scores(self) -> Dict[str, Dict[str, float]]:
        """tool -> {"tpl": ..., "apl": ..., "adl": ..., "overall": ...}."""
        table = {}
        for evaluation in self.evaluations:
            row = {
                level.key: score for level, score in evaluation.level_scores.items()
            }
            row["overall"] = evaluation.overall
            table[evaluation.tool] = row
        return table

    def summary(self) -> str:
        """Human-readable report (lazy import keeps modules decoupled)."""
        from repro.core.report import render_report

        return render_report(self)


def evaluate_tools(
    platform: str = "sun-ethernet",
    processors: int = 4,
    tools: Sequence[str] = PAPER_TOOL_NAMES,
    profile: WeightProfile = BALANCED,
    seed: int = 0,
    **spec_options,
) -> EvaluationReport:
    """One-call evaluation: the library's quickstart entry point.

    Runs a one-platform :class:`~repro.core.spec.EvaluationSpec`
    through a fresh :class:`~repro.core.scheduler.Scheduler` and scores
    it under ``profile``.  ``spec_options`` are further spec fields
    (``tpl_sizes``, ``global_sum_ints``, ``apps``, ``app_params``).

    Examples
    --------
    >>> report = evaluate_tools(platform="sun-ethernet", processors=4)
    >>> report.best_tool()
    'p4'
    """
    from repro.core.scheduler import Scheduler
    from repro.core.spec import EvaluationSpec

    spec = EvaluationSpec(
        tools=tools,
        platforms=(platform,),
        processors=processors,
        seeds=(seed,),
        **spec_options,
    )
    return Scheduler().run(spec).report(platform, profile, seed)
