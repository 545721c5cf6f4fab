"""Integration tests for the evaluator and rankings (tiny workloads)."""

import pytest

from repro.core import (
    ADL,
    APL,
    END_USER,
    TPL,
    TOOL_DEVELOPER,
    evaluate_tools,
    primitive_rankings,
    summary_table,
)
from repro.errors import EvaluationError

_TINY_APPS = {
    "jpeg": {"height": 64, "width": 64},
    "fft2d": {"size": 32},
    "montecarlo": {"samples": 20_000},
    "psrs": {"keys": 5_000},
}


@pytest.fixture(scope="module")
def report():
    """One shared evaluation run (module-scoped: it is the slow part)."""
    return evaluate_tools(
        platform="sun-ethernet",
        processors=4,
        tpl_sizes=(1024, 16384),
        global_sum_ints=5_000,
        app_params=_TINY_APPS,
    )


class TestEvaluator:
    def test_unknown_tool_rejected(self):
        with pytest.raises(EvaluationError):
            evaluate_tools("sun-ethernet", tools=["p4", "linda"])

    def test_too_few_processors_rejected(self):
        with pytest.raises(EvaluationError):
            evaluate_tools("sun-ethernet", processors=1)

    def test_report_covers_all_tools(self, report):
        assert set(report.ranking()) == {"p4", "pvm", "express"}

    def test_scores_in_unit_interval(self, report):
        for row in report.scores().values():
            for score in row.values():
                assert 0.0 <= score <= 1.0

    def test_p4_wins_tpl(self, report):
        """The paper's headline: p4 best in all primitive classes."""
        scores = report.scores()
        assert scores["p4"]["tpl"] == pytest.approx(1.0)
        assert scores["pvm"]["tpl"] < 1.0
        assert scores["express"]["tpl"] < 1.0

    def test_pvm_wins_adl(self, report):
        scores = report.scores()
        assert scores["pvm"]["adl"] > scores["p4"]["adl"]

    def test_overall_is_weighted_combination(self, report):
        for evaluation in report.evaluations:
            expected = report.profile.overall(evaluation.level_scores)
            assert evaluation.overall == pytest.approx(expected)

    def test_ranking_sorted_by_overall(self, report):
        overalls = [evaluation.overall for evaluation in report.evaluations]
        assert overalls == sorted(overalls, reverse=True)

    def test_summary_mentions_everything(self, report):
        text = report.summary()
        for tool in ("p4", "pvm", "express"):
            assert tool in text
        assert "TPL" in text and "APL" in text and "ADL" in text
        assert report.best_tool() in text

    def test_detail_has_global_sum_na_for_pvm(self, report):
        pvm = next(e for e in report.evaluations if e.tool == "pvm")
        gsum_keys = [k for k in pvm.detail["tpl"] if k.startswith("global sum")]
        assert gsum_keys
        assert pvm.detail["tpl"][gsum_keys[0]] == 0.0


class TestWeightSensitivity:
    """Changing the profile re-weights the same measurements."""

    def test_profiles_change_overall(self, report):
        scores = {e.tool: e.level_scores for e in report.evaluations}
        balanced = {tool: report.profile.overall(s) for tool, s in scores.items()}
        tool_dev = {tool: TOOL_DEVELOPER.overall(s) for tool, s in scores.items()}
        # p4's margin grows when TPL dominates.
        assert tool_dev["p4"] - tool_dev["pvm"] > balanced["p4"] - balanced["pvm"]

    def test_end_user_weighting(self, report):
        scores = {e.tool: e.level_scores for e in report.evaluations}
        for tool, level_scores in scores.items():
            expected = (
                0.2 * level_scores[TPL] + 0.6 * level_scores[APL] + 0.2 * level_scores[ADL]
            )
            assert END_USER.overall(level_scores) == pytest.approx(expected)


class TestPrimitiveRankings:
    @pytest.fixture(scope="class")
    def rankings(self):
        return primitive_rankings("sun-ethernet", nbytes=16384, vector_ints=5_000)

    def test_all_classes_present(self, rankings):
        assert set(rankings) == {"snd/rcv", "broadcast", "ring", "global sum"}

    def test_p4_first_everywhere(self, rankings):
        """Table 4: 'p4 outperforms Express and PVM in all classes'."""
        for order in rankings.values():
            assert order[0] == "p4"

    def test_pvm_absent_from_global_sum(self, rankings):
        assert "pvm" not in rankings["global sum"]
        assert rankings["global sum"] == ["p4", "express"]

    def test_ring_order_matches_paper(self, rankings):
        """Table 4 Ethernet ring column: p4, Express, PVM."""
        assert rankings["ring"] == ["p4", "express", "pvm"]

    def test_summary_table_renders(self, rankings):
        text = summary_table({"SUN/Ethernet": rankings})
        assert "SUN/Ethernet" in text
        assert "snd/rcv" in text
        assert "p4" in text
