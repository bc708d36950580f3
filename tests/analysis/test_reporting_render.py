"""Tests for Markdown reporting and ASCII rendering."""

from __future__ import annotations

import networkx as nx

from repro.analysis.registry import ExperimentResult, run_experiment
from repro.analysis.reporting import full_report, result_to_markdown, write_report
from repro.analysis.runtime import run_sweep
from repro.networks.generators.figures import paper_figure1, paper_figure2_multigraph
from repro.networks.render import (
    render_ambiguity_curve,
    render_dynamic_graph,
    render_multigraph_round,
    render_round,
)


class TestMarkdownReporting:
    def test_result_section(self):
        result = run_experiment("tab-star-pd1", sizes=(2, 5))
        markdown = result_to_markdown(result)
        assert markdown.startswith("## tab-star-pd1")
        assert "```" in markdown
        assert "Checks: 2/2 — PASS" in markdown

    def test_failed_result_lists_failures(self):
        result = ExperimentResult(
            experiment="x",
            title="t",
            headers=["a"],
            rows=[{"a": 1}],
            checks={"good": True, "bad": False},
        )
        markdown = result_to_markdown(result)
        assert "1/2 — FAIL" in markdown
        assert "FAILED: bad" in markdown

    def test_full_report_selected(self):
        report = full_report(run_sweep(["tab-star-pd1"]), title="Mini report")
        assert report.startswith("# Mini report")
        assert "all experiments passed" in report

    def test_write_report(self, tmp_path):
        path = write_report(tmp_path / "report.md", run_sweep(["tab-star-pd1"]))
        assert path.read_text().startswith("# Experiment report")


class TestRendering:
    def test_render_round(self):
        text = render_round(nx.path_graph(3), labels={0: "leader"})
        assert "leader: 1" in text
        assert "1: leader, 2" in text

    def test_render_dynamic_graph(self):
        figure = paper_figure1()
        text = render_dynamic_graph(figure.graph, 3)
        assert text.count("round") == 3
        assert "(5 edges)" in text

    def test_render_multigraph_round(self):
        multigraph = paper_figure2_multigraph()
        text = render_multigraph_round(multigraph, 0)
        assert "w3" in text
        assert "[1,2,3]" in text

    def test_render_ambiguity_curve(self):
        text = render_ambiguity_curve([4, 2, 1, 0])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].count("#") > lines[1].count("#")
        assert lines[-1].endswith("0")

    def test_render_ambiguity_curve_scales_large_widths(self):
        text = render_ambiguity_curve([1000, 0], max_bar=10)
        assert text.splitlines()[0].count("#") <= 11

    def test_render_empty_curve(self):
        assert render_ambiguity_curve([]) == "(no rounds)"
