"""SVG chart rendering: structural validity and content."""

import xml.etree.ElementTree as ET
from xml.sax import saxutils

import numpy as np
import pytest

from repro.viz import bar_chart, fig6_svg, fig7_svg, fig8_svg, fig9_svg, heatmap, line_chart
from repro.viz.svg import escape


def parse(svg: str) -> ET.Element:
    """Well-formedness check: the SVG must parse as XML."""
    return ET.fromstring(svg)


class TestPrimitives:
    def test_line_chart_valid_xml(self):
        svg = line_chart({"UC": [(1, 0.8), (2, 0.85), (3, 0.9)],
                          "IC": [(1, 0.7), (2, 0.75), (3, 0.72)]},
                         title="t", x_label="x", y_label="y")
        root = parse(svg)
        assert root.tag.endswith("svg")
        assert "UC" in svg and "IC" in svg

    def test_line_chart_single_point(self):
        svg = line_chart({"a": [(1.0, 0.5)]})
        parse(svg)

    def test_line_chart_empty_rejected(self):
        with pytest.raises(ValueError):
            line_chart({})
        with pytest.raises(ValueError):
            line_chart({"a": []})

    def test_bar_chart_values_annotated(self):
        svg = bar_chart({"NeuMF": 0.01, "HIRE": 1.5}, y_label="s")
        parse(svg)
        assert "NeuMF" in svg and "HIRE" in svg

    def test_bar_chart_log_scale(self):
        svg = bar_chart({"fast": 0.001, "slow": 10.0}, y_label="s", log_scale=True)
        parse(svg)
        assert "log scale" in svg

    def test_bar_chart_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({})

    def test_heatmap_dimensions(self):
        svg = heatmap([[0.1, 0.9], [0.5, 0.2]], row_labels=["a", "b"],
                      col_labels=["x", "y"])
        root = parse(svg)
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        assert len(rects) >= 4  # one per cell plus background

    def test_heatmap_constant_matrix(self):
        parse(heatmap([[1.0, 1.0], [1.0, 1.0]]))

    def test_heatmap_empty_rejected(self):
        with pytest.raises(ValueError):
            heatmap([])

    def test_labels_escaped(self):
        svg = bar_chart({"a<b>&c": 1.0})
        parse(svg)  # would fail on unescaped '<'

    @pytest.mark.parametrize("text", [
        "", "plain", "a<b>&c", "&amp; &lt;b&gt; &#38;", "\"quoted\" 'single'",
        "<<&&>>", "wo/ Item & Attribute",
    ])
    def test_escape_matches_saxutils(self, text):
        assert escape(text) == saxutils.escape(text)


class TestFigureRenderers:
    def test_fig6(self):
        rows = [{"dataset": "ml", "model": "HIRE", "test_seconds": 0.5},
                {"dataset": "db", "model": "HIRE", "test_seconds": 0.3},
                {"dataset": "ml", "model": "NeuMF", "test_seconds": 0.001}]
        svg = fig6_svg(rows)
        parse(svg)
        assert "HIRE" in svg

    def test_fig7(self):
        rows = [{"sweep": "num_him_blocks", "value": k, "scenario": "user",
                 "ndcg": 0.8 + 0.01 * k, "precision": 0.5, "map": 0.4}
                for k in (1, 2, 3, 4)]
        svg = fig7_svg(rows)
        parse(svg)
        assert "HIM blocks" in svg

    def test_fig8(self):
        rows = [{"sampler": s, "scenario": "user", "ndcg": 0.8,
                 "precision": 0.5, "map": 0.4}
                for s in ("neighborhood", "random")]
        svg = fig8_svg(rows)
        parse(svg)
        assert "neighborhood/UC" in svg

    def test_fig9_all_matrices(self):
        case = {
            "attention": {
                "user": np.random.default_rng(0).random((3, 3)),
                "item": np.random.default_rng(1).random((4, 4)),
                "attr": np.random.default_rng(2).random((5, 5)),
            },
            "users": np.array([1, 2, 3]),
            "items": np.array([7, 8, 9, 10]),
            "attribute_names": ("a", "b", "c", "d", "e"),
        }
        for which in ("user", "item", "attr"):
            svg = fig9_svg(case, which=which)
            parse(svg)
