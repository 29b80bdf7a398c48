import json
import os
import xml.dom.minidom

import numpy as np
import pytest

from imputeq.errors import InvalidArgument
from imputeq.report import (
    AXIS_LEN,
    COLOR_FALLBACK_NAME,
    audit_document,
    column_summary,
    dumps_canonical,
    emit_quality_svg,
    quality_document,
    quality_summary_text,
    write_bytes_atomic,
)
from imputeq.table import Column, ColumnKind, Table


def record(feature, mu, delta, fallback=False, kept=True, std=0.0,
           imputer="mean"):
    return {
        "feature": feature,
        "completeness": mu,
        "delta": delta,
        "omega": mu + (1 - mu) * delta,
        "chosen_imputer": imputer,
        "kept": kept,
        "fallback_used": fallback,
        "notes": [],
        "imputers": [
            {"id": imputer, "delta_mean": delta, "delta_std": std,
             "n_predictors": 0, "skipped": False, "bias": None, "notes": []},
        ],
    }


def rects_by_class(dom, cls):
    return [
        r for r in dom.getElementsByTagName("rect")
        if r.getAttribute("class") == cls
    ]


def texts_by_class(dom, cls):
    return [
        t for t in dom.getElementsByTagName("text")
        if t.getAttribute("class") == cls
    ]


class TestSvgGeometry:
    def test_well_formed_xml(self):
        svg = emit_quality_svg([record("a", 0.6, 0.5), record("b", 1.0, 0.0)])
        dom = xml.dom.minidom.parseString(svg)
        root = dom.documentElement
        assert root.tagName == "svg"
        assert root.getAttribute("version") == "1.1"

    def test_segment_widths_encode_scores(self):
        recs = [record("a", 0.6, 0.5, std=0.1), record("b", 0.8, 0.25)]
        dom = xml.dom.minidom.parseString(emit_quality_svg(recs))
        mu_bars = rects_by_class(dom, "mu-bar")
        delta_bars = rects_by_class(dom, "delta-bar")
        # rows are sorted by descending omega: b (0.85) then a (0.8)
        expect = [(0.8, 0.25), (0.6, 0.5)]
        assert len(mu_bars) == 2 and len(delta_bars) == 2
        for (mu, delta), mu_bar, delta_bar in zip(expect, mu_bars,
                                                  delta_bars):
            assert float(mu_bar.getAttribute("width")) == pytest.approx(
                mu * AXIS_LEN, abs=0.5
            )
            assert float(delta_bar.getAttribute("width")) == pytest.approx(
                (1 - mu) * delta * AXIS_LEN, abs=0.5
            )

    def test_stack_length_encodes_omega(self):
        recs = [record("a", 0.37, 0.81)]
        dom = xml.dom.minidom.parseString(emit_quality_svg(recs))
        mu_bar = rects_by_class(dom, "mu-bar")[0]
        delta_bar = rects_by_class(dom, "delta-bar")[0]
        total = float(mu_bar.getAttribute("width")) + float(
            delta_bar.getAttribute("width")
        )
        omega = 0.37 + (1 - 0.37) * 0.81
        assert total == pytest.approx(omega * AXIS_LEN, abs=0.5)

    def test_complete_feature_single_blue_bar(self):
        dom = xml.dom.minidom.parseString(
            emit_quality_svg([record("full", 1.0, 0.0)])
        )
        mu_bars = rects_by_class(dom, "mu-bar")
        assert len(mu_bars) == 1
        assert float(mu_bars[0].getAttribute("width")) == pytest.approx(
            AXIS_LEN, abs=0.5
        )
        assert rects_by_class(dom, "delta-bar") == []

    def test_fallback_name_is_red(self):
        recs = [record("ok", 0.9, 0.5), record("forced", 0.5, 0.2,
                                               fallback=True)]
        dom = xml.dom.minidom.parseString(emit_quality_svg(recs))
        fills = {
            t.firstChild.data: t.getAttribute("fill")
            for t in texts_by_class(dom, "feature-name")
        }
        assert fills["forced"] == COLOR_FALLBACK_NAME
        assert fills["ok"] != COLOR_FALLBACK_NAME

    def test_rows_sorted_by_descending_quality(self):
        recs = [record("low", 0.2, 0.1), record("high", 0.9, 0.9),
                record("mid", 0.5, 0.5)]
        dom = xml.dom.minidom.parseString(emit_quality_svg(recs))
        names = [t.firstChild.data for t in texts_by_class(dom,
                                                           "feature-name")]
        assert names == ["high", "mid", "low"]

    def test_threshold_renders_dashed_line(self):
        svg = emit_quality_svg([record("a", 0.5, 0.5)], threshold=0.8)
        dom = xml.dom.minidom.parseString(svg)
        lines = [
            l for l in dom.getElementsByTagName("line")
            if l.getAttribute("class") == "threshold"
        ]
        assert len(lines) == 1
        assert lines[0].getAttribute("stroke-dasharray") != ""
        no_tau = emit_quality_svg([record("a", 0.5, 0.5)])
        dom2 = xml.dom.minidom.parseString(no_tau)
        assert [
            l for l in dom2.getElementsByTagName("line")
            if l.getAttribute("class") == "threshold"
        ] == []

    def test_whisker_drawn_when_spread_known(self):
        dom = xml.dom.minidom.parseString(
            emit_quality_svg([record("a", 0.5, 0.5, std=0.2)])
        )
        whiskers = [
            l for l in dom.getElementsByTagName("line")
            if l.getAttribute("class") == "whisker"
        ]
        assert len(whiskers) == 1

    def test_unknown_chosen_imputer_names_its_feature(self):
        rec = dict(record("age", 0.5, 0.5), chosen_imputer="nobody")
        with pytest.raises(InvalidArgument, match=r"^feature 'age': "):
            emit_quality_svg([record("a", 0.5, 0.5), rec])

    def test_names_are_escaped(self):
        svg = emit_quality_svg([record("a<b>&c", 0.5, 0.5)])
        dom = xml.dom.minidom.parseString(svg)
        names = [t.firstChild.data for t in texts_by_class(dom,
                                                           "feature-name")]
        assert names == ["a<b>&c"]


class TestDocuments:
    def test_quality_document_shape(self):
        doc = quality_document([record("a", 0.5, 0.5)], threshold=0.8)
        assert doc["format"] == "imputeq-quality-records"
        assert doc["schema_version"] == 1
        assert doc["threshold"] == 0.8
        assert len(doc["records"]) == 1

    def test_audit_document_shape(self):
        doc = audit_document([])
        assert doc["format"] == "imputeq-audit"
        assert doc["schema_version"] == 1
        assert doc["lower_is_better"] is True

    def test_canonical_dump_is_stable(self):
        doc = {"b": 1, "a": [1.5, None]}
        assert dumps_canonical(doc) == dumps_canonical(json.loads(
            dumps_canonical(doc).decode()
        ))
        assert dumps_canonical(doc).endswith(b"\n")

    def test_canonical_dump_rejects_nan(self):
        with pytest.raises(ValueError):
            dumps_canonical({"x": float("nan")})

    def test_column_summary(self):
        vals = np.array([1.0, np.nan, 3.0, np.nan])
        t = Table((Column("v", vals, np.isnan(vals),
                          kind=ColumnKind.CONTINUOUS),), 4)
        (summary,) = column_summary(t)
        assert summary == {
            "name": "v", "kind": "continuous", "n_missing": 2,
            "missing_fraction": 0.5,
        }


class TestAtomicWrite:
    def test_writes_and_cleans_up(self, tmp_path):
        target = tmp_path / "out.json"
        write_bytes_atomic(str(target), b"payload")
        assert target.read_bytes() == b"payload"
        leftovers = [p for p in os.listdir(tmp_path)
                     if p.startswith(".imputeq-")]
        assert leftovers == []

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_bytes(b"old")
        write_bytes_atomic(str(target), b"new")
        assert target.read_bytes() == b"new"


class TestSummaryText:
    def test_flags_and_counts(self):
        recs = [
            record("a", 0.9, 0.5),
            record("b", 0.3, 0.1, fallback=True, kept=False),
        ]
        text = quality_summary_text(recs)
        lines = text.splitlines()
        assert lines[0].startswith("a:")
        assert "[drop, fallback]" in lines[1]
        assert lines[-1] == "1/2 features kept"
