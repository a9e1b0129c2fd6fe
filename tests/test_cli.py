"""Command-line interface: exit codes, artifacts, flag handling."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coda_atlas import IngestConfig, RatioDefinition, synthetic_csv
from coda_atlas import ingest
from coda_atlas.cli import main
from coda_atlas.errors import InvalidOptions

from conftest import fail_nth_open, perfbench_table_csv
from oracles import brute_force_ranking, csv_line

RANK_HEADER = "id,label,sector_code,net_revenue,total_assets,total_liabilities"
RANK_ROWS = [
    ("g1", 120.0, 600.0, 250.0),
    ("g2", 80.0, 410.0, 390.0),
    ("g3", 200.0, 150.0, 145.0),
    ("g4", 45.0, 900.0, 120.0),
    ("g5", 310.0, 330.0, 330.0),
    ("g6", 95.0, 210.0, 700.0),
]


@pytest.fixture
def table_csv(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(synthetic_csv(seed=23))
    return str(path)


@pytest.fixture
def rank_csv(tmp_path):
    rows = [RANK_HEADER]
    for eid, rev, assets, liab in RANK_ROWS:
        rows.append(f"{eid},Group {eid},1011,{rev},{assets},{liab}")
    path = tmp_path / "three_part.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate", "x.csv"]) == 2
        capsys.readouterr()

    def test_domain_error_exits_one_with_record(self, table_csv, tmp_path, capsys):
        code = main(["rank", table_csv, "--ratio", "wombat", "-o", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.strip() == "UnknownRatio:wombat"

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        code = main(["validate", str(tmp_path / "absent.csv")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("IoFailure:")

    def test_bad_table_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,sector_code,a,b\ne1,One,1011,-1,2\n")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith("NegativeValue:")

    def test_error_names_the_input_row_of_an_unsorted_table(self, tmp_path, capsys):
        # the zero sits in data row 1, whose id sorts first
        path = tmp_path / "unsorted.csv"
        path.write_text("id,label,sector_code,a,b\ne2,Two,1011,3,4\ne1,One,1011,1,0\n")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == "NonPositiveValue:row=1,col=1,value=0.0\n"

    def test_csv_reader_error_exits_one_with_one_record(self, tmp_path, capsys):
        path = tmp_path / "cr.csv"
        path.write_bytes(b"id,label,sector_code,a,b\ncr\rid,x,s,1,2\n")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ParseError:line=2,column=1,token='',reason=")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestValidate:
    def test_reports_shape_sectors_and_parts(self, table_csv, capsys):
        assert main(["validate", table_csv]) == 0
        out = capsys.readouterr().out
        assert "valid: 17 entities x 8 parts" in out
        assert "sectors: 101X, 102X" in out
        assert "part: net_revenue [EUR_MM, financial]" in out


class TestDescribe:
    def test_writes_expected_columns(self, table_csv, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        assert main(["describe", table_csv, "-o", str(out_dir)]) == 0
        capsys.readouterr()
        text = (out_dir / "describe.csv").read_text()
        header, *rows = text.strip().split("\n")
        assert header == "name,n,mean,sd,min,q1,median,q3,max"
        names = [r.split(",")[0] for r in rows]
        assert names[:8] == [
            "net_revenue", "total_assets", "total_liabilities",
            "energy_consumption", "water_consumption", "waste_generation",
            "male_employees", "female_employees",
        ]
        assert "solvency" in names


class TestRank:
    def test_ranking_matches_direct_ratio_sort(self, rank_csv, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = main(["rank", rank_csv, "--ratio", "solvency", "-o", str(out_dir)])
        assert code == 0
        capsys.readouterr()
        lines = (out_dir / "rankings_solvency.csv").read_text().strip().split("\n")
        assert lines[0] == "entity_id,score,exact_log_ratio,rank"
        got = [line.split(",")[0] for line in lines[1:]]
        values = [[rev, assets, liab] for _, rev, assets, liab in RANK_ROWS]
        ids = [eid for eid, *_ in RANK_ROWS]
        assert tuple(got) == brute_force_ranking(values, 1, 2, ids)
        logged = [float(line.split(",")[2]) for line in lines[1:]]
        by_id = {eid: (a, l) for eid, _, a, l in RANK_ROWS}
        raw = {eid: math.log(a / l) for eid, (a, l) in by_id.items()}
        center = sum(raw.values()) / len(raw)
        # the report carries the column-centered log ratio
        for eid, value in zip(got, logged):
            assert value == pytest.approx(raw[eid] - center, rel=1e-12)

    def test_ranks_are_one_based_and_ordered(self, rank_csv, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        main(["rank", rank_csv, "--ratio", "solvency", "-o", str(out_dir)])
        capsys.readouterr()
        lines = (out_dir / "rankings_solvency.csv").read_text().strip().split("\n")
        assert [int(line.split(",")[3]) for line in lines[1:]] == [1, 2, 3, 4, 5, 6]

    def test_without_ratio_writes_the_pipeline_rankings(self, table_csv, tmp_path, capsys):
        assert main(["pipeline", table_csv, "-o", str(tmp_path / "pipeline")]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "reports"
        assert main(["rank", table_csv, "-o", str(out_dir)]) == 0
        captured = capsys.readouterr()
        names = [f"rankings_{r.name}.csv" for r in IngestConfig().ratio_catalog]
        assert captured.out == "".join(f"{out_dir / name}\n" for name in names)
        assert captured.err == ""
        assert sorted(path.name for path in out_dir.iterdir()) == sorted(names)
        for name in names:
            assert (out_dir / name).read_bytes() == (tmp_path / "pipeline" / name).read_bytes()

    def test_without_ratio_writes_nothing_when_no_ratio_resolves(self, tmp_path, capsys):
        path = tmp_path / "parts.csv"
        path.write_text("id,label,sector_code,a,b,c\ne1,x,s,1,2,3\ne2,y,s,2,3,5\ne3,z,s,4,1,1\n")
        out_dir = tmp_path / "reports"
        assert main(["rank", str(path), "-o", str(out_dir)]) == 0
        assert capsys.readouterr() == ("", "")
        assert not out_dir.exists()
        assert main(["pipeline", str(path), "-o", str(tmp_path / "pipeline")]) == 0
        capsys.readouterr()
        assert not list((tmp_path / "pipeline").glob("rankings_*"))


class TestBiplot:
    def test_model_json_carries_flags(self, table_csv, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = main(
            ["biplot", table_csv, "--alpha", "0.5", "--rank", "3", "-o", str(out_dir)]
        )
        assert code == 0
        capsys.readouterr()
        doc = json.loads((out_dir / "model.json").read_text())
        assert doc["alpha"] == 0.5
        assert doc["k"] == 3
        assert len(doc["points"]) == 17
        assert len(doc["points"][0]["coords"]) == 3

    @pytest.mark.parametrize("n", [17, 1025])
    def test_zero_singular_values_give_zero_points(self, n, tmp_path, capsys):
        # two alternating compositions: centred, the table has rank 1, and at
        # either size a retained singular value is exactly 0
        rows = [f"e{r:04d},x,s," + ("2,1,4,2,2" if r % 2 else "2,2,2,2,2") for r in range(n)]
        path = tmp_path / "two.csv"
        path.write_text("\n".join(["id,label,sector_code,p0,p1,p2,p3,p4", *rows]) + "\n")
        out_dir = tmp_path / "reports"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["biplot", str(path), "--alpha", "0", "--rank", "3", "-o", str(out_dir)]
            assert main(argv) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((out_dir / "model.json").read_text())
        points = np.array([record["coords"] for record in doc["points"]], dtype=float)
        rays = np.array([record["coords"] for record in doc["rays"]], dtype=float)
        assert np.all(np.isfinite(points)) and np.all(np.isfinite(rays))
        zero = np.array(doc["singular_values"][:3]) == 0.0
        assert zero.any()
        assert np.all(points[:, zero] == 0.0)

    def test_invalid_alpha_exits_one(self, table_csv, tmp_path, capsys):
        code = main(["biplot", table_csv, "--alpha", "1.5", "-o", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("InvalidOptions:")


class TestCluster:
    def test_writes_three_artifacts(self, table_csv, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = main(["cluster", table_csv, "--clusters", "3", "-o", str(out_dir)])
        assert code == 0
        capsys.readouterr()
        labels = (out_dir / "clusters.csv").read_text().strip().split("\n")
        assert labels[0] == "entity_id,cluster_label"
        assert len(labels) == 18
        merges = json.loads((out_dir / "merges.json").read_text())
        assert merges["cut"] == {"mode": "count", "value": 3}
        profiles = json.loads((out_dir / "cluster_profiles.json").read_text())
        assert len(profiles["clusters"]) == 3

    def test_count_and_threshold_are_mutually_exclusive(self, table_csv, capsys):
        code = main(
            ["cluster", table_csv, "--clusters", "2", "--threshold", "1.0"]
        )
        assert code == 1
        assert capsys.readouterr() == (
            "", "InfeasibleCut:give either a cluster count or a threshold, not both\n"
        )

    def test_linkage_choices_enforced(self, table_csv, capsys):
        assert main(["cluster", table_csv, "--linkage", "ward"]) == 2
        capsys.readouterr()


class TestBadNumericFlags:
    @pytest.mark.parametrize(
        "argv, record",
        [
            ("cluster --threshold nan", "InfeasibleCut"),
            ("cluster --threshold inf", "InfeasibleCut"),
            ("cluster --threshold -1", "InfeasibleCut"),
            ("cluster --clusters 0", "InfeasibleCut"),
            ("cluster --clusters 99", "InfeasibleCut"),
            ("cluster --clusters 3 --threshold 1", "InfeasibleCut"),
            ("biplot --alpha nan", "InvalidOptions"),
            ("biplot --alpha inf", "InvalidOptions"),
            ("biplot --alpha 2", "InvalidOptions"),
            ("biplot --rank 0", "RankRequestTooLarge"),
            ("biplot --rank 99", "RankRequestTooLarge"),
            ("render --width 50", "InvalidOptions"),
        ],
        ids=lambda value: value.replace(" ", "_"),
    )
    def test_is_one_error_record(self, argv, record, table_csv, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        subcommand, *flags = argv.split()
        assert main([subcommand, table_csv, *flags, "-o", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(record + r":[^\n]+\n", captured.err), captured.err
        assert captured.out == ""
        assert not out_dir.exists()


class TestRender:
    def test_svg_honours_geometry_and_links(self, table_csv, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = main(
            [
                "render", table_csv, "-o", str(out_dir),
                "--links", "solvency,energy_intensity",
                "--width", "500", "--height", "400",
            ]
        )
        assert code == 0
        capsys.readouterr()
        root = ET.fromstring((out_dir / "biplot.svg").read_text())
        assert root.get("width") == "500"
        links = [el for el in root.iter() if el.get("class") == "link"]
        assert len(links) == 2

    def test_empty_links_draw_no_link(self, table_csv, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        assert main(["render", table_csv, "--links", "", "-o", str(out_dir)]) == 0
        capsys.readouterr()
        root = ET.fromstring((out_dir / "biplot.svg").read_text())
        assert not [el for el in root.iter() if el.get("class") == "link"]
        assert main(["render", table_csv, "-o", str(tmp_path / "all")]) == 0
        capsys.readouterr()
        root = ET.fromstring((tmp_path / "all" / "biplot.svg").read_text())
        assert len([el for el in root.iter() if el.get("class") == "link"]) == 5

    def test_unknown_link_exits_one(self, table_csv, tmp_path, capsys):
        code = main(["render", table_csv, "--links", "wombat", "-o", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.strip() == "UnknownRatio:wombat"

    def test_link_named_twice_exits_one(self, table_csv, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = main(["render", table_csv, "--links", "solvency, solvency", "-o", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == "InvalidOptions:link 'solvency' is named twice\n"
        assert not out_dir.exists()


class TestNumericRange:
    @pytest.fixture
    def huge_csv(self, tmp_path):
        # three fixture rows, one total_assets cell at 1e300: finite, but its
        # sd (and the solvency ratio's moments) overflow float64
        header, *rows = synthetic_csv().splitlines()[:4]
        cells = rows[0].split(",")
        cells[header.split(",").index("total_assets")] = "1e300"
        rows[0] = ",".join(cells)
        path = tmp_path / "huge.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        return str(path)

    @pytest.mark.parametrize("subcommand", ["describe", "pipeline"])
    def test_overflowing_summary_is_one_error_record(self, subcommand, huge_csv, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        assert main([subcommand, huge_csv, "-o", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "NonFiniteStatistic:column=total_assets,statistic=sd\n"
        assert not out_dir.exists()

    def test_diagnose_marks_overflowing_ratio_not_applicable(self, huge_csv, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        assert main(["diagnose", huge_csv, "-o", str(out_dir)]) == 0
        assert capsys.readouterr().err == ""
        entries = json.loads((out_dir / "pathology.json").read_text())["ratios"]
        solvency = next(e for e in entries if e["ratio"] == "solvency")
        assert solvency == {
            "ratio": "solvency", "status": "not_applicable", "reason": "NonFiniteStatistic",
        }

    @pytest.fixture
    def overflow_csv(self, tmp_path):
        # energy 1e150 over revenue 1e-160: both parts are finite, but the
        # energy_intensity ratio of that row overflows float64
        header, *rows = synthetic_csv().splitlines()
        columns = header.split(",")
        cells = rows[0].split(",")
        cells[columns.index("energy_consumption")] = "1e150"
        cells[columns.index("net_revenue")] = "1e-160"
        rows[0] = ",".join(cells)
        path = tmp_path / "overflow.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        return str(path)

    @pytest.mark.parametrize("subcommand", ["describe", "pipeline"])
    def test_overflowing_ratio_is_one_error_record(
        self, subcommand, overflow_csv, tmp_path, capsys
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([subcommand, overflow_csv, "-o", str(tmp_path / "reports")]) == 1
        err = capsys.readouterr().err
        assert err == "NonFiniteStatistic:column=energy_intensity,statistic=ratio\n"

    def test_diagnose_runs_silently_on_an_overflowing_ratio(self, overflow_csv, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["diagnose", overflow_csv, "-o", str(out_dir)]) == 0
        assert capsys.readouterr().err == ""
        entries = json.loads((out_dir / "pathology.json").read_text())["ratios"]
        intensity = next(e for e in entries if e["ratio"] == "energy_intensity")
        assert intensity["status"] == "not_applicable"


    def test_overflowing_unit_conversion_is_one_error_record(self, tmp_path, capsys):
        # 1e306 GWh is finite, but 1e309 MWh, its value in the canonical unit, is not
        table = tmp_path / "energy.csv"
        table.write_text(
            "id,label,sector_code,net_revenue,total_assets,total_liabilities,energy_consumption\n"
            "e1,One,1011,10,40,20,1e306\ne2,Two,1011,20,35,10,5\ne3,Three,1011,15,90,30,4\n"
        )
        config = tmp_path / "config.json"
        config.write_text(IngestConfig(unit_map={"energy_consumption": "GWh"}).to_json())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", str(table), "--config", str(config)]) == 1
        assert capsys.readouterr().err == "NonFiniteValue:row=0,col=3,value=inf\n"


class TestConfigFlag:
    def test_eu_locale_config_changes_parsing(self, tmp_path, capsys):
        table = tmp_path / "eu.csv"
        table.write_text(
            'id,label,sector_code,a,b\n'
            'e1,One,1011,"1.000,5","2,5"\n'
            'e2,Two,1011,"3,25","1.250"\n'
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(IngestConfig(locale="eu").to_json())
        out_dir = tmp_path / "reports"
        code = main(
            ["clr", str(table), "--config", str(config_path), "-o", str(out_dir)]
        )
        assert code == 0
        capsys.readouterr()
        first = (out_dir / "clr.csv").read_text().strip().split("\n")[1]
        value = float(first.split(",")[1])
        assert value == pytest.approx(
            math.log(1000.5) - (math.log(1000.5) + math.log(2.5)) / 2.0, rel=1e-12
        )

    def test_unit_map_config_scales_values(self, tmp_path, capsys):
        table = tmp_path / "energy.csv"
        table.write_text(
            "id,label,sector_code,net_revenue,total_assets,energy_consumption\n"
            "e1,One,1011,10,40,2\ne2,Two,1011,20,35,5\ne3,Three,1011,15,90,4\n"
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(
            IngestConfig(unit_map={"energy_consumption": "GWh"}).to_json()
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["pipeline", str(table), "-o", str(out_a)]) == 0
        assert (
            main(
                [
                    "pipeline", str(table),
                    "--config", str(config_path),
                    "-o", str(out_b),
                ]
            )
            == 0
        )
        capsys.readouterr()
        plain = (out_a / "table.csv").read_text().strip().split("\n")[1]
        scaled = (out_b / "table.csv").read_text().strip().split("\n")[1]
        assert float(plain.split(",")[5]) == 2.0
        assert float(scaled.split(",")[5]) == 2000.0
        # column centering absorbs the declared unit, so the models agree
        doc_a = json.loads((out_a / "model.json").read_text())
        doc_b = json.loads((out_b / "model.json").read_text())
        for key in ("points", "rays"):
            coords_a = [rec["coords"] for rec in doc_a[key]]
            coords_b = [rec["coords"] for rec in doc_b[key]]
            assert np.allclose(coords_a, coords_b, atol=1e-9)
        assert np.allclose(
            doc_a["singular_values"], doc_b["singular_values"], rtol=1e-9
        )

    def test_unit_map_key_without_a_column_is_one_error_record(self, tmp_path, capsys):
        table = tmp_path / "fixture.csv"
        table.write_text(synthetic_csv())
        config_path = tmp_path / "config.json"
        config_path.write_text('{"unit_map": {"energy_consumptoin": "GWh"}}')
        out_dir = tmp_path / "reports"
        args = ["describe", str(table), "--config", str(config_path), "-o", str(out_dir)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "UnknownPart:unit_map column 'energy_consumptoin' is not in the table\n"
        )
        assert not out_dir.exists()


class TestConfigDocuments:
    @pytest.mark.parametrize(
        "document",
        [
            '{"ratio_catalog": [{"name": "x"}]}',
            '{"ratio_catalog": [{"name": "x", "numerator": "a", "denominator": "b", "unit": "t"}]}',
            '{"ratio_catalog": {"name": "x", "numerator": "a", "denominator": "b"}}',
            '{"ratio_catalog": [{"name": 5, "numerator": "a", "denominator": "b"}]}',
            '{"unit_map": 5}',
            '{"unit_map": {"net_revenue": 5}}',
            '{"zero_strategy": {"multiplicative": "half"}}',
            '{"extra_canonical_units": "kWh"}',
            '{"extra_conversions": {"kJ": ["MWh", "2.8e-10"]}}',
            '{"extra_conversions": {"kJ": ["MWh", 2.8e-10, 1]}}',
            '{"ratio_catalog": ['
            '{"name": "s", "numerator": "total_assets", "denominator": "net_revenue"},'
            '{"name": "s", "numerator": "net_revenue", "denominator": "total_assets"}]}',
            '{"extra_conversions": {"MWh": ["t", 2.0]}}',
            '{"extra_conversions": {"": ["MWh", 2.0]}, "unit_map": {"energy_consumption": ""}}',
        ],
        ids=[
            "ratio-without-parts", "ratio-unknown-key", "catalog-not-a-list",
            "ratio-name-not-a-string", "unit-map-not-an-object", "unit-not-a-string",
            "delta-not-a-number", "units-not-a-list", "factor-not-a-number",
            "conversion-not-a-pair", "duplicate-ratio-names", "unit-defined-twice",
            "empty-converted-unit",
        ],
    )
    def test_malformed_config_is_one_error_record(self, document, table_csv, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(document)
        out_dir = tmp_path / "reports"
        args = ["pipeline", table_csv, "--config", str(config_path), "-o", str(out_dir)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("InvalidOptions:")
        assert err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "document, reason",
        [
            (b'{"locale": "point_decimal"\xff}', "not utf-8: invalid start byte"),
            (b"\xff\xfe{", "not utf-16-le: truncated data"),
        ],
        ids=["bad-utf-8-byte", "truncated-utf-16"],
    )
    def test_config_that_is_not_text_is_one_error_record(
        self, document, reason, table_csv, tmp_path, capsys
    ):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(document)
        assert main(["validate", table_csv, "--config", str(config_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ParseError:line=1,column=1,token='',reason={reason}\n"

    def test_ratio_name_cannot_leave_the_output_directory(self, table_csv, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            '{"ratio_catalog": [{"name": "x/../../escaped",'
            ' "numerator": "total_assets", "denominator": "total_liabilities"}]}'
        )
        out_dir = tmp_path / "nest" / "reports"
        (out_dir / "rankings_x").mkdir(parents=True)
        for subcommand in ("pipeline", "rank"):
            args = [subcommand, table_csv, "--config", str(config_path), "-o", str(out_dir)]
            if subcommand == "rank":
                args += ["--ratio", "x/../../escaped"]
            assert main(args) == 1
            err = capsys.readouterr().err
            assert err.startswith("InvalidOptions:ratio name 'x/../../escaped'")
            assert err.count("\n") == 1
        written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
        assert [str(p) for p in written] == ["config.json", "table.csv"]

    def test_cluster_profiles_follow_the_config_catalog(self, table_csv, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        catalog = (RatioDefinition("rev_per_head", "net_revenue", "male_employees"),)
        config_path.write_text(IngestConfig(ratio_catalog=catalog).to_json())
        for subcommand in ("cluster", "pipeline"):
            out_dir = tmp_path / subcommand
            args = [subcommand, table_csv, "--config", str(config_path), "-o", str(out_dir)]
            assert main(args) == 0
            capsys.readouterr()
            doc = json.loads((out_dir / "cluster_profiles.json").read_text())
            assert doc["clusters"]
            for cluster in doc["clusters"]:
                assert list(cluster["ratio_means"]) == ["rev_per_head"]


class TestPipeline:
    def test_writes_full_artifact_set_with_manifest(self, table_csv, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["pipeline", table_csv, "-o", str(out_dir)]) == 0
        printed = capsys.readouterr().out.strip().split("\n")
        manifest = json.loads((out_dir / "manifest.json").read_text())
        names = [f["name"] for f in manifest["files"]]
        expected = {
            "table.csv", "describe.csv", "pathology.json", "clr.csv",
            "model.json", "clusters.csv", "merges.json",
            "cluster_profiles.json", "biplot.svg",
            "rankings_solvency.csv", "rankings_energy_intensity.csv",
            "rankings_water_intensity.csv", "rankings_waste_intensity.csv",
            "rankings_gender_employment_gap.csv",
        }
        assert set(names) == expected
        assert names == sorted(names)
        for name in names:
            assert (out_dir / name).exists()
        assert printed[-1].endswith("manifest.json")
        assert len(printed) == len(names) + 1


    # the fixture at its default seed and at seed 23, and the benchmark's 400x32 table
    @pytest.mark.parametrize(
        "table_text",
        [synthetic_csv, lambda: synthetic_csv(seed=23), lambda: perfbench_table_csv(400, 32, 5)],
        ids=["None", "23", "perfbench_400x32"],
    )
    def test_every_subcommand_writes_the_pipeline_bytes(self, table_text, tmp_path, capsys):
        table = tmp_path / "table_in.csv"
        table.write_text(table_text())
        assert main(["pipeline", str(table), "-o", str(tmp_path / "pipeline")]) == 0
        bare = ["describe", "diagnose", "clr", "biplot", "rank", "cluster", "render"]
        ratios = [r.name for r in IngestConfig().ratio_catalog]
        runs = [[subcommand] for subcommand in bare]
        runs += [["rank", "--ratio", name] for name in ratios]
        runs.append(["render", "--links", ",".join(ratios)])
        written = set()
        for k, (subcommand, *flags) in enumerate(runs):
            out_dir = tmp_path / f"{k}_{subcommand}"
            assert main([subcommand, str(table), *flags, "-o", str(out_dir)]) == 0
            for path in out_dir.iterdir():
                assert path.read_bytes() == (tmp_path / "pipeline" / path.name).read_bytes()
                if not flags:
                    written.add(path.name)
        capsys.readouterr()
        manifest = json.loads((tmp_path / "pipeline" / "manifest.json").read_text())
        # the runs without flags alone write every file but the parsed table
        assert written == {entry["name"] for entry in manifest["files"]} - {"table.csv"}


SUBCOMMAND_RUNS = [
    ["describe"], ["diagnose"], ["clr"], ["biplot"], ["rank", "--ratio", "solvency"],
    ["cluster"], ["render"], ["pipeline"],
]


class TestReportFiles:
    @pytest.mark.parametrize("run", SUBCOMMAND_RUNS, ids=lambda run: run[0])
    def test_write_failure_is_one_io_record(self, run, table_csv, tmp_path, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("a file, not a directory")
        out_dir = str(blocker / "reports")
        assert main([run[0], table_csv, *run[1:], "-o", out_dir]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"IoFailure:cannot write reports to {out_dir!r}: ")
        assert captured.err.count("\n") == 1

    def test_validate_creates_no_directory(self, table_csv, tmp_path, capsys):
        assert main(["validate", table_csv, "-o", str(tmp_path / "absent")]) == 0
        capsys.readouterr()
        assert not (tmp_path / "absent").exists()

    def test_failed_pipeline_leaves_the_previous_run_untouched(
        self, table_csv, tmp_path, capsys, monkeypatch
    ):
        out_dir = tmp_path / "reports"
        assert main(["pipeline", table_csv, "-o", str(out_dir)]) == 0
        before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        other = tmp_path / "other.csv"
        other.write_text(synthetic_csv())
        fail_nth_open(monkeypatch, ingest, 3)
        assert main(["pipeline", str(other), "-o", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith("IoFailure:cannot write reports to ")
        assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before

    def test_a_directory_in_place_of_a_report_changes_no_file(self, table_csv, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        assert main(["pipeline", table_csv, "-o", str(out_dir)]) == 0
        (out_dir / "table.csv").unlink()
        (out_dir / "table.csv").mkdir()
        before = {path.name: path.read_bytes() for path in out_dir.iterdir() if path.is_file()}
        other = tmp_path / "other.csv"
        other.write_text(synthetic_csv())
        capsys.readouterr()
        assert main(["pipeline", str(other), "-o", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"IoFailure:cannot write reports to {str(out_dir)!r}: ")
        assert err.endswith(f"Is a directory: {str(out_dir / 'table.csv')!r}\n")
        assert sorted(path.name for path in out_dir.iterdir()) == sorted([*before, "table.csv"])
        assert {name: (out_dir / name).read_bytes() for name in before} == before

    @pytest.mark.parametrize("subcommand", ["cluster", "pipeline"])
    def test_memory_error_is_one_record(self, subcommand, table_csv, tmp_path, capsys, monkeypatch):
        message = (
            "Unable to allocate 11.9 GiB for an array with shape (40000, 40000)"
            " and data type float64"
        )

        def exhausted(values):
            raise MemoryError(message)

        monkeypatch.setattr("coda_atlas.cluster._block_distances", exhausted)
        out_dir = tmp_path / "reports"
        assert main([subcommand, table_csv, "-o", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"InsufficientMemory:{message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("subcommand", ["cluster", "pipeline"])
    def test_a_distance_matrix_that_does_not_fit_is_refused_before_it_is_allocated(
        self, subcommand, table_csv, tmp_path, capsys, monkeypatch
    ):
        shapes = []
        empty = np.empty

        def recording_empty(shape, *args, **kwargs):
            shapes.append(shape)
            return empty(shape, *args, **kwargs)

        n = 17  # the fixture's rows: its matrix needs 8 * 17 * 17 = 2312 bytes
        monkeypatch.setattr("coda_atlas.cluster._available_memory", lambda: 8 * n * n - 1)
        monkeypatch.setattr(np, "empty", recording_empty)
        out_dir = tmp_path / "reports"
        assert main([subcommand, table_csv, "-o", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        record = f"InsufficientMemory:clustering {n} rows needs 0.0 GiB, 0.0 GiB available\n"
        assert captured.err == record
        assert (n, n) not in shapes
        assert not out_dir.exists()

    def test_two_failing_reports_give_the_first_record_and_no_file(
        self, tmp_path, capsys, monkeypatch
    ):
        # total_assets of 1e300 in row g2 overflows its standard deviation,
        # which describe.csv's builder refuses; render_biplot, a later
        # builder, fails as well
        rows = [RANK_HEADER] + [
            f"{eid},Group {eid},1011,{rev},{'1e300' if eid == 'g2' else assets},"
            f"{'1e-300' if eid == 'g2' else liab}"
            for eid, rev, assets, liab in RANK_ROWS
        ]
        table = tmp_path / "overflow.csv"
        table.write_text("\n".join(rows) + "\n")

        def refuse(*args, **kwargs):
            raise InvalidOptions("the later report")

        monkeypatch.setattr("coda_atlas.render.render_biplot", refuse)
        out_dir = tmp_path / "reports"
        assert main(["pipeline", str(table), "-o", str(out_dir)]) == 1
        captured = capsys.readouterr()
        expected = "NonFiniteStatistic:column=total_assets,statistic=sd\n"
        assert (captured.out, captured.err) == ("", expected)
        assert not out_dir.exists()


#: text that CSV must quote: a comma, a quote or a line break inside a field
_csv_text = st.text(alphabet=st.sampled_from(list('ab,"\r\n é')), min_size=1, max_size=6).filter(
    lambda text: text == text.strip()
)


class TestCsvQuoting:
    @given(st.lists(_csv_text, min_size=1, max_size=6, unique=True), _csv_text)
    @settings(max_examples=25, deadline=None)
    def test_pipeline_csvs_parse_to_constant_width_and_keep_ids(self, ids, part_name):
        header, *rows = synthetic_csv().splitlines()
        lines = [csv_line(header.split(",") + [part_name])]
        all_ids = []
        for k, row in enumerate(rows):
            cells = row.split(",") + [str(1.5 + k)]
            if k < len(ids):
                cells[0] = ids[k]
            all_ids.append(cells[0])
            lines.append(csv_line(cells))
        with tempfile.TemporaryDirectory() as work:
            table = Path(work, "table.csv")
            table.write_bytes("".join(lines).encode("utf-8"))
            out_dir = Path(work, "reports")
            stderr = io.StringIO()
            with warnings.catch_warnings(), redirect_stderr(stderr), redirect_stdout(io.StringIO()):
                warnings.simplefilter("error")
                assert main(["pipeline", str(table), "-o", str(out_dir)]) == 0
            assert stderr.getvalue() == ""
            parsed = {}
            for path in out_dir.glob("*.csv"):
                text = path.read_bytes().decode("utf-8")
                parsed[path.name] = list(csv.reader(io.StringIO(text, newline="")))
        for name, csv_rows in parsed.items():
            assert len({len(row) for row in csv_rows}) == 1, name
        assert [row[0] for row in parsed["table.csv"][1:]] == sorted(all_ids)
        assert [row[0] for row in parsed["clr.csv"][1:]] == sorted(all_ids)
        assert parsed["clr.csv"][0][-1] == part_name
        assert [row[0] for row in parsed["clusters.csv"][1:]] == sorted(all_ids)
        assert part_name in [row[0] for row in parsed["describe.csv"]]
        rankings = [name for name in parsed if name.startswith("rankings_")]
        assert len(rankings) == 5
        for name in rankings:
            assert sorted(row[0] for row in parsed[name][1:]) == sorted(all_ids)


#: the modules every subcommand loads: the package, the CLI and the stages
#: config -> table -> clr
CLR_MODULES = {
    "coda_atlas", "coda_atlas._cells", "coda_atlas._fmt", "coda_atlas.cli",
    "coda_atlas.composition", "coda_atlas.errors", "coda_atlas.ingest",
}
#: the modules beyond those that each subcommand loads: its stages, and
#: fill_rows' kernels (_fill) where it writes a table of numbers
STAGE_MODULES = {
    "validate": (),
    "describe": ("_fill", "stats"),
    "diagnose": ("stats",),
    "clr": ("_fill",),
    "biplot": ("_fill", "biplot"),
    "rank": ("_fill", "biplot"),
    "cluster": ("_fill", "cluster"),
    "render": ("_fill", "biplot", "render"),
    "pipeline": ("_fill", "biplot", "cluster", "render", "stats"),
}


class TestConsoleScript:
    def test_installed_entry_point_runs(self, table_csv, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "coda_atlas.cli", "validate", table_csv],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "valid: 17 entities x 8 parts" in result.stdout

    def test_cli_import_loads_no_scipy(self):
        probe = (
            "import sys, coda_atlas.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"

    def test_pipeline_loads_no_numpy_ma(self, tmp_path):
        table_csv = tmp_path / "fixture.csv"
        table_csv.write_text(synthetic_csv(), encoding="utf-8")
        probe = (
            "import sys; from coda_atlas.cli import main; "
            f"code = main(['pipeline', {str(table_csv)!r}, '-o', {str(tmp_path / 'out')!r}]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert result.stdout.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("subcommand", sorted(STAGE_MODULES))
    def test_subcommand_loads_only_the_stage_modules_it_runs(self, subcommand, tmp_path):
        table_csv = tmp_path / "fixture.csv"
        table_csv.write_text(synthetic_csv(), encoding="utf-8")
        flags = ["--ratio", "solvency"] if subcommand == "rank" else []
        argv = [subcommand, str(table_csv), "-o", str(tmp_path / "out"), *flags]
        probe = (
            "import sys; from coda_atlas.cli import main; "
            f"code = main({argv!r}); "
            "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'coda_atlas'))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        stages = {f"coda_atlas.{name}" for name in STAGE_MODULES[subcommand]}
        assert result.stdout.splitlines()[-1].split() == ["0", *sorted(CLR_MODULES | stages)]

    def test_package_namespace_loads_modules_on_first_use(self):
        probe = (
            "import sys, coda_atlas\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'coda_atlas')\n"
            "print(*loaded())\n"
            "from coda_atlas import cluster\n"
            "print(cluster is sys.modules['coda_atlas.cluster'], *loaded())\n"
            "print(coda_atlas.biplot.fit_biplot is coda_atlas.fit_biplot,"
            " 'fit_biplot' in vars(coda_atlas))\n"
            "print(hasattr(coda_atlas, 'wombat'), hasattr(coda_atlas, 'cli'))\n"
            "print(all(hasattr(coda_atlas, name) for name in coda_atlas.__all__))\n"
            "print(set(coda_atlas.__all__) <= set(dir(coda_atlas)), *loaded())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        stages = ("biplot", "cluster", "composition", "errors", "fixture", "ingest", "render", "stats")
        every = {"coda_atlas", "coda_atlas._cells", "coda_atlas._fmt"}
        every |= {f"coda_atlas.{name}" for name in stages}
        assert result.stdout.splitlines() == [
            "coda_atlas",
            "True coda_atlas coda_atlas._fmt coda_atlas.cluster coda_atlas.composition"
            " coda_atlas.errors",
            "True True",
            "False False",
            "True",
            " ".join(["True", *sorted(every)]),
        ]

    @staticmethod
    def probe_threads(script, threads=None):
        """stdout of ``script`` in a fresh interpreter, OPENBLAS_NUM_THREADS=threads."""
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        return result.stdout.split()

    def test_cli_runs_one_openblas_thread_unless_told(self):
        if not os.path.exists("/proc/self/status"):
            pytest.skip("no /proc/self/status to count threads")
        script = (
            "import os\n"
            "import coda_atlas.cli\n"
            "import numpy as np\n"
            "np.linalg.qr(np.random.default_rng(0).standard_normal((2000, 64)))\n"
            "status = open('/proc/self/status').read().splitlines()\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'),"
            " *[line.split()[1] for line in status if line.startswith('Threads:')])\n"
        )
        assert self.probe_threads(script) == ["1", "1"]
        explicit = "import os, coda_atlas.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert self.probe_threads(explicit, threads="3") == ["3"]
        package = (
            "import os, coda_atlas, coda_atlas.biplot; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))"
        )
        assert self.probe_threads(package) == ["unset"]

    def test_fixture_module_runs_without_runpy_warning(self, tmp_path):
        out = tmp_path / "fixture.csv"
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "coda_atlas.fixture", str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert out.read_text() == synthetic_csv()
