"""Command-line interface: the whole workflow as one executable.

Subcommands mirror the analysis stages: validate, describe, diagnose, clr,
biplot, rank, cluster, render, and pipeline (which runs everything and
writes a hash manifest). All domain failures exit with code 1 and print a
single-line machine-parseable record (ErrorName:detail) to stderr; usage
errors exit with code 2.

Every subcommand reads one staged run, ``_Analysis``, whose stages (config
-> table -> clr -> model -> links) are built on first use and then kept. A
subcommand is a function from the run to ``{file name: content}``, and
``pipeline`` is their union. Every flag defaults to ``pipeline``'s setting,
so each artifact is built by one piece of code and, without flags, equals
``pipeline``'s file of the same name. ``main`` writes whatever a
subcommand returns through one writer, all files or none, and prints their
paths; for ``pipeline`` the writer adds the manifest.

Stage modules are loaded on first use. This module imports only what the
stages config -> table -> clr need, and each builder imports the stage
modules it calls, so ``validate`` and ``clr`` load no biplot, statistics,
clustering or rendering code.

The CLI runs numpy's OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS``
is set: it sets that variable before its first import that loads numpy.
An explicit value wins. Importing ``coda_atlas`` or a stage module leaves
the environment alone, and a process that loaded numpy before this module
keeps the thread count it started with.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cached_property

# One OpenBLAS thread unless the user chose a count; OpenBLAS reads the
# variable once, when numpy loads, so this comes before the first import
# that loads numpy. Measured at 20000x32 on a 2-vCPU Linux VM (numpy 2.4.6,
# OpenBLAS 0.3.31, 10 fresh processes each): the warm fit_biplot median went
# from 19.2 ms with two threads to 11.8 ms with one, and the first fit took
# 1.1 s in one two-thread process (281 involuntary context switches) but at
# most 14 ms on one thread. model.json of a table with 200 parts or
# more depends on the thread count, so one count gives one file everywhere.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .composition import clr_matrix, find_ratio, resolvable_ratios
from .errors import CodaError, InsufficientMemory, IoFailure
from ._fmt import dumps_json
from .ingest import IngestConfig, clr_csv, parse_table, serialize_table, write_outputs

#: stage settings as ``pipeline`` runs them, the default of every flag;
#: ratio=None ranks along, and links=None draws, every resolvable link
_STAGE_DEFAULTS = dict(
    alpha=1.0, rank=2, ratio=None, linkage="complete", clusters=None,
    threshold=None, links=None, width=800, height=600,
)


class _Analysis:
    """The stages of one run over the parsed arguments, each built once."""

    def __init__(self, args: argparse.Namespace):
        self.args = args

    @cached_property
    def config(self):
        if not self.args.config:
            return IngestConfig()
        with open(self.args.config, "rb") as handle:
            return IngestConfig.from_json(handle.read())

    @cached_property
    def table(self):
        config = self.config
        with open(self.args.input, "rb") as handle:
            return parse_table(handle.read(), config)

    @cached_property
    def clr(self):
        return clr_matrix(self.table)

    @cached_property
    def model(self):
        from .biplot import fit_biplot

        return fit_biplot(self.clr, alpha=self.args.alpha, k=self.args.rank)

    @cached_property
    def links(self):
        """Links of the catalog ratios that resolve, without degenerate ones."""
        ratios = resolvable_ratios(self.table, self.config.ratio_catalog)
        found = (self.link(definition.name) for definition in ratios)
        return tuple(link for link in found if not link.degenerate)

    def link(self, name: str):
        """The link of catalog ratio ``name``."""
        from .biplot import make_link

        table = self.table
        definition = find_ratio(self.config.ratio_catalog, name)
        model = self.model
        i, j = definition.resolve(table)
        return make_link(model, i, j, label=name)


def _validate(run: _Analysis) -> dict[str, str]:
    table = run.table
    print(f"valid: {table.n} entities x {table.D} parts")
    print(f"sectors: {', '.join(sorted({e.sector_code for e in table.entities}))}")
    for part in table.parts:
        print(f"part: {part.name} [{part.unit}, {part.role}]")
    return {}


def _describe(run: _Analysis) -> dict[str, str]:
    from .stats import describe_csv, summarize_table

    summaries = summarize_table(run.table, run.config.ratio_catalog)
    return {"describe.csv": describe_csv(summaries)}


def _diagnose(run: _Analysis) -> dict[str, str]:
    from .stats import pathology_json, pathology_report

    report = pathology_report(run.table, run.config.ratio_catalog)
    return {"pathology.json": dumps_json(pathology_json(report))}


def _clr(run: _Analysis) -> dict[str, str]:
    return {"clr.csv": clr_csv(run.clr)}


def _biplot(run: _Analysis) -> dict[str, str]:
    from .biplot import model_to_json

    return {"model.json": model_to_json(run.model)}


def _rank(run: _Analysis) -> dict[str, str]:
    from .biplot import rank_along_link, ranking_csv

    links = run.links if run.args.ratio is None else (run.link(run.args.ratio),)
    return {
        f"rankings_{link.label}.csv": ranking_csv(rank_along_link(run.model, link))
        for link in links
    }


def _cluster(run: _Analysis) -> dict[str, str]:
    from .cluster import (
        _cluster_clr, assignment_csv, cluster_profile, merge_history_json, profiles_json,
    )

    args = run.args
    assignment = _cluster_clr(run.clr, args.linkage, args.clusters, args.threshold)
    ratios = resolvable_ratios(run.table, run.config.ratio_catalog)
    profiles = cluster_profile(run.table, assignment, ratios)
    return {
        "clusters.csv": assignment_csv(assignment),
        "merges.json": dumps_json(merge_history_json(assignment)),
        "cluster_profiles.json": dumps_json(profiles_json(profiles, run.table.part_names)),
    }


def _render(run: _Analysis) -> dict[str, str]:
    from .render import RenderOptions, render_biplot

    model, args = run.model, run.args
    if args.links is None:
        show = tuple(link.label for link in run.links)
    else:
        show = tuple(name.strip() for name in args.links.split(",") if name.strip())
    options = RenderOptions(
        width=args.width,
        height=args.height,
        show_links=show,
        ratio_catalog=run.config.ratio_catalog,
    )
    return {"biplot.svg": render_biplot(model, run.table, options)}


def _pipeline(run: _Analysis) -> dict[str, str]:
    outputs = {}
    # model first: a failed fit is reported before any report's own error.
    # Every report is formatted in this process (fill_rows forks no child,
    # so OpenBLAS's threads run as the fit left them), and the writer sorts
    # the names when it writes the manifest, so the order changes no byte.
    for build in (_biplot, _describe, _diagnose, _clr, _rank, _cluster, _render):
        outputs.update(build(run))
    outputs["table.csv"] = serialize_table(run.table)
    return outputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coda-atlas",
        description="Log-ratio analysis of strictly positive indicator tables",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, build, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("input", help="indicator table CSV")
        p.add_argument("--config", help="ingest config JSON file")
        p.add_argument("-o", "--out", default=".", help="output directory")
        p.set_defaults(build=build, **_STAGE_DEFAULTS)
        return p

    add("validate", _validate, "parse and validate a table")
    add("describe", _describe, "write summary statistics CSV")
    add("diagnose", _diagnose, "write raw-vs-log pathology JSON")
    add("clr", _clr, "write the CLR matrix CSV")

    p = add("biplot", _biplot, "fit a biplot and write model JSON")
    p.add_argument("--alpha", type=float, help="scaling exponent in [0,1]")
    p.add_argument("--rank", type=int, help="number of components")

    p = add("rank", _rank, "rank entities along a ratio link")
    p.add_argument("--ratio", help="catalog ratio name (default: all resolvable)")

    p = add("cluster", _cluster, "agglomerative clustering on Aitchison distance")
    p.add_argument("--linkage", choices=("single", "complete", "average"))
    p.add_argument("--clusters", type=int, help="cut at this cluster count")
    p.add_argument("--threshold", type=float, help="cut at this distance")

    p = add("render", _render, "render the biplot SVG")
    p.add_argument("--links", help="comma-separated ratio names to draw (default: all resolvable)")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)

    add("pipeline", _pipeline, "run every stage and write a manifest")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        outputs = args.build(_Analysis(args))
        for path in write_outputs(outputs, args.out, manifest=args.subcommand == "pipeline"):
            print(path)
        return 0
    except CodaError as exc:
        print(exc.record(), file=sys.stderr)
        return 1
    except OSError as exc:
        print(IoFailure(str(exc)).record(), file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(InsufficientMemory(str(exc)).record(), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
