"""coda-atlas benchmark: one command, three workloads, checked outputs.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this file's directory and
the package is imported from its src/ (nothing needs installing). Load
comes from this one process, in a closed loop with one client: the next
operation starts when the previous one has ended, until ``--seconds`` have
passed and at least one full rotation of the workload has run (two when
traced).

Workloads (see README.md for why each exists):

* ``cli_fixture``: one fresh ``python -m coda_atlas.cli`` process per
  operation on the seeded 17x8 fixture, cycling through all nine
  subcommands with their default options. Cold start is what it measures,
  so it has no warm-up.
* ``cluster_n400``: the stage sequence of ``coda-atlas pipeline`` in this
  process on a seeded 400x32 table, linkage rotating single, complete,
  average.
* ``wide_n20k``: the same sequence without clustering on a seeded
  20000x32 table.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` every other operation is traced and it carries the
per-layer metrics. The full record (run record, every metric, per-op wall
times and, when traced, the spans) goes to
``.perfbench_work/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import CheckFailed, check_outputs, check_process, check_repeat, input_ids
from spans import NullTracer, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: input generations per run; setup_s counts their median
SETUPS = 3
#: samples that must lie beyond the percentile reported as wall_s.tail
TAIL_BEYOND = 10

CLI_COMMANDS = (
    ("validate", ()),
    ("describe", ()),
    ("diagnose", ()),
    ("clr", ()),
    ("biplot", ()),
    ("rank", ("--ratio", "solvency")),
    ("cluster", ()),
    ("render", ()),
    ("pipeline", ()),
)
LINKAGES = ("single", "complete", "average")

#: workload -> (rows, parts, linkage rotation or None for the CLI)
WORKLOADS = {
    "cli_fixture": (17, 8, None),
    "cluster_n400": (400, 32, LINKAGES),
    "wide_n20k": (20000, 32, (None,)),
}

#: traced public calls reported as inclusive seconds per traced operation
TIMED_CALLS = (
    "cli.import",
    "cli.main",
    "ingest.parse_table",
    "ingest.serialize_table",
    "ingest.clr_csv",
    "ingest.write_reports",
    "composition.clr_matrix",
    "biplot.fit_biplot",
    "biplot.rank_along_link",
    "biplot.ranking_csv",
    "biplot.model_to_json",
    "stats.summarize_table",
    "stats.pathology_report",
    "cluster.distance_matrix",
    "cluster.cluster_profile",
    "render.render_biplot",
    "fmt.dumps_json",
)
#: layers reported as self seconds per traced operation; "op" is the time
#: of an operation outside every package call (for the CLI: interpreter
#: start-up and exit)
LAYERS = ("op", "cli", "ingest", "composition", "biplot", "stats", "cluster", "render", "fmt")
#: span attribute -> (metric, unit), averaged over the spans that carry it
SIZE_ATTRS = {
    "bytes_in": ("ingest.bytes_in", "bytes"),
    "bytes_out": ("ingest.bytes_out", "bytes"),
    "svg_bytes": ("render.svg_bytes", "bytes"),
    "distance_bytes": ("cluster.distance_bytes", "computed_bytes"),
    "merges": ("cluster.merges", "count"),
}


class Fatal(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def load_package() -> float:
    """Import coda_atlas from this checkout's src/; return the import seconds."""
    if not (SRC / "coda_atlas" / "__init__.py").is_file():
        raise Fatal(f"no coda_atlas package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import coda_atlas
    import coda_atlas.cli  # noqa: F401

    import_s = time.perf_counter() - start
    if not Path(coda_atlas.__file__).resolve().is_relative_to(SRC.resolve()):
        raise Fatal(f"coda_atlas imported from {coda_atlas.__file__}, not from {SRC}")
    return import_s


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_record() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    threads = {
        var: os.environ.get(var, "unset")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class CliFixture:
    """Fresh CLI processes on the 17x8 fixture; the key is the subcommand."""

    def __init__(self, run_dir: Path, seen: dict):
        self.run_dir = run_dir
        self.seen = seen
        self.keys = CLI_COMMANDS
        self.csv_path = run_dir / "fixture.csv"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
        )

    def make_inputs(self, seed: int) -> str:
        from coda_atlas.fixture import synthetic_csv

        text = synthetic_csv(seed)
        self.csv_path.write_text(text, encoding="utf-8")
        self.ids = input_ids(text)
        return text

    def warm_up(self) -> None:
        """None: every CLI call pays the cold start, so the benchmark does too."""

    def operation(self, key, tracer):
        """Run one subcommand; return (wall seconds, peak RSS in KiB)."""
        name, extra = key
        out = fresh_dir(self.run_dir / "cli" / name)
        proc_dir = fresh_dir(self.run_dir / "proc")
        argv = [name, str(self.csv_path), "-o", str(out), *extra]
        spans_path = proc_dir / "spans.json"
        if isinstance(tracer, Tracer):
            cmd = [sys.executable, str(HERE / "cli_probe.py"), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "coda_atlas.cli", *argv]
        with open(proc_dir / "stdout", "wb") as stdout, open(proc_dir / "stderr", "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr,
                env=self.env, cwd=self.run_dir,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)

        if isinstance(tracer, Tracer):
            root = tracer.record("op", start, end)
            if spans_path.is_file():
                offset = len(tracer.spans)
                for child, c_start, c_end, parent, _, attrs in json.loads(spans_path.read_text()):
                    parent = root if parent is None else parent + offset
                    tracer.record(child, c_start, c_end, parent, attrs)

        check_process(proc.returncode, (proc_dir / "stderr").read_text(errors="replace"))
        digests = check_outputs(str(out), self.ids)
        digests["<stdout>"] = (proc_dir / "stdout").read_bytes()
        check_repeat(self.seen, name, digests)
        return end - start, usage.ru_maxrss


class InProcess:
    """The pipeline's stage sequence in this process; the key is the linkage."""

    def __init__(self, run_dir: Path, seen: dict, n: int, D: int, linkages):
        self.run_dir = run_dir
        self.seen = seen
        self.n, self.D = n, D
        self.keys = linkages

    def make_inputs(self, seed: int) -> str:
        from inputs import table_csv

        text = table_csv(self.n, self.D, seed)
        self.data = text.encode("utf-8")
        self.ids = input_ids(text)
        return text

    def warm_up(self) -> None:
        """One untimed, checked operation: the first SVD and the first
        allocations of each size are much slower than the rest."""
        self.operation(self.keys[0], NullTracer())

    def operation(self, linkage, tracer):
        """One table through the stages; return (wall seconds, None)."""
        out = self.run_dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        tracer.call("op", pipeline, tracer, self.data, str(out), linkage)
        wall = time.perf_counter() - start
        check_repeat(self.seen, linkage, check_outputs(str(out), self.ids))
        return wall, None


def pipeline(tracer, data: bytes, out_dir: str, linkage: str | None) -> dict:
    """The stage sequence of ``coda-atlas pipeline``, through public calls.

    Mirrors the CLI's pipeline subcommand with default options, except that
    the linkage is a parameter and ``linkage=None`` leaves clustering out.
    """
    from coda_atlas import biplot, cluster, composition, ingest, render, stats
    from coda_atlas._fmt import dumps_json
    from coda_atlas.errors import UnknownPart

    call = tracer.call
    config = ingest.IngestConfig()
    table = call("ingest.parse_table", ingest.parse_table, data, config)
    clr = call("composition.clr_matrix", composition.clr_matrix, table)
    model = call("biplot.fit_biplot", biplot.fit_biplot, clr, alpha=1.0, k=2)
    catalog = config.ratio_catalog

    outputs = {}
    outputs["table.csv"] = call("ingest.serialize_table", ingest.serialize_table, table)
    summaries = call("stats.summarize_table", stats.summarize_table, table, catalog)
    outputs["describe.csv"] = call("stats.describe_csv", stats.describe_csv, summaries)
    report = call("stats.pathology_report", stats.pathology_report, table, catalog)
    outputs["pathology.json"] = call(
        "fmt.dumps_json", dumps_json, call("stats.pathology_json", stats.pathology_json, report)
    )
    outputs["clr.csv"] = call("ingest.clr_csv", ingest.clr_csv, clr)
    outputs["model.json"] = call("biplot.model_to_json", biplot.model_to_json, model)

    link_names = []
    for definition in catalog:
        try:
            i, j = definition.resolve(table)
        except UnknownPart:
            continue
        link = call("biplot.make_link", biplot.make_link, model, i, j, label=definition.name)
        if link.degenerate:
            continue
        result = call("biplot.rank_along_link", biplot.rank_along_link, model, link)
        outputs[f"rankings_{definition.name}.csv"] = call(
            "biplot.ranking_csv", biplot.ranking_csv, result
        )
        link_names.append(definition.name)

    if linkage is not None:
        dist = call("cluster.distance_matrix", cluster.distance_matrix, clr)
        assignment = call(
            "cluster.hierarchical_cluster", cluster.hierarchical_cluster, dist, linkage=linkage
        )
        outputs["clusters.csv"] = call("cluster.assignment_csv", cluster.assignment_csv, assignment)
        outputs["merges.json"] = call(
            "fmt.dumps_json",
            dumps_json,
            call("cluster.merge_history_json", cluster.merge_history_json, assignment),
        )
        profiles = call("cluster.cluster_profile", cluster.cluster_profile, table, assignment)
        outputs["cluster_profiles.json"] = call(
            "fmt.dumps_json",
            dumps_json,
            call("cluster.profiles_json", cluster.profiles_json, profiles, table.part_names),
        )

    options = render.RenderOptions(show_links=tuple(link_names), ratio_catalog=catalog)
    outputs["biplot.svg"] = call("render.render_biplot", render.render_biplot, model, table, options)
    return call("ingest.write_reports", ingest.write_reports, outputs, out_dir)


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it. When that percentile would not lie above the median (fewer
    than 2 * TAIL_BEYOND + 1 samples), the maximum, as percentile 100."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def layer_metrics(ops: list[dict], spans: list[list]) -> dict:
    """Per-layer metrics from the traced operations' spans."""
    traced = [op for op in ops if op["traced"]]
    count = max(len(traced), 1)
    own = self_times(spans)
    total: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    attrs_sum: dict[str, float] = {}
    attrs_n: dict[str, int] = {}
    by_linkage = {linkage: [] for linkage in LINKAGES}
    for (name, start, end, _, _, attrs), self_s in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        layer_self[name.split(".")[0]] += self_s
        for attr, value in attrs.items():
            if attr == "linkage":
                by_linkage[value].append(end - start)
            else:
                attrs_sum[attr] = attrs_sum.get(attr, 0.0) + value
                attrs_n[attr] = attrs_n.get(attr, 0) + 1

    metrics = {}
    for name in TIMED_CALLS:
        metrics[f"{name}_s"] = (total.get(name, 0.0) / count, "s")
    for linkage, walls in by_linkage.items():
        metrics[f"cluster.hierarchical_cluster_s.{linkage}"] = (
            statistics.fmean(walls) if walls else 0.0, "s"
        )
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_s"] = (seconds / count, "s")
    for attr, (metric, unit) in SIZE_ATTRS.items():
        n = attrs_n.get(attr, 0)
        metrics[metric] = (attrs_sum.get(attr, 0.0) / n if n else 0.0, unit)
    attempted = attrs_sum.get("links_attempted", 0.0)
    ranked = attrs_sum.get("links_ranked", 0.0)
    metrics["biplot.links_attempted"] = (attempted / count, "count")
    metrics["biplot.links_ranked"] = (ranked / count, "count")
    metrics["biplot.links_ranked_ratio"] = (ranked / attempted if attempted else 0.0, "ratio")

    for name, _ in CLI_COMMANDS:
        walls = [op["wall_s"] for op in ops if op["key"] == name and op["ok"]]
        metrics[f"cli.{name}.wall_s"] = (statistics.median(walls) if walls else 0.0, "s")

    plain = [op["wall_s"] for op in ops if op["ok"] and not op["traced"]]
    with_spans = [op["wall_s"] for op in traced if op["ok"]]
    overhead = statistics.median(with_spans) - statistics.median(plain) if plain and with_spans else 0.0
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.spans_per_op"] = (len(spans) / count, "count")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Set up, run the closed loop, check every operation; return the result.

    ``sizes`` overrides (rows, parts) of the in-process workloads; the
    self-check uses it to run every code path at a small size.
    """
    import_s = load_package()
    n, D, linkages = WORKLOADS[workload]
    if sizes is not None and linkages is not None:
        n, D = sizes
    run_dir = fresh_dir(WORK / f"run-{os.getpid()}")
    try:
        seen: dict = {}
        if linkages is None:
            bench = CliFixture(run_dir, seen)
        else:
            bench = InProcess(run_dir, seen, n, D, linkages)

        # Only the first warm-up in a process is a set-up: a second one would
        # find caches filled and hide work moved into set-up, so it runs once.
        # Generating the inputs is repeated; that also checks it is seeded.
        generate_times, texts = [], []
        for _ in range(SETUPS):
            start = time.perf_counter()
            texts.append(bench.make_inputs(seed))
            generate_times.append(time.perf_counter() - start)
        setup_ok = all(text == texts[0] for text in texts)
        start = time.perf_counter()
        bench.warm_up()
        warm_up_s = time.perf_counter() - start

        cycle = len(bench.keys)
        min_ops = 2 * cycle if trace else cycle
        tracer = Tracer()
        ops = []
        deadline = time.perf_counter() + seconds
        while len(ops) < min_ops or time.perf_counter() < deadline:
            i = len(ops)
            key = bench.keys[i % cycle]
            traced = trace and i % 2 == 1
            tracer.op = i
            op = {"key": key[0] if linkages is None else key, "traced": traced}
            try:
                op["wall_s"], op["rss_kib"] = bench.operation(
                    key, tracer if traced else NullTracer()
                )
                op["ok"] = True
            except CheckFailed as exc:
                op.update(ok=False, error=str(exc))
                print(f"operation {i} ({op['key']}) failed: {exc}", file=sys.stderr)
            except Exception as exc:  # any program failure counts as a failed op
                op.update(ok=False, error=repr(exc))
                traceback.print_exc()
            ops.append(op)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(not op["ok"] for op in ops)
    plain = [op for op in ops if op["ok"] and not op["traced"]]
    walls = [op["wall_s"] for op in plain]
    if linkages is None:
        peak_kib = max((op["rss_kib"] for op in plain), default=0)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_s, tail_pct = tail(walls) if walls else (0.0, 0.0)
    end_to_end = {
        "wall_s.p50": (statistics.median(walls) if walls else 0.0, "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
        "ok_ratio": (1.0 - failed / len(ops), "ratio"),
        "setup_s": (import_s + statistics.median(generate_times) + warm_up_s, "s"),
    }
    per_layer = layer_metrics(ops, tracer.spans) if trace else {}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": [n, D],
        "record": run_record(),
        "correct": failed == 0 and setup_ok,
        "attempted": len(ops),
        "failed": failed,
        "failed_ratio": failed / len(ops),
        "wall_s.tail": tail_s,
        "tail_percentile": tail_pct,
        "samples": len(walls),
        "import_s": import_s,
        "generate_s": generate_times,
        "warm_up_s": warm_up_s,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "ops": ops,
        "spans": tracer.spans,
    }


def report(result: dict) -> None:
    """Print the metrics by name and unit, save the record, print the result line."""
    record = result["record"]
    print(
        f"# {result['workload']} seed={result['seed']} trace={int(result['trace'])}"
        f" nproc={record['nproc']} python={record['python']} numpy={record['numpy']}"
        f" blas={record['blas']['name']} {record['blas']['version']}"
        f" blas_threads={record['blas_threads']} commit={record['git_commit']}"
    )
    print(
        f"failed_ratio = {result['failed_ratio']:.6g} ratio"
        f" ({result['failed']} of {result['attempted']} operations)"
    )
    print(
        f"wall_s.tail = {result['wall_s.tail']:.6g} s"
        f" (p{result['tail_percentile']:.1f} of {result['samples']} untraced samples;"
        " not on the result line, see README.md)"
    )
    for group in ("end_to_end", "per_layer"):
        for name, (value, unit) in result[group].items():
            print(f"{name} = {value:.6g} {unit}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    path.write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")

    print(json.dumps(result_line(result)))


def result_line(result: dict) -> dict:
    """The last stdout line: end-to-end metrics untraced, per-layer traced."""
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
