"""fill_rows on several CPUs: the same text as one CPU, and no child left behind.

The forked path is forced by lowering ``_fmt._PARALLEL_FIELDS``; a test
process with one allowed CPU is told it has two, so the path runs on any
machine (the child's pinning then fails, and it runs unpinned).
"""

import os
import subprocess
import sys
import textwrap
import threading
import warnings
from unittest.mock import patch

import numpy as np
import pytest

from coda_atlas import (
    RenderOptions, clr_matrix, cluster_profile, distance_matrix, fit_biplot, hierarchical_cluster,
)
from coda_atlas import _fmt, biplot, cli
from coda_atlas._fmt import csv_fields, dumps_json, fill_rows, fmt_rows
from coda_atlas.fixture import synthetic_csv
from coda_atlas.biplot import RankingResult, model_to_json, ranking_csv
from coda_atlas.cluster import assignment_csv, profiles_json
from coda_atlas.ingest import DEFAULT_PART_SCHEMA, default_ratio_catalog
from coda_atlas.render import render_biplot

from conftest import OPENBLAS_THREADS_AT_START, make_table

B = _fmt._BLOCK_ROWS


def serial(function, *args):
    with patch.object(_fmt, "_PARALLEL_FIELDS", 1 << 62):
        return function(*args)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Force the forked path; the list collects the pid of every fork."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(_fmt, "_PARALLEL_FIELDS", 2)
    if len(os.sched_getaffinity(0)) < 2:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    yield pids
    assert_no_child()


def awkward_ids(n):
    kinds = ("e%d", "é%d€", "日本%d", '"q,%d"', "%%s%d", "a\n%d")
    return csv_fields([kinds[r % len(kinds)] % r for r in range(n)])


def awkward_values(n, k, seed=0):
    values = np.random.default_rng(seed).standard_normal((n, k)) * 10.0 ** np.arange(-3, k - 3)
    values[:4, 0] = (-0.0, 5e-324, 1.7976931348623157e308, 1e16)
    return values


class TestSameText:
    @pytest.mark.parametrize("n", [2 * B, 2 * B + 37, 3 * B + 1000, 5 * B + 1])
    def test_fmt_rows_with_non_ascii_and_quoted_ids(self, forks, n):
        ids, values = awkward_ids(n), awkward_values(n, 5)
        assert fmt_rows(ids, values) == serial(fmt_rows, ids, values)
        assert len(forks) == 1

    def test_several_children_join_in_row_order(self, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(_fmt, "_BLOCK_ROWS", 4)
        ids, values = awkward_ids(43), awkward_values(43, 3)
        assert fmt_rows(ids, values) == serial(fmt_rows, ids, values)
        assert len(forks) == 3

    def test_integer_template_of_ranking_csv(self, forks):
        n = 2 * B + 5
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(n)
        result = RankingResult(
            link=None, rows=np.argsort(-scores, kind="stable"), scores=scores,
            exact_log_ratios=rng.standard_normal(n), fidelity=1.0, rank_agreement=1.0,
            entity_ids=tuple(awkward_ids(n)),
        )
        text = ranking_csv(result)
        assert text == serial(ranking_csv, result)
        assert len(forks) == 1
        assert text.splitlines()[-1].endswith(",%d" % n)

    @pytest.mark.parametrize("label_points", [True, False])
    def test_fixed_point_templates_of_render(self, forks, label_points):
        n = 2 * B + 11
        names = list(DEFAULT_PART_SCHEMA)
        ids = [f"e{r}&<{r}>é" if r % 3 == 0 else f"e{r}" for r in range(n)]
        values = np.exp(np.random.default_rng(2).normal(scale=2.0, size=(n, len(names))))
        table = make_table(values, ids=ids, part_names=names)
        model = fit_biplot(clr_matrix(table), k=2)
        links = tuple(r.name for r in default_ratio_catalog())
        options = RenderOptions(show_links=links, label_points=label_points)
        assert render_biplot(model, table, options) == serial(render_biplot, model, table, options)
        # one fill_rows of n rows per link (its ticks), the points, their labels
        assert len(forks) == len(links) + 1 + label_points

    def test_json_templates_and_cluster_labels(self, forks, monkeypatch):
        monkeypatch.setattr(_fmt, "_BLOCK_ROWS", 16)
        ids = [f'e{r}"é\\{r}' for r in range(60)]
        values = np.exp(np.random.default_rng(3).normal(size=(60, 8)))
        table = make_table(values, ids=ids, part_names=list(DEFAULT_PART_SCHEMA))
        clr = clr_matrix(table)
        assignment = hierarchical_cluster(distance_matrix(clr), n_clusters=59)
        profiles = cluster_profile(table, assignment)
        for write, args in (
            (model_to_json, (fit_biplot(clr, k=2),)),
            (assignment_csv, (assignment,)),
            (lambda *a: dumps_json(profiles_json(*a)), (profiles, table.part_names)),
        ):
            assert write(*args) == serial(write, *args)
        assert len(forks) == 3

    def test_non_finite_cell_raises_before_any_fork(self, forks):
        values = awkward_values(3 * B, 4)
        values[-1, -1] = np.nan
        with pytest.raises(ValueError) as expected:
            serial(fmt_rows, awkward_ids(3 * B), values)
        with pytest.raises(ValueError) as got:
            fmt_rows(awkward_ids(3 * B), values)
        assert str(got.value) == str(expected.value) == "non-finite value in report output: nan"
        assert forks == []


    def test_fork_warns_nothing(self, forks):
        # Python >= 3.12 warns on a fork while other OS threads (OpenBLAS's) run
        if not os.path.exists("/proc/self/status"):
            pytest.skip("no /proc/self/status to count threads")
        if (os.cpu_count() or 1) < 2 or OPENBLAS_THREADS_AT_START == "1":
            pytest.skip("OpenBLAS runs no second thread here")
        # large enough to thread: an earlier fork stopped the pool, and a
        # small call would leave it stopped
        np.linalg.qr(np.random.default_rng(0).standard_normal((2000, 64)))
        with open("/proc/self/status") as handle:
            threads = [int(line.split()[1]) for line in handle if line.startswith("Threads:")]
        # numpy loaded before coda_atlas.cli set OPENBLAS_NUM_THREADS (conftest
        # imports it first); without a second thread this test checks nothing
        assert threads[0] >= 2, "no OpenBLAS thread is live beside this one"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fill_rows("%d\n", np.arange(3 * B)) == serial(fill_rows, "%d\n", np.arange(3 * B))
        assert len(forks) == 1


    def test_pipeline_fits_before_its_first_fork(self, forks, monkeypatch, tmp_path):
        # a fork stops OpenBLAS's threads, whose restart at the fit's first QR
        # can land beside the main thread: nothing is forked before the fit
        (tmp_path / "fx.csv").write_text(synthetic_csv())
        monkeypatch.setattr(_fmt, "_BLOCK_ROWS", 4)
        calls = []
        real_fit, real_fill_forked = biplot.fit_biplot, _fmt._fill_forked

        def fit(*args, **kwargs):
            calls.append("fit_biplot")
            return real_fit(*args, **kwargs)

        def fill_forked(*args):
            calls.append("_fill_forked")
            return real_fill_forked(*args)

        monkeypatch.setattr(biplot, "fit_biplot", fit)
        monkeypatch.setattr(_fmt, "_fill_forked", fill_forked)
        assert cli.main(["pipeline", str(tmp_path / "fx.csv"), "--out", str(tmp_path)]) == 0
        assert calls[0] == "fit_biplot" and "_fill_forked" in calls, calls


class TestFailures:
    @staticmethod
    def column_with(bad_row, n=3 * B):
        column = list(range(n))
        column[bad_row] = "x"
        return column

    @pytest.mark.parametrize("bad_row", [0, B, 3 * B - 1])
    def test_unformattable_value_raises_the_serial_error(self, forks, bad_row):
        # row 0 lies in this process's share, the others in the child's
        column = self.column_with(bad_row)
        with pytest.raises(TypeError) as expected:
            serial(fill_rows, "%s,%d\n", awkward_ids(len(column)), column)
        with pytest.raises(TypeError) as got:
            fill_rows("%s,%d\n", awkward_ids(len(column)), column)
        assert str(got.value) == str(expected.value) == "%d format: a real number is required, not str"
        assert len(forks) == 1
        assert_no_child()

    def test_failed_fork_formats_the_share_here(self, forks, monkeypatch):
        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        assert fill_rows("%d\n", np.arange(3 * B)) == serial(fill_rows, "%d\n", np.arange(3 * B))

    def test_unflushed_stdout_and_atexit_run_once(self):
        script = textwrap.dedent(
            """
            import atexit, os
            import numpy as np
            from coda_atlas import _fmt

            _fmt._PARALLEL_FIELDS = 2
            if len(os.sched_getaffinity(0)) < 2:
                os.sched_getaffinity = lambda pid: {0, 1}
            pids = []
            real_fork = os.fork
            def fork():
                pid = real_fork()
                if pid:
                    pids.append(pid)
                return pid
            os.fork = fork
            atexit.register(print, "atexit")
            print("unflushed", end=" ")
            text = _fmt.fill_rows("%d\\n", np.arange(3 * _fmt._BLOCK_ROWS))
            print(len(pids), text == "".join("%d\\n" % i for i in range(3 * _fmt._BLOCK_ROWS)))
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert result.stdout == "unflushed 1 True\natexit\n"
        assert result.stderr == ""


    def test_children_reaped_elsewhere(self):
        # with SIGCHLD ignored the kernel reaps each child itself, and
        # waitpid finds none: the shares are formatted here instead
        script = textwrap.dedent(
            """
            import os, signal
            import numpy as np
            from coda_atlas import _fmt

            _fmt._PARALLEL_FIELDS = 2
            if len(os.sched_getaffinity(0)) < 2:
                os.sched_getaffinity = lambda pid: {0, 1}
            signal.signal(signal.SIGCHLD, signal.SIG_IGN)
            n = 3 * _fmt._BLOCK_ROWS
            print(_fmt.fill_rows("%d\\n", np.arange(n)) == "".join("%d\\n" % i for i in range(n)))
            column = list(range(n))
            column[0] = "x"
            try:
                _fmt.fill_rows("%d\\n", column)
            except TypeError as exc:
                print(exc)
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert result.stdout == "True\n%d format: a real number is required, not str\n"
        assert result.stderr == ""


class TestSerialFallbacks:
    def table(self):
        return awkward_ids(3 * B), awkward_values(3 * B, 4)

    def test_one_allowed_cpu(self, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        ids, values = self.table()
        assert fmt_rows(ids, values) == serial(fmt_rows, ids, values)
        assert forks == []

    def test_another_live_python_thread(self, forks):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            ids, values = self.table()
            assert fmt_rows(ids, values) == serial(fmt_rows, ids, values)
        finally:
            release.set()
            thread.join()
        assert forks == []

    @pytest.mark.parametrize("missing", ["fork", "memfd_create"])
    def test_platform_without(self, forks, monkeypatch, missing):
        monkeypatch.delattr(os, missing)
        ids, values = self.table()
        assert fmt_rows(ids, values) == serial(fmt_rows, ids, values)
        assert forks == []

    def test_fewer_than_two_full_blocks(self, forks):
        ids, values = awkward_ids(2 * B - 1), awkward_values(2 * B - 1, 40)
        assert fmt_rows(ids, values) == serial(fmt_rows, ids, values)
        assert forks == []

    def test_threshold(self, forks, monkeypatch):
        monkeypatch.setattr(_fmt, "_PARALLEL_FIELDS", 1 << 18)
        below, at = np.arange((1 << 18) - 1), np.arange(1 << 18)
        assert fill_rows("%d\n", below) == serial(fill_rows, "%d\n", below)
        assert forks == []
        assert fill_rows("%d\n", at) == serial(fill_rows, "%d\n", at)
        assert len(forks) == 1


class TestChildCpus:
    def test_children_go_to_the_other_allowed_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        monkeypatch.setattr(_fmt, "_current_cpu", lambda: 2)
        assert _fmt._child_cpus() == [0, 5]

    def test_unknown_cpu_of_this_process_pins_nothing(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        monkeypatch.setattr(_fmt, "_current_cpu", lambda: None)
        assert _fmt._child_cpus() == [None, None]

    def test_no_sched_setaffinity_pins_nothing(self, monkeypatch):
        monkeypatch.delattr(os, "sched_setaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _fmt._child_cpus() == [None, None]

    def test_current_cpu_is_an_allowed_one(self):
        assert _fmt._current_cpu() in os.sched_getaffinity(0)
