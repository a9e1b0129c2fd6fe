"""Acceptance gate: the package's headline guarantees, one test per property.

Each test prints a PASS line (run with ``pytest tests/test_acceptance.py -v -s``)
and enforces a wall-clock budget, so this module doubles as a quick conformance
report for the whole toolkit.
"""

import json
import math
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager

import numpy as np
import pytest

from coda_atlas import (
    DistanceMatrix,
    IngestConfig,
    clr,
    clr_matrix,
    default_ratio_catalog,
    distance_matrix,
    fit_biplot,
    hierarchical_cluster,
    make_link,
    named_ratio,
    pairwise_log_ratio,
    parse_table,
    rank_along_link,
    reconstruct,
    serialize_table,
    singular_spectrum,
    skewness,
    synthetic_csv,
    synthetic_table,
)
from coda_atlas.cli import main
from coda_atlas.fixture import DEFAULT_SEED
from coda_atlas.ingest import DEFAULT_PART_SCHEMA

from conftest import make_table, random_table
from oracles import brute_force_ranking, oracle_singular_values


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"{name}: {elapsed:.2f}s exceeds the {budget_seconds}s budget"
    )
    print(f"PASS {name} ({elapsed:.2f}s)")


#: aggregate mean indicator levels used as numeric anchors, in the default
#: part order (EUR MM, EUR MM, EUR MM, MWh, m3, t, headcount, headcount)
REFERENCE_MEANS = (974.0, 635.0, 378.0, 195489.0, 1421715.0, 45369.0, 1371.0, 830.0)

#: 4x4 worked example with a known exact spectrum structure
SPECTRUM_FIXTURE = [
    [1.0, 2.0, 4.0, 8.0],
    [8.0, 4.0, 2.0, 1.0],
    [1.0, 1.0, 2.0, 2.0],
    [2.0, 2.0, 1.0, 1.0],
]

TWO_TRIPLE_ROWS = [
    [1.0, 1.0, 1.0],
    [1.1, 1.0, 1.0],
    [1.0, 1.1, 1.0],
    [100.0, 1.0, 1.0],
    [110.0, 1.0, 1.0],
    [100.0, 1.1, 1.0],
]


def test_clr_structural_suite():
    """Zero row sums, scale invariance and exact antisymmetry at scale."""
    with criterion("CLR structural suite (1000 random tables)", 5.0):
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            n = int(rng.integers(3, 51))
            D = int(rng.integers(2, 13))
            values = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), size=(n, D)))
            base = np.vstack([clr(row) for row in values])
            assert np.max(np.abs(base.sum(axis=1))) < 1e-10
            for lam in (1e-6, 1.0, 1e6):
                scaled = np.vstack([clr(lam * row) for row in values])
                assert np.max(np.abs(scaled - base)) < 1e-10
            row = values[0]
            for i in range(D):
                for j in range(i + 1, D):
                    forward = pairwise_log_ratio(row, i, j)
                    assert pairwise_log_ratio(row, j, i) == -forward


def test_reference_mean_ratio_anchors():
    """Named ratios over the reference mean vector hit the documented values."""
    with criterion("named-ratio anchors on reference means", 1.0):
        table = make_table(
            [list(REFERENCE_MEANS)], part_names=list(DEFAULT_PART_SCHEMA)
        )
        catalog = {r.name: r for r in default_ratio_catalog()}
        for name, expected in (
            ("solvency", 1.680),
            ("energy_intensity", 200.71),
            ("gender_employment_gap", 1.652),
        ):
            got = float(named_ratio(table, catalog[name])[0])
            assert abs(got - expected) / expected < 1e-3, (name, got)


def test_svd_matches_independent_eigen_oracle():
    """Production spectra agree with a from-scratch Jacobi eigensolver."""
    with criterion("SVD vs Jacobi eigen-oracle (fixture + 100 random)", 10.0):
        rng = np.random.default_rng(1003)
        cases = [np.asarray(SPECTRUM_FIXTURE)]
        for _ in range(100):
            n = int(rng.integers(3, 13))
            D = int(rng.integers(2, 9))
            cases.append(random_table(rng, n, D).values)
        for values in cases:
            clr_m = clr_matrix(make_table(values))
            production = singular_spectrum(clr_m)
            centered = clr_m.values - clr_m.values.mean(axis=0)
            expected = oracle_singular_values(centered)
            s1 = production[0]
            assert np.max(np.abs(production - expected)) <= 1e-8 * s1
            assert production[-1] <= 1e-9 * s1


def test_ranking_exact_at_full_compositional_rank():
    """With D=3 and k=2 the projection ordering is the exact log-ratio sort."""
    with criterion("rank-2 ordering exact for D=3 (100 tables)", 5.0):
        rng = np.random.default_rng(1004)
        for _ in range(100):
            n = int(rng.integers(4, 13))
            table = random_table(rng, n, 3)
            model = fit_biplot(clr_matrix(table), alpha=1.0, k=2)
            for i, j in ((0, 1), (0, 2), (1, 2)):
                result = rank_along_link(model, make_link(model, i, j))
                expected = brute_force_ranking(table.values, i, j, table.entity_ids)
                assert result.ordering == expected
                assert abs(result.fidelity - 1.0) <= 1e-9


def test_rankings_invariant_to_alpha():
    """The five default ratio orderings do not depend on the scaling exponent."""
    with criterion("alpha-invariant rankings (50 tables, 17x8)", 5.0):
        rng = np.random.default_rng(1005)
        catalog = default_ratio_catalog()
        for _ in range(50):
            table = make_table(
                np.exp(rng.uniform(math.log(1e-3), math.log(1e6), size=(17, 8))),
                part_names=list(DEFAULT_PART_SCHEMA),
            )
            clr_m = clr_matrix(table)
            orderings = []
            for alpha in (0.0, 0.5, 1.0):
                model = fit_biplot(clr_m, alpha=alpha, k=2)
                orderings.append(
                    tuple(
                        rank_along_link(
                            model, make_link(model, *definition.resolve(table))
                        ).ordering
                        for definition in catalog
                    )
                )
            assert orderings[0] == orderings[1] == orderings[2]


def test_reconstruction_identities():
    """Full-rank factorization recovers the centred matrix; truncation residual
    equals the quadrature sum of the dropped singular values."""
    with criterion("reconstruction and truncation residual", 2.0):
        table = synthetic_table(seed=31)
        clr_m = clr_matrix(table)
        centered = clr_m.values - clr_m.values.mean(axis=0)
        m = min(table.n - 1, table.D - 1)

        full = fit_biplot(clr_m, alpha=1.0, k=m)
        residual_full = np.linalg.norm(reconstruct(full) - centered)
        assert residual_full <= 1e-8

        low = fit_biplot(clr_m, alpha=0.0, k=2)
        residual = np.linalg.norm(reconstruct(low) - centered)
        spectrum = singular_spectrum(clr_m)
        expected = math.sqrt(float(np.sum(spectrum[2:] ** 2)))
        assert abs(residual - expected) <= 1e-8


def test_log_transform_reduces_skewness():
    """Log-normal ratio samples are less skewed after the log transform."""
    with criterion("skewness reduction on log-normal samples", 2.0):
        rng = np.random.default_rng(1007)
        wins = 0
        for _ in range(100):
            raw = rng.lognormal(mean=0.0, sigma=1.0, size=200)
            if abs(skewness(np.log(raw))) < abs(skewness(raw)):
                wins += 1
        assert wins >= 95, f"log transform reduced skewness in only {wins}/100 trials"


def test_cluster_recovery_and_merge_monotonicity():
    """Well-separated groups are recovered under every linkage and merge
    distances never decrease on metric inputs."""
    with criterion("cluster recovery and merge monotonicity", 2.0):
        table = make_table(TWO_TRIPLE_ROWS, ids=["a1", "a2", "a3", "b1", "b2", "b3"])
        dist = distance_matrix(clr_matrix(table))
        intra = max(
            dist.values[i, j]
            for block in ([0, 1, 2], [3, 4, 5])
            for i in block
            for j in block
        )
        inter = min(dist.values[i, j] for i in (0, 1, 2) for j in (3, 4, 5))
        assert inter / intra >= 10.0
        for linkage in ("single", "complete", "average"):
            got = hierarchical_cluster(dist, linkage=linkage, n_clusters=2)
            assert got.members() == {1: ("a1", "a2", "a3"), 2: ("b1", "b2", "b3")}

        rng = np.random.default_rng(1008)
        for _ in range(100):
            n = int(rng.integers(4, 13))
            pts = rng.normal(size=(n, 3))
            gaps = pts[:, None, :] - pts[None, :, :]
            values = np.sqrt((gaps * gaps).sum(axis=-1))
            np.fill_diagonal(values, 0.0)
            metric = DistanceMatrix(
                ids=tuple(f"p{k:02d}" for k in range(n)), values=values
            )
            for linkage in ("single", "complete", "average"):
                history = hierarchical_cluster(metric, linkage=linkage).merge_history
                ds = [h[2] for h in history]
                assert all(x <= y + 1e-12 for x, y in zip(ds, ds[1:]))


def test_ingestion_round_trip_and_unit_absorption():
    """parse(write(t)) is the identity and declared units wash out of the model."""
    with criterion("ingestion round-trip and unit absorption", 2.0):
        table = synthetic_table(seed=47)
        again = parse_table(str(serialize_table(table)))
        assert np.array_equal(again.values, table.values)
        assert again.entity_ids == table.entity_ids
        assert again.part_names == table.part_names

        energy = table.part_names.index("energy_consumption")
        in_gwh = table.values.copy()
        in_gwh[:, energy] /= 1000.0
        gwh_table = make_table(
            in_gwh, ids=list(table.entity_ids), part_names=list(table.part_names)
        )
        config = IngestConfig(unit_map={"energy_consumption": "GWh"})
        parsed_mwh = parse_table(str(serialize_table(table)))
        parsed_gwh = parse_table(str(serialize_table(gwh_table)), config)
        model_a = fit_biplot(clr_matrix(parsed_mwh), alpha=1.0, k=2)
        model_b = fit_biplot(clr_matrix(parsed_gwh), alpha=1.0, k=2)
        assert np.allclose(model_a.points, model_b.points, atol=1e-9)
        assert np.allclose(model_a.rays, model_b.rays, atol=1e-9)
        assert np.allclose(
            model_a.singular_values, model_b.singular_values, rtol=1e-9
        )


def test_pipeline_is_deterministic(tmp_path, capsys):
    """Two pipeline runs yield byte-identical artifacts and a well-formed SVG."""
    with criterion("end-to-end pipeline determinism", 3.0):
        source = tmp_path / "fixture.csv"
        source.write_text(synthetic_csv())
        run_a = tmp_path / "run_a"
        run_b = tmp_path / "run_b"
        assert main(["pipeline", str(source), "-o", str(run_a)]) == 0
        assert main(["pipeline", str(source), "-o", str(run_b)]) == 0
        capsys.readouterr()

        manifest_a = (run_a / "manifest.json").read_bytes()
        manifest_b = (run_b / "manifest.json").read_bytes()
        assert manifest_a == manifest_b
        for entry in json.loads(manifest_a)["files"]:
            name = entry["name"]
            assert (run_a / name).read_bytes() == (run_b / name).read_bytes()

        root = ET.fromstring((run_a / "biplot.svg").read_text())
        points = [el for el in root.iter() if el.get("class") == "point"]
        rays = [el for el in root.iter() if el.get("class") == "ray"]
        assert len(points) == 17
        assert len(rays) == 8


def test_fixture_seed_is_not_read_from_the_environment(monkeypatch):
    monkeypatch.setenv("CODA_ATLAS_SEED", "7")
    assert synthetic_csv() == synthetic_csv(DEFAULT_SEED)
    assert synthetic_csv() != synthetic_csv(7)
