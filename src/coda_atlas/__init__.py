"""Log-ratio analysis of strictly positive indicator tables.

The toolkit turns a table of per-entity indicators (revenue, energy use,
headcounts, ...) into log-ratio coordinates, fits a principal-component
biplot, ranks entities along named ratio links, clusters them by Aitchison
distance and renders a deterministic SVG figure. Every stage is exposed
both as a library function and through the ``coda-atlas`` command line.

Stage modules are loaded on first use: ``import coda_atlas`` imports none
of them, and reading a public name (``coda_atlas.fit_biplot``) or a stage
module (``coda_atlas.cluster``) imports the module that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

#: the public names of each stage module. .fixture in particular must stay
#: out of sys.modules until used: ``python -m coda_atlas.fixture`` warns
#: when the package import has loaded it already
_MODULES = {
    "biplot": (
        "BiplotModel", "Link", "RankingResult", "fit_biplot", "make_link",
        "model_to_json", "rank_along_link", "ranking_csv", "reconstruct",
        "singular_spectrum",
    ),
    "cluster": (
        "ClusterAssignment", "ClusterProfile", "DistanceMatrix", "assignment_csv",
        "cluster_profile", "distance_matrix", "hierarchical_cluster",
    ),
    "composition": (
        "ClrMatrix", "Entity", "IndicatorTable", "Part", "RatioDefinition",
        "aitchison_distance", "clr", "clr_matrix", "default_ratio_catalog",
        "geometric_mean", "log_ratio_series", "named_ratio", "pairwise_log_ratio",
        "replace_zeros", "resolvable_ratios", "validate_table",
    ),
    "errors": ("CodaError",),
    "fixture": ("synthetic_csv", "synthetic_table", "write_synthetic_csv"),
    "ingest": (
        "DEFAULT_PART_SCHEMA", "IngestConfig", "parse_table", "serialize_table",
        "table_config", "write_reports",
    ),
    "render": (
        "AffineTransform", "RenderOptions", "render_biplot", "scale_to_viewport",
        "sector_colors",
    ),
    "stats": (
        "DescriptiveSummary", "PathologyReport", "describe", "outlier_count",
        "pathology_report", "skewness", "summarize_table",
    ),
}

#: public name -> the stage module that defines it
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
