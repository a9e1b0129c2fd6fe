"""Log-ratio analysis of strictly positive indicator tables.

The toolkit turns a table of per-entity indicators (revenue, energy use,
headcounts, ...) into log-ratio coordinates, fits a principal-component
biplot, ranks entities along named ratio links, clusters them by Aitchison
distance and renders a deterministic SVG figure. Every stage is exposed
both as a library function and through the ``coda-atlas`` command line.
"""

from .biplot import (
    BiplotModel,
    Link,
    RankingResult,
    fit_biplot,
    make_link,
    model_to_json,
    rank_along_link,
    ranking_csv,
    reconstruct,
    singular_spectrum,
)
from .cluster import (
    ClusterAssignment,
    ClusterProfile,
    DistanceMatrix,
    assignment_csv,
    cluster_profile,
    distance_matrix,
    hierarchical_cluster,
)
from .composition import (
    ClrMatrix,
    Entity,
    IndicatorTable,
    Part,
    RatioDefinition,
    aitchison_distance,
    clr,
    clr_matrix,
    default_ratio_catalog,
    geometric_mean,
    log_ratio_series,
    named_ratio,
    pairwise_log_ratio,
    replace_zeros,
    resolvable_ratios,
    validate_table,
)
from .errors import CodaError
from .ingest import (
    DEFAULT_PART_SCHEMA,
    IngestConfig,
    parse_table,
    serialize_table,
    table_config,
    write_reports,
)
from .render import (
    AffineTransform,
    RenderOptions,
    render_biplot,
    scale_to_viewport,
    sector_colors,
)
from .stats import (
    DescriptiveSummary,
    PathologyReport,
    describe,
    outlier_count,
    pathology_report,
    skewness,
    summarize_table,
)

__version__ = "0.1.0"

#: names served from .fixture on first access; importing it eagerly would put
#: coda_atlas.fixture in sys.modules before ``python -m coda_atlas.fixture``
#: runs it, which makes runpy warn
_FIXTURE_NAMES = ("synthetic_csv", "synthetic_table", "write_synthetic_csv")


def __getattr__(name: str):
    if name in _FIXTURE_NAMES:
        from . import fixture

        return getattr(fixture, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AffineTransform",
    "BiplotModel",
    "ClrMatrix",
    "ClusterAssignment",
    "ClusterProfile",
    "CodaError",
    "DEFAULT_PART_SCHEMA",
    "DescriptiveSummary",
    "DistanceMatrix",
    "Entity",
    "IndicatorTable",
    "IngestConfig",
    "Link",
    "Part",
    "PathologyReport",
    "RankingResult",
    "RatioDefinition",
    "RenderOptions",
    "aitchison_distance",
    "assignment_csv",
    "clr",
    "clr_matrix",
    "cluster_profile",
    "default_ratio_catalog",
    "describe",
    "distance_matrix",
    "fit_biplot",
    "geometric_mean",
    "hierarchical_cluster",
    "log_ratio_series",
    "make_link",
    "model_to_json",
    "named_ratio",
    "outlier_count",
    "pairwise_log_ratio",
    "parse_table",
    "pathology_report",
    "rank_along_link",
    "ranking_csv",
    "reconstruct",
    "render_biplot",
    "replace_zeros",
    "resolvable_ratios",
    "scale_to_viewport",
    "sector_colors",
    "serialize_table",
    "singular_spectrum",
    "skewness",
    "summarize_table",
    "synthetic_csv",
    "synthetic_table",
    "table_config",
    "validate_table",
    "write_reports",
    "write_synthetic_csv",
    "__version__",
]
