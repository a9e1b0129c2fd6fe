"""Descriptive statistics and ratio-pathology diagnostics.

Summaries follow the common quartile convention (linear interpolation at
index (n-1)*p) and sample standard deviation (divisor n-1). The pathology
report compares skewness and Tukey-fence outlier counts of raw ratio values
against their log-ratios: log-ratios of positive data are expected to be far
closer to symmetric, which is what makes them fit for standard multivariate
analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._fmt import csv_fields, fmt_rows
from .composition import (
    IndicatorTable,
    RatioDefinition,
    log_ratio_series,
    named_ratio,
    resolvable_ratios,
)
from .errors import EmptyInput, NonFiniteStatistic, TooFewValues, UnknownPart, ZeroVariance


@dataclass(frozen=True)
class DescriptiveSummary:
    """Five-number summary plus mean and sample sd for one variable."""

    name: str
    n: int
    mean: float
    sd: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


@dataclass(frozen=True)
class RatioPathology:
    """Raw-vs-log asymmetry diagnostics for one named ratio.

    status is "ok" when skewness is computable (n >= 3, non-constant values),
    otherwise "not_applicable" with the reason. Outlier counts need n >= 4
    and are None below that.
    """

    ratio: str
    status: str
    skew_raw: float | None = None
    skew_log: float | None = None
    outliers_raw: int | None = None
    outliers_log: int | None = None
    skew_reduced: bool | None = None
    reason: str | None = None


@dataclass(frozen=True)
class PathologyReport:
    n: int
    entries: tuple[RatioPathology, ...]


def _linear_quantiles(values: np.ndarray, q) -> np.ndarray:
    """``np.quantile(values, q, method="linear")`` of a 1-D float sample.

    The same arithmetic as numpy's own (virtual index (n-1)*q, the top
    index taken as -1, numpy's ``_lerp``), so the results compare equal,
    but on a full sort: np.quantile imports ``numpy.ma`` on first use,
    which made the first call in a fresh process take 10-16 ms instead of
    ~1 ms. Equal values may swap places between a sort and numpy's
    partition, so a -0.0/0.0 pair can differ in sign.
    """
    ordered = np.sort(values)
    virtual = (ordered.size - 1) * np.asarray(q, dtype=float)
    below = np.floor(virtual)
    above = below + 1
    top = virtual >= ordered.size - 1
    below[top] = above[top] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    t = virtual - below
    lo, hi = ordered[below], ordered[above]
    diff = hi - lo
    out = lo + diff * t
    np.subtract(hi, diff * (1 - t), out=out, where=t >= 0.5)
    if np.isnan(ordered[-1]):
        out[:] = ordered[-1]
    return out


def describe(values, name: str = "") -> DescriptiveSummary:
    """Summary statistics of a finite sample.

    Quartiles sit at index (n-1)*p with linear interpolation between
    neighbours; sd uses divisor n-1 and is 0 for a singleton. A statistic
    that overflows float64 (e.g. the sd of values near 1e300) raises
    NonFiniteStatistic naming the column.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise EmptyInput("describe needs at least one value")
    if not np.all(np.isfinite(v)):
        raise EmptyInput("describe needs finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        q = _linear_quantiles(v, [0.0, 0.25, 0.5, 0.75, 1.0])
        sd = float(np.std(v, ddof=1)) if v.size > 1 else 0.0
        mean = float(v.mean())
    summary = DescriptiveSummary(
        name=name,
        n=int(v.size),
        mean=mean,
        sd=sd,
        minimum=float(q[0]),
        q1=float(q[1]),
        median=float(q[2]),
        q3=float(q[3]),
        maximum=float(q[4]),
    )
    for statistic in ("mean", "sd", "q1", "median", "q3"):
        if not math.isfinite(getattr(summary, statistic)):
            raise NonFiniteStatistic(f"column={name},statistic={statistic}")
    return summary


def skewness(values) -> float:
    """Adjusted Fisher-Pearson sample skewness.

    g1 * sqrt(n*(n-1)) / (n-2) with g1 = m3 / m2^(3/2), where m2 and m3 are
    the biased central moments. Needs n >= 3 and a non-constant sample;
    moments that over- or underflow float64 raise NonFiniteStatistic.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 3:
        raise TooFewValues(f"skewness needs n >= 3, got {n}")
    if float(v.max()) == float(v.min()):
        raise ZeroVariance("skewness undefined for a constant sample")
    with np.errstate(all="ignore"):
        d = v - v.mean()
        m2 = np.mean(d * d)
        m3 = np.mean(d * d * d)
        g1 = m3 / m2**1.5
    if not np.isfinite(g1):
        raise NonFiniteStatistic("statistic=skewness")
    return float(g1) * math.sqrt(n * (n - 1)) / (n - 2)


def outlier_count(values, k: float = 1.5) -> int:
    """Count of values outside the Tukey fences [q1 - k*IQR, q3 + k*IQR]."""
    v = np.asarray(values, dtype=float)
    if v.size < 4:
        raise TooFewValues(f"outlier_count needs n >= 4, got {v.size}")
    q1, q3 = _linear_quantiles(v, [0.25, 0.75])
    iqr = q3 - q1
    lo, hi = q1 - k * iqr, q3 + k * iqr
    return int(np.count_nonzero((v < lo) | (v > hi)))


def pathology_report(
    table: IndicatorTable, ratio_defs: Sequence[RatioDefinition]
) -> PathologyReport:
    """Skewness/outlier diagnostics of each ratio in raw vs log form.

    skew_reduced is True when |skew(log values)| < |skew(raw values)|.
    Ratios whose parts are missing from the table, constant ratios,
    too-small samples and moments beyond float64 are reported as not
    applicable rather than failing the whole report.
    """
    entries = []
    for definition in ratio_defs:
        try:
            raw = named_ratio(table, definition)
            logs = log_ratio_series(table, definition)
            skew_raw = skewness(raw)
            skew_log = skewness(logs)
        except (TooFewValues, ZeroVariance, UnknownPart, NonFiniteStatistic) as exc:
            entries.append(
                RatioPathology(
                    ratio=definition.name,
                    status="not_applicable",
                    reason=type(exc).__name__,
                )
            )
            continue
        if table.n >= 4:
            out_raw: int | None = outlier_count(raw)
            out_log: int | None = outlier_count(logs)
        else:
            out_raw = out_log = None
        entries.append(
            RatioPathology(
                ratio=definition.name,
                status="ok",
                skew_raw=skew_raw,
                skew_log=skew_log,
                outliers_raw=out_raw,
                outliers_log=out_log,
                skew_reduced=abs(skew_log) < abs(skew_raw),
            )
        )
    return PathologyReport(n=table.n, entries=tuple(entries))


def describe_csv(summaries: Sequence[DescriptiveSummary]) -> str:
    """CSV rendering with columns name,n,mean,sd,min,q1,median,q3,max."""
    names = csv_fields([s.name for s in summaries])
    prefixes = [f"{name},{s.n}" for name, s in zip(names, summaries)]
    values = [[s.mean, s.sd, s.minimum, s.q1, s.median, s.q3, s.maximum] for s in summaries]
    body = fmt_rows(prefixes, np.reshape(values, (-1, 7)))
    return "name,n,mean,sd,min,q1,median,q3,max\n" + body


def pathology_json(report: PathologyReport) -> dict:
    """JSON-ready document for a pathology report."""
    entries = []
    for e in report.entries:
        doc: dict = {"ratio": e.ratio, "status": e.status}
        if e.status == "ok":
            doc["skew_raw"] = e.skew_raw
            doc["skew_log"] = e.skew_log
            doc["outliers_raw"] = e.outliers_raw
            doc["outliers_log"] = e.outliers_log
            doc["skew_reduced"] = e.skew_reduced
        else:
            doc["reason"] = e.reason
        entries.append(doc)
    return {"n": report.n, "ratios": entries}


def summarize_table(
    table: IndicatorTable, ratio_defs: Sequence[RatioDefinition]
) -> list[DescriptiveSummary]:
    """Summaries of every part column followed by every resolvable ratio.

    Ratios whose parts are missing from the table are skipped silently (the
    pathology report is the place that flags them). A ratio whose value
    overflows float64 for some entity raises NonFiniteStatistic naming it.
    """
    out = [
        describe(table.values[:, d], name=part.name)
        for d, part in enumerate(table.parts)
    ]
    for definition in resolvable_ratios(table, ratio_defs):
        ratio = named_ratio(table, definition)
        if not np.isfinite(ratio).all():
            raise NonFiniteStatistic(f"column={definition.name},statistic=ratio")
        out.append(describe(ratio, name=definition.name))
    return out
