"""Statistics over batch results: rank correlation, robust regression,
and plot-ready aggregation (2-D histograms, fitted lines, box quartiles).

Everything here consumes the result files the batch driver writes and
produces either scalars or small CSV strings; no plotting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .infogain import VoiRow


class ConstantInputError(ValueError):
    """Rank correlation is undefined when a variable never varies."""


def spearman(xs, ys) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("spearman needs two equal-length 1-d sequences")
    if x.size < 2:
        raise ValueError("spearman needs at least two observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ConstantInputError("rank correlation undefined for constant input")
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[1, 0])


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of the ranks they span."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


@dataclass(frozen=True)
class HuberFit:
    slope: float
    intercept: float
    converged: bool
    iterations: int


def huber_fit(xs, ys, delta: float = 1.35, max_iter: int = 100,
              tol: float = 1e-8) -> HuberFit:
    """Robust line fit by iteratively reweighted least squares.

    Residuals are standardized by their median absolute deviation (scaled
    to sigma under normality); points beyond ``delta`` standardized units
    get downweighted by delta/|u|. Starts from ordinary least squares.
    Zero residual scale means the line already fits exactly. A fit that
    still moves after ``max_iter`` rounds is returned as-is with
    ``converged=False``.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("huber_fit needs two equal-length sequences, n >= 2")
    if np.all(x == x[0]):
        raise ValueError("huber_fit needs non-constant x")
    A = np.column_stack([x, np.ones_like(x)])
    beta = np.linalg.lstsq(A, y, rcond=None)[0]
    for it in range(1, max_iter + 1):
        r = y - A @ beta
        scale = np.median(np.abs(r - np.median(r))) / 0.6745
        if scale == 0.0:
            return HuberFit(float(beta[0]), float(beta[1]), True, it)
        u = np.abs(r) / scale
        w = np.ones_like(u)
        heavy = u > delta
        w[heavy] = delta / u[heavy]
        sw = np.sqrt(w)
        new = np.linalg.lstsq(A * sw[:, None], y * sw, rcond=None)[0]
        if np.max(np.abs(new - beta)) <= tol:
            return HuberFit(float(new[0]), float(new[1]), True, it)
        beta = new
    return HuberFit(float(beta[0]), float(beta[1]), False, max_iter)


@dataclass(frozen=True)
class CorrelationResult:
    x_name: str
    y_name: str
    rho: float
    n: int

    def __post_init__(self):
        if not abs(self.rho) <= 1 + 1e-12:
            raise ValueError("correlation outside [-1, 1]")
        if self.n < 2:
            raise ValueError("correlation needs n >= 2")


# baseline CSV column per studied characteristic
STUDY_PAIRS = (("size", "size"),
               ("duration", "duration_s"),
               ("temporal_entropy", "h_temporal_bits"),
               ("spatial_entropy", "h_spatial_bits"))


def join_gains(voi_rows: Sequence[VoiRow], baseline_rows: Sequence[dict]
               ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """The integrated gains and each studied baseline column, joined on
    trajectory_id (one gain row per trajectory expected) and in id order.
    Ids missing from either side raise, listing them."""
    gains: Dict[str, float] = {}
    for r in voi_rows:
        if r.trajectory_id in gains:
            raise ValueError(
                f"multiple gain rows for trajectory {r.trajectory_id!r}; "
                f"filter to one cell per trajectory before the study")
        gains[r.trajectory_id] = r.ig_bit_seconds
    by_id = {str(b["trajectory_id"]): b for b in baseline_rows}
    missing = sorted(set(gains) ^ set(by_id))
    if missing:
        raise ValueError(f"join keys missing on one side: {missing}")
    if not gains:
        raise ValueError("empty join: no trajectories to correlate")

    ids = sorted(gains)
    return (np.array([gains[i] for i in ids]),
            {column: np.array([float(by_id[i][column]) for i in ids])
             for _, column in STUDY_PAIRS})


def correlation_study(ig: np.ndarray, columns: Dict[str, np.ndarray],
                      ) -> Tuple[List[CorrelationResult], Dict[str, HuberFit]]:
    """Rank correlations of integrated gain against each characteristic,
    from the columns :func:`join_gains` makes, plus a Huber line per
    characteristic for plotting."""
    results = []
    lines: Dict[str, HuberFit] = {}
    for name, column in STUDY_PAIRS:
        vals = columns[column]
        results.append(CorrelationResult(
            x_name="ig", y_name=name, rho=spearman(ig, vals), n=len(ig)))
        lines[name] = huber_fit(vals, ig)
    return results, lines


# --- plot-data emission -------------------------------------------------

def histogram2d_csv(xs, ys, bins: int = 40) -> str:
    """Bin counts over a regular 2-D grid as CSV text."""
    counts, xe, ye = np.histogram2d(np.asarray(xs, dtype=float),
                                    np.asarray(ys, dtype=float), bins=bins)
    lines = ["x_lo,x_hi,y_lo,y_hi,count"]
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            c = int(counts[i, j])
            if c:
                lines.append(f"{xe[i]!r},{xe[i+1]!r},{ye[j]!r},{ye[j+1]!r},{c}")
    return "\n".join(lines) + "\n"


def regression_lines_csv(lines: Dict[str, HuberFit]) -> str:
    out = ["characteristic,slope,intercept,converged,iterations"]
    for name in sorted(lines):
        f = lines[name]
        out.append(f"{name},{f.slope!r},{f.intercept!r},"
                   f"{int(f.converged)},{f.iterations}")
    return "\n".join(out) + "\n"


def correlations_csv(results: Sequence[CorrelationResult]) -> str:
    out = ["x,y,rho,n"]
    for r in results:
        out.append(f"{r.x_name},{r.y_name},{r.rho!r},{r.n}")
    return "\n".join(out) + "\n"


def box_quartiles_csv(voi_rows: Sequence[VoiRow]) -> str:
    """Five-number summary of gain per (prior, kind, parameter) group,
    enough to redraw every box plot."""
    groups: Dict[tuple, list] = {}
    for r in voi_rows:
        groups.setdefault((r.prior, r.kind, r.param), []).append(
            r.ig_bit_seconds)
    out = ["prior,kind,param,n,min,q1,median,q3,max"]
    for (prior, kind, param), vals in sorted(groups.items()):
        q = np.percentile(vals, [0, 25, 50, 75, 100])
        out.append(f"{prior},{kind},{param:g},{len(vals)},"
                   + ",".join(repr(float(v)) for v in q))
    return "\n".join(out) + "\n"
