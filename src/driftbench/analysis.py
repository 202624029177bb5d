"""Shift-score vs accuracy correlation, plus published-table fixtures.

The fixtures hold the published per-domain shift statistics and the
lightweight model's per-domain top-1 accuracies, stored verbatim. They
feed two standing checks: every row's mu + 2*sigma must reproduce its
published score to the table's rounding, and the rank correlation
between scores and accuracies over the eight domains is -0.738 (computed
here, not a published number).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Domain -> (mu, sigma, score), published shift-score table, verbatim.
TABLE3_SHIFT_SCORES: dict[str, tuple[float, float, float]] = {
    "India": (6.30, 0.24, 6.78),
    "FRL": (1.72, 2.09, 5.90),
    "US-Minnesota": (1.45, 2.05, 5.55),
    "UK": (1.41, 1.96, 5.33),
    "Saudi Arabia": (1.34, 1.99, 5.32),
    "US-CMU": (1.41, 1.95, 5.31),
    "Italy": (1.34, 1.98, 5.30),
    "Japan": (1.53, 1.86, 5.25),
}

# Domain -> top-1 accuracy (%), published per-domain results for the
# two-layer model. Abbreviated column headings (US-Minn., Saudi) are
# normalized to the long domain names used by the shift-score table.
TABLE5_MLP_LITE_ACCURACY: dict[str, float] = {
    "US-Minnesota": 49.47,
    "Japan": 77.73,
    "FRL": 36.16,
    "Saudi Arabia": 53.55,
    "Italy": 51.95,
    "US-CMU": 52.12,
    "UK": 65.36,
    "India": 45.83,
}


@dataclass(frozen=True)
class Correlation:
    pairs: tuple[tuple[str, float, float], ...]  # (domain, score, accuracy), by domain
    spearman: float
    pearson: float


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # 1-based position of each value's last copy
    return (ends - (counts - 1) / 2.0)[inverse]


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise ValueError(f"need at least 2 points, got {len(x)}")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("correlation undefined for constant input")
    # exact power-of-two scales: no bit moves, and corrcoef's products stay finite
    x, y = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (x, y))
    return float(np.corrcoef(x, y)[0, 1])


def spearman(x, y) -> float:
    """Tie-aware rank correlation: Pearson over average ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise ValueError(f"need at least 3 points, got {len(x)}")
    return pearson(_average_ranks(x), _average_ranks(y))


def correlate_shift_accuracy(scores: dict[str, float],
                             accuracies: dict[str, float]) -> Correlation:
    """Spearman and Pearson between per-group scores and accuracies.

    Pairs are aligned by group/domain name; the two name sets must match.
    """
    only_shift = sorted(set(scores) - set(accuracies))
    only_eval = sorted(set(accuracies) - set(scores))
    if only_shift or only_eval:
        raise ValueError(
            f"domain mismatch: only in shift report {only_shift}, "
            f"only in eval report {only_eval}"
        )
    names = sorted(scores)
    x = np.array([scores[n] for n in names])
    y = np.array([accuracies[n] for n in names])
    pairs = tuple((n, float(scores[n]), float(accuracies[n])) for n in names)
    return Correlation(pairs, spearman=spearman(x, y), pearson=pearson(x, y))


@dataclass(frozen=True)
class Table3RowCheck:
    domain: str
    computed: float
    published: float
    passed: bool


def check_table3_consistency(
        table3: dict[str, tuple[float, float, float]] = TABLE3_SHIFT_SCORES,
        tolerance: float = 0.01) -> list[Table3RowCheck]:
    """Per row: does mu + 2*sigma reproduce the published score? Never raises."""
    results = []
    for domain, (mu, sigma, score) in table3.items():
        computed = mu + 2.0 * sigma
        results.append(Table3RowCheck(
            domain=domain, computed=computed, published=score,
            passed=abs(computed - score) <= tolerance,
        ))
    return results


def fixture_spearman() -> float:
    """Rank correlation between published shift scores and accuracies."""
    scores = {d: row[2] for d, row in TABLE3_SHIFT_SCORES.items()}
    return correlate_shift_accuracy(scores, TABLE5_MLP_LITE_ACCURACY).spearman

