"""Clustering-based covariate shift scoring.

Each group (a domain, a class, or a domain-class cell) is summarized by a
prototype: the mean of the k-means centroids its members fall nearest to.
A group's shift score is mu + tau * sigma over its Euclidean distances to
every other prototype, with sigma the population standard deviation.
Higher scores mark groups that sit farther from the rest of the data.
A prototype follows the group's class mix as well as its features: a domain
whose label priors alone differ moves away from the rest, which raises every
group's score although no class-conditional feature distribution moved.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import _pairwise_sq_dists, kmeans_fit
from .dataset import write_json

DEFAULT_TAU = 2.0
DEFAULT_K_CLUSTERS = 64
# The record fields whose values make up a group; a group's label is
# those values joined by "/".
GROUPINGS = {"domain": ("domain",), "class": ("category",),
             "domain-class": ("domain", "category")}


@dataclass(frozen=True)
class GroupScore:
    label: str
    member_count: int
    deltas: np.ndarray
    mu: float
    sigma: float
    score: float


@dataclass(frozen=True)
class ShiftReport:
    tau: float
    k_clusters: int
    mode: str  # a key of GROUPINGS
    groups: tuple[GroupScore, ...]  # sorted by descending score


def shift_scores(labels: list[str], member_counts: list[int], prototypes: np.ndarray,
                 tau: float = DEFAULT_TAU) -> tuple[GroupScore, ...]:
    """Per-group mu, population sigma, and score = mu + tau * sigma.

    Row i of prototypes (G, D) belongs to labels[i]. Each group's deltas are
    its Euclidean distances to the other G - 1 prototypes, in label order.
    Groups come back sorted by descending score (score ties broken by label).

    With one group at distance d from G - 1 coincident groups, the lone group
    scores d (sigma 0) and each other group d * (1 + tau * sqrt(G - 2)) / (G - 1).
    So at tau = 2 the lone outlier outranks the rest only when G > 6: it ties
    at G = 6 and ranks last at G = 4.
    """
    P = np.asarray(prototypes, dtype=np.float64)
    n_groups = len(labels)
    if len(member_counts) != n_groups or P.shape[0] != n_groups:
        raise ValueError(f"{n_groups} labels, {len(member_counts)} member counts, "
                         f"{P.shape[0]} prototypes")
    if n_groups < 2:
        raise ValueError(f"need >= 2 groups to compare, got {n_groups}")
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    full = np.sqrt(_pairwise_sq_dists(P, P))
    deltas = full[~np.eye(n_groups, dtype=bool)].reshape(n_groups, n_groups - 1)
    mu = deltas.mean(axis=1)
    sigma = np.sqrt(((deltas - mu[:, None]) ** 2).mean(axis=1))  # population divisor
    groups = [
        GroupScore(label=label, member_count=count, deltas=deltas[i],
                   mu=float(mu[i]), sigma=float(sigma[i]),
                   score=float(mu[i]) + tau * float(sigma[i]))
        for i, (label, count) in enumerate(zip(labels, member_counts))
    ]
    return tuple(sorted(groups, key=lambda g: (-g.score, g.label)))


def score_dataset(X: np.ndarray, records, k_clusters: int = DEFAULT_K_CLUSTERS,
                  seed: int = 0, mode: str = "domain",
                  tau: float = DEFAULT_TAU) -> ShiftReport:
    """End-to-end pipeline: kmeans -> per-group prototypes -> scores.

    Row i of X belongs to records[i], and mode (a key of GROUPINGS) names
    the record fields that group it. A group's prototype is the mean of the
    centroids its members are assigned to; groups are ordered by label.
    Input, grouping, labels and tau are checked before the fit.
    """
    X = np.asarray(X)
    if len(records) == 0:
        raise ValueError("empty dataset: no records to group")
    if X.shape[0] != len(records):
        raise ValueError(
            f"alignment mismatch: {X.shape[0]} feature rows, {len(records)} records")
    if mode not in GROUPINGS:
        raise ValueError(f"unknown grouping {mode!r}, choose from {', '.join(GROUPINGS)}")
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    fields = GROUPINGS[mode]
    members: dict[tuple[str, ...], list[int]] = {}
    for i, rec in enumerate(records):
        members.setdefault(tuple(getattr(rec, f) for f in fields), []).append(i)
    keys = sorted(members, key="/".join)
    labels = ["/".join(key) for key in keys]
    for i in range(1, len(keys)):
        if labels[i - 1] == labels[i]:
            raise ValueError(f"label {labels[i]!r} names two {mode} groups, "
                             f"{keys[i - 1]} and {keys[i]}")
    model = kmeans_fit(X, k_clusters=k_clusters, seed=seed)
    prototypes = [model.centroids[model.assignments[members[key]]].mean(axis=0)
                  for key in keys]
    groups = shift_scores(labels, [len(members[key]) for key in keys],
                          np.stack(prototypes), tau)
    return ShiftReport(tau=tau, k_clusters=k_clusters, mode=mode, groups=groups)


def write_shift_report_csv(report: ShiftReport, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "mu", "sigma", "score", "member_count"])
        for g in report.groups:
            writer.writerow([g.label, f"{g.mu:.6f}", f"{g.sigma:.6f}",
                             f"{g.score:.6f}", g.member_count])


def shift_report_to_dict(report: ShiftReport) -> dict:
    return {
        "tau": report.tau,
        "k_clusters": report.k_clusters,
        "mode": report.mode,
        "groups": [
            {
                "group": g.label,
                "mu": g.mu,
                "sigma": g.sigma,
                "score": g.score,
                "member_count": g.member_count,
                "distances": [float(d) for d in g.deltas],
            }
            for g in report.groups
        ],
    }


def write_shift_report_json(report: ShiftReport, path: str | Path) -> None:
    write_json(shift_report_to_dict(report), path)
