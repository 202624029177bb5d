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
import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import _pairwise_sq_dists, kmeans_fit
from .dataset import write_json

DEFAULT_TAU = 2.0
DEFAULT_K_CLUSTERS = 64


class GroupingMode(str, enum.Enum):
    DOMAIN = "domain"
    CLASS = "class"
    DOMAIN_CLASS = "domain-class"


@dataclass(frozen=True)
class GroupKey:
    mode: GroupingMode
    domain: str | None = None
    category: str | None = None

    def __post_init__(self) -> None:
        want_domain = self.mode in (GroupingMode.DOMAIN, GroupingMode.DOMAIN_CLASS)
        want_category = self.mode in (GroupingMode.CLASS, GroupingMode.DOMAIN_CLASS)
        if (self.domain is not None) != want_domain or \
                (self.category is not None) != want_category:
            raise ValueError(f"fields inconsistent with mode {self.mode.value}: {self}")

    @property
    def label(self) -> str:
        if self.mode is GroupingMode.DOMAIN:
            return self.domain  # type: ignore[return-value]
        if self.mode is GroupingMode.CLASS:
            return self.category  # type: ignore[return-value]
        return f"{self.domain}/{self.category}"


@dataclass(frozen=True)
class GroupScore:
    key: GroupKey
    member_count: int
    deltas: np.ndarray
    mu: float
    sigma: float
    score: float


@dataclass(frozen=True)
class ShiftReport:
    tau: float
    k_clusters: int
    mode: GroupingMode
    groups: tuple[GroupScore, ...]  # sorted by descending score

    def score_of(self, label: str) -> float:
        for g in self.groups:
            if g.key.label == label:
                return g.score
        raise KeyError(label)


def _group_label_fn(mode: GroupingMode):
    if mode is GroupingMode.DOMAIN:
        return lambda r: GroupKey(mode, domain=r.domain)
    if mode is GroupingMode.CLASS:
        return lambda r: GroupKey(mode, category=r.category)
    return lambda r: GroupKey(mode, domain=r.domain, category=r.category)


def shift_scores(keys: list[GroupKey], member_counts: list[int],
                 prototypes: np.ndarray, tau: float = DEFAULT_TAU, *,
                 k_clusters: int = 0,
                 mode: GroupingMode = GroupingMode.DOMAIN) -> ShiftReport:
    """Per-group mu, population sigma, and score = mu + tau * sigma.

    Row i of prototypes (G, D) belongs to keys[i]. Each group's deltas are
    its Euclidean distances to the other G - 1 prototypes, in key order.
    Groups come back sorted by descending score (score ties broken by label).

    With one group at distance d from G - 1 coincident groups, the lone group
    scores d (sigma 0) and each other group d * (1 + tau * sqrt(G - 2)) / (G - 1).
    So at tau = 2 the lone outlier outranks the rest only when G > 6: it ties
    at G = 6 and ranks last at G = 4.
    """
    P = np.asarray(prototypes, dtype=np.float64)
    n_groups = len(keys)
    if len(member_counts) != n_groups or P.shape[0] != n_groups:
        raise ValueError(f"{n_groups} keys, {len(member_counts)} member counts, "
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
        GroupScore(key=key, member_count=count, deltas=deltas[i],
                   mu=float(mu[i]), sigma=float(sigma[i]),
                   score=float(mu[i]) + tau * float(sigma[i]))
        for i, (key, count) in enumerate(zip(keys, member_counts))
    ]
    groups.sort(key=lambda g: (-g.score, g.key.label))
    return ShiftReport(tau=tau, k_clusters=k_clusters, mode=mode, groups=tuple(groups))


def score_dataset(X: np.ndarray, records, k_clusters: int = DEFAULT_K_CLUSTERS,
                  seed: int = 0, mode: GroupingMode = GroupingMode.DOMAIN,
                  tau: float = DEFAULT_TAU) -> ShiftReport:
    """End-to-end pipeline: kmeans -> per-group prototypes -> scores.

    Row i of X belongs to records[i]. A group's prototype is the mean of
    the centroids its members are assigned to; groups are ordered by label.
    Input and tau are checked before the fit.
    """
    X = np.asarray(X)
    if len(records) == 0:
        raise ValueError("empty dataset: no records to group")
    if X.shape[0] != len(records):
        raise ValueError(
            f"alignment mismatch: {X.shape[0]} feature rows, {len(records)} records")
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    model = kmeans_fit(X, k_clusters=k_clusters, seed=seed)
    key_of = _group_label_fn(mode)
    members: dict[GroupKey, list[int]] = {}
    for i, rec in enumerate(records):
        members.setdefault(key_of(rec), []).append(i)
    keys = sorted(members, key=lambda k: k.label)
    prototypes = [model.centroids[model.assignments[members[key]]].mean(axis=0)
                  for key in keys]
    return shift_scores(keys, [len(members[key]) for key in keys], np.stack(prototypes),
                        tau, k_clusters=k_clusters, mode=mode)


def write_shift_report_csv(report: ShiftReport, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "mu", "sigma", "score", "member_count"])
        for g in report.groups:
            writer.writerow([g.key.label, f"{g.mu:.6f}", f"{g.sigma:.6f}",
                             f"{g.score:.6f}", g.member_count])


def shift_report_to_dict(report: ShiftReport) -> dict:
    return {
        "tau": report.tau,
        "k_clusters": report.k_clusters,
        "mode": report.mode.value,
        "groups": [
            {
                "group": g.key.label,
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
