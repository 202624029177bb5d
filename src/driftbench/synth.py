"""Seeded synthetic multi-domain datasets with controllable covariate shift.

Samples are drawn as class_mean + domain_offset + Gaussian noise, with
class means placed at class_separation * e_y on orthogonal axes so the
classes are provably linearly separable. Noise is drawn before offsets
are applied and its draw order never depends on the offsets, so sweeping
one domain's offset keeps every other row bitwise identical (common
random numbers).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import ClipRecord, FeatureSet, Manifest


def domain_name(i: int) -> str:
    return f"dom{i:02d}"


def category_name(j: int) -> str:
    return f"cat{j:02d}"


def unit_direction(feature_dim: int, name: str) -> np.ndarray:
    """Deterministic unit vector derived from a domain name."""
    digest = hashlib.sha256(name.encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    v = rng.standard_normal(feature_dim)
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class SyntheticSpec:
    n_domains: int
    n_classes: int
    samples_per_cell: int
    feature_dim: int
    class_separation: float = 4.0
    noise_scale: float = 1.0
    domain_offsets: dict[str, np.ndarray] = field(default_factory=dict)
    label_priors: dict[str, tuple[float, ...]] | None = None

    def __post_init__(self) -> None:
        if min(self.n_domains, self.n_classes, self.samples_per_cell,
               self.feature_dim) < 1:
            raise ValueError("all counts must be positive")
        for name in ("class_separation", "noise_scale"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        names = {domain_name(i) for i in range(self.n_domains)}
        for name, offset in self.domain_offsets.items():
            if name not in names:
                raise ValueError(f"offset for unknown domain {name!r}")
            if np.shape(offset) != (self.feature_dim,):
                raise ValueError(
                    f"offset for {name!r} has shape {np.shape(offset)}, "
                    f"expected ({self.feature_dim},)"
                )
            if not np.isfinite(offset).all():
                raise ValueError(f"offset for {name!r} is not finite")
        if self.label_priors is not None:
            for name, prior in self.label_priors.items():
                if name not in names:
                    raise ValueError(f"prior for unknown domain {name!r}")
                prior = np.asarray(prior, dtype=float)
                if prior.shape != (self.n_classes,) or (prior < 0).any() \
                        or abs(prior.sum() - 1.0) > 1e-9:
                    raise ValueError(f"invalid prior for {name!r}: must be a "
                                     f"{self.n_classes}-vector summing to 1")


def _cell_counts(spec: SyntheticSpec, domain: str) -> list[int]:
    """Per-class sample counts for one domain (largest-remainder under a prior)."""
    total = spec.samples_per_cell * spec.n_classes
    if spec.label_priors is None or domain not in spec.label_priors:
        return [spec.samples_per_cell] * spec.n_classes
    prior = np.asarray(spec.label_priors[domain], dtype=float)
    raw = prior * total
    counts = np.floor(raw).astype(int)
    remainder = total - counts.sum()
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[:remainder]] += 1
    return counts.tolist()


def generate(spec: SyntheticSpec, seed: int = 0) -> tuple[Manifest, FeatureSet]:
    """Draw a dataset: manifest records carry the (domain, class) truth."""
    if spec.feature_dim < spec.n_classes:
        raise ValueError(
            f"feature_dim {spec.feature_dim} < n_classes {spec.n_classes}: "
            "orthogonal class means need one axis per class"
        )
    rng = np.random.default_rng(seed)
    counts = {domain_name(d): _cell_counts(spec, domain_name(d)) for d in range(spec.n_domains)}
    values = np.empty((sum(map(sum, counts.values())), 1, spec.feature_dim), dtype=np.float32)
    records: list[ClipRecord] = []
    for dom, cell_counts in counts.items():
        offset = np.asarray(
            spec.domain_offsets.get(dom, np.zeros(spec.feature_dim)), dtype=float)
        for y, count in enumerate(cell_counts):
            cell = rng.standard_normal((count, spec.feature_dim))
            cell *= spec.noise_scale
            mean = np.zeros(spec.feature_dim)
            mean[y] = spec.class_separation
            cell += mean  # noise + mean + offset, in that order, in place
            cell += offset
            values[len(records):len(records) + count, 0] = cell
            cat = category_name(y)
            for j in range(count):
                records.append(ClipRecord(
                    clip_id=f"{dom}-{cat}-{j:04d}", domain=dom,
                    category=cat, row_index=len(records),
                ))
    return Manifest(tuple(records)), FeatureSet(values)


def offset_sweep(base_spec: SyntheticSpec, domain: str, magnitudes,
                 seed: int = 0) -> list[tuple[Manifest, FeatureSet]]:
    """One dataset per magnitude, identical except the target domain's offset.

    The offset direction is the base spec's direction for that domain when
    nonzero, otherwise a deterministic unit vector from the domain name;
    each magnitude rescales it. With a zero base offset, magnitude 0
    reproduces the base dataset exactly.
    """
    names = {domain_name(i) for i in range(base_spec.n_domains)}
    if domain not in names:
        raise ValueError(f"unknown domain {domain!r}; spec has {sorted(names)}")
    base = np.asarray(
        base_spec.domain_offsets.get(domain, np.zeros(base_spec.feature_dim)),
        dtype=float)
    norm = np.linalg.norm(base)
    direction = base / norm if norm > 0 else unit_direction(base_spec.feature_dim, domain)
    datasets = []
    for magnitude in magnitudes:
        offsets = dict(base_spec.domain_offsets)
        offsets[domain] = magnitude * direction
        datasets.append(generate(replace(base_spec, domain_offsets=offsets), seed))
    return datasets
