"""Emotion taxonomy, circumplex coordinates, derived labels, and pair thresholds.

Auxiliary valence and intensity labels are pure functions of the primary
emotion, so a dataset annotated only with emotions trains all three heads.
Opposing (positive, negative) emotion pairs get per-pair probability-sum
thresholds driven by their distance in valence-arousal space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, SchemaError, read_json_object

VALENCE_LABELS = ("positive", "negative", "neutral")
INTENSITY_LABELS = ("high", "low")

POSITIVE, NEGATIVE, NEUTRAL = 0, 1, 2
HIGH, LOW = 0, 1

DEFAULT_EMOTIONS = ("sadness", "joy", "love", "anger", "fear", "surprise")

# (valence, arousal) per default emotion; arousal >= 0.5 marks the
# high-intensity class, valence signs match the positive/negative sets.
DEFAULT_COORDS = {
    "sadness": (-0.7, -0.4),
    "joy": (0.8, 0.5),
    "love": (0.7, -0.1),
    "anger": (-0.6, 0.7),
    "fear": (-0.6, 0.6),
    "surprise": (0.0, 0.8),
}

DEFAULT_TAU0 = 0.8
DEFAULT_SCALE = -0.3

_AROUSAL_HIGH_CUTOFF = 0.5
_NEUTRAL_VALENCE_BAND = 0.1
TAU_CLAMP = (0.05, 0.99)


@dataclass(frozen=True)
class EmotionTaxonomy:
    """Ordered emotion names with positive / negative index sets."""

    emotions: tuple[str, ...]
    positive: tuple[int, ...]
    negative: tuple[int, ...]

    def __post_init__(self):
        n = len(self.emotions)
        if len(set(self.emotions)) != n or n == 0:
            raise ConfigError("emotion names must be non-empty and unique")
        pos, neg = set(self.positive), set(self.negative)
        if pos & neg:
            raise ConfigError("positive and negative sets must be disjoint")
        if not (pos | neg) <= set(range(n)):
            raise ConfigError("valence sets reference emotions outside the taxonomy")

    @property
    def neutral(self) -> tuple[int, ...]:
        tagged = set(self.positive) | set(self.negative)
        return tuple(i for i in range(len(self.emotions)) if i not in tagged)

    def __len__(self) -> int:
        return len(self.emotions)

    def index(self, name: str) -> int:
        try:
            return self.emotions.index(name)
        except ValueError:
            raise SchemaError(f"unknown emotion {name!r}") from None

    def check_index(self, idx: int) -> int:
        if not 0 <= idx < len(self.emotions):
            raise SchemaError(f"emotion index {idx} outside taxonomy of size {len(self.emotions)}")
        return idx


@dataclass(frozen=True)
class CircumplexTable:
    """Per-emotion (valence, arousal) coordinates, both in [-1, 1]."""

    coords: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for v, a in self.coords:
            if not (math.isfinite(v) and math.isfinite(a)):
                raise ConfigError("circumplex coordinates must be finite")
            if not (-1.0 <= v <= 1.0 and -1.0 <= a <= 1.0):
                raise ConfigError(f"coordinate ({v}, {a}) outside [-1, 1]")

    def max_pair_distance(self) -> float:
        n = len(self.coords)
        return max(
            (math.dist(self.coords[i], self.coords[j]) for i in range(n) for j in range(i + 1, n)),
            default=0.0,
        )

    def distance(self, i: int, j: int) -> float:
        """Euclidean distance normalized by the table's maximum pair distance."""
        if not (0 <= i < len(self.coords) and 0 <= j < len(self.coords)):
            raise SchemaError(f"emotion index pair ({i}, {j}) outside the coordinate table")
        top = self.max_pair_distance()
        if top == 0.0:
            return 0.0
        return math.dist(self.coords[i], self.coords[j]) / top


@dataclass(frozen=True)
class ThresholdMatrix:
    """Probability-sum thresholds for every (positive, negative) emotion pair."""

    tau0: float
    scale: float
    tau: dict[tuple[int, int], float]

    def get(self, i: int, j: int) -> float:
        try:
            return self.tau[(i, j)]
        except KeyError:
            raise SchemaError(f"no threshold stored for emotion pair ({i}, {j})") from None


@dataclass(frozen=True)
class LossWeights:
    """Composite-objective weights: two auxiliary-task weights plus the
    exclusivity strength."""

    alpha1: float = 0.3
    alpha2: float = 0.2
    lambda_excl: float = 0.4

    def __post_init__(self):
        if min(self.alpha1, self.alpha2, self.lambda_excl) < 0:
            raise ConfigError("loss weights must be non-negative")


def build_threshold_matrix(
    tau0: float, scale: float, table: CircumplexTable, taxonomy: EmotionTaxonomy
) -> ThresholdMatrix:
    """Thresholds tau0 + scale * distance, clamped into (0.05, 0.99).

    A negative scale gives far-apart pairs a lower threshold, i.e. a tighter
    co-activation budget. Values below 1 keep the penalty reachable: two
    softmax entries can never sum past 1.
    """
    if not 0.0 < tau0 < 1.0:
        raise ConfigError(f"tau0 must lie in (0, 1), got {tau0}")
    lo, hi = TAU_CLAMP
    tau = {
        (i, j): min(hi, max(lo, tau0 + scale * table.distance(i, j)))
        for i in taxonomy.positive
        for j in taxonomy.negative
    }
    return ThresholdMatrix(tau0=tau0, scale=scale, tau=tau)


@dataclass(frozen=True)
class AffectSchema:
    """Taxonomy + coordinates + thresholds, the full label-derivation context."""

    taxonomy: EmotionTaxonomy
    table: CircumplexTable
    thresholds: ThresholdMatrix
    high_intensity: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if len(self.table.coords) != len(self.taxonomy):
            raise ConfigError("coordinate table size must match the taxonomy")
        for i in self.taxonomy.positive:
            if self.table.coords[i][0] <= 0:
                raise ConfigError(f"positive emotion {self.taxonomy.emotions[i]!r} needs valence > 0")
        for i in self.taxonomy.negative:
            if self.table.coords[i][0] >= 0:
                raise ConfigError(f"negative emotion {self.taxonomy.emotions[i]!r} needs valence < 0")
        for i in self.taxonomy.neutral:
            if abs(self.table.coords[i][0]) > _NEUTRAL_VALENCE_BAND:
                raise ConfigError(f"neutral emotion {self.taxonomy.emotions[i]!r} needs valence near 0")

    @classmethod
    def default(cls) -> "AffectSchema":
        return cls.from_jsonable({})

    @classmethod
    def build(cls, emotions, positive, negative, coords, tau0, scale, high=None) -> "AffectSchema":
        emotions = tuple(emotions)
        by_name = {name: i for i, name in enumerate(emotions)}
        missing = [n for n in (*positive, *negative) if n not in by_name]
        if missing:
            raise ConfigError(f"valence sets name unknown emotions: {missing}")
        taxonomy = EmotionTaxonomy(
            emotions=emotions,
            positive=tuple(by_name[n] for n in positive),
            negative=tuple(by_name[n] for n in negative),
        )
        try:
            table = CircumplexTable(coords=tuple(tuple(coords[n]) for n in emotions))
        except KeyError as exc:
            raise ConfigError(f"no circumplex coordinates for emotion {exc}") from None
        if high is None:
            high_idx = tuple(
                i for i, (_, arousal) in enumerate(table.coords) if arousal >= _AROUSAL_HIGH_CUTOFF
            )
        else:
            high_idx = tuple(by_name[n] for n in high)
        thresholds = build_threshold_matrix(tau0, scale, table, taxonomy)
        return cls(taxonomy=taxonomy, table=table, thresholds=thresholds, high_intensity=high_idx)

    @classmethod
    def from_json(cls, path: str | Path) -> "AffectSchema":
        return cls.from_jsonable(read_json_object(path, "schema"))

    @classmethod
    def from_jsonable(cls, raw: dict) -> "AffectSchema":
        """Inverse of ``to_jsonable``; absent fields take the default schema's values."""
        known = {"emotions", "positive", "negative", "coords", "tau0", "scale", "high"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"schema file has unknown fields: {sorted(unknown)}")
        return cls.build(
            emotions=raw.get("emotions", DEFAULT_EMOTIONS),
            positive=raw.get("positive", ("joy", "love")),
            negative=raw.get("negative", ("sadness", "anger", "fear")),
            coords=raw.get("coords", DEFAULT_COORDS),
            tau0=raw.get("tau0", DEFAULT_TAU0),
            scale=raw.get("scale", DEFAULT_SCALE),
            high=raw.get("high"),
        )

    @property
    def names(self) -> tuple[str, ...]:
        return self.taxonomy.emotions

    def to_jsonable(self) -> dict:
        return {
            "emotions": list(self.taxonomy.emotions),
            "positive": [self.taxonomy.emotions[i] for i in self.taxonomy.positive],
            "negative": [self.taxonomy.emotions[i] for i in self.taxonomy.negative],
            "coords": {name: list(self.table.coords[i]) for i, name in enumerate(self.taxonomy.emotions)},
            "tau0": self.thresholds.tau0,
            "scale": self.thresholds.scale,
            "high": [self.taxonomy.emotions[i] for i in self.high_intensity],
        }

    def derive_valence(self, emotion: int) -> int:
        """positive / negative / neutral class index for an emotion index."""
        self.taxonomy.check_index(emotion)
        if emotion in self.taxonomy.positive:
            return POSITIVE
        if emotion in self.taxonomy.negative:
            return NEGATIVE
        return NEUTRAL

    def derive_intensity(self, emotion: int) -> int:
        """high / low class index for an emotion index."""
        self.taxonomy.check_index(emotion)
        return HIGH if emotion in self.high_intensity else LOW

    def affective_distance(self, i: int, j: int) -> float:
        self.taxonomy.check_index(i)
        self.taxonomy.check_index(j)
        return self.table.distance(i, j)
