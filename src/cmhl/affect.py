"""Emotion taxonomy, circumplex coordinates, derived labels, and pair thresholds.

Auxiliary valence and intensity labels are pure functions of the primary
emotion, so a dataset annotated only with emotions trains all three heads.
Opposing (positive, negative) emotion pairs get per-pair probability-sum
thresholds driven by their distance in valence-arousal space.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SchemaError, json_object, string_list

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

    def check_index(self, idx: int) -> int:
        if not 0 <= idx < len(self.emotions):
            raise SchemaError(f"emotion index {idx} outside taxonomy of size {len(self.emotions)}")
        return idx


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


def _finite(value) -> bool:
    """Whether ``value`` is a JSON number that a float holds finitely (True is an int to Python)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class AffectSchema:
    """Taxonomy, per-emotion (valence, arousal) coordinates in [-1, 1] and the
    opposing-pair thresholds: the full label-derivation and hinge context.

    ``tau[a, b]`` is the probability-sum threshold of the pair
    (``taxonomy.positive[a]``, ``taxonomy.negative[b]``): tau0 + scale *
    distance, clamped into [0.05, 0.99]. A negative scale gives far-apart
    pairs a lower threshold, i.e. a tighter co-activation budget. Values
    below 1 keep the penalty reachable: two softmax entries can never sum
    past 1. ``tau`` is built once, from the other fields.
    """

    taxonomy: EmotionTaxonomy
    coords: tuple[tuple[float, float], ...]
    tau0: float
    scale: float
    high_intensity: tuple[int, ...] = ()
    tau: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coords) != len(self.taxonomy):
            raise ConfigError("coordinate table size must match the taxonomy")
        for v, a in self.coords:
            if not (-1.0 <= v <= 1.0 and -1.0 <= a <= 1.0):  # also false for nan
                raise ConfigError(f"coordinate ({v}, {a}) outside [-1, 1]")
        for i in self.taxonomy.positive:
            if self.coords[i][0] <= 0:
                raise ConfigError(f"positive emotion {self.taxonomy.emotions[i]!r} needs valence > 0")
        for i in self.taxonomy.negative:
            if self.coords[i][0] >= 0:
                raise ConfigError(f"negative emotion {self.taxonomy.emotions[i]!r} needs valence < 0")
        for i in self.taxonomy.neutral:
            if abs(self.coords[i][0]) > _NEUTRAL_VALENCE_BAND:
                raise ConfigError(f"neutral emotion {self.taxonomy.emotions[i]!r} needs valence near 0")
        if not 0.0 < self.tau0 < 1.0:
            raise ConfigError(f"tau0 must lie in (0, 1), got {self.tau0}")
        lo, hi = TAU_CLAMP
        pos, neg = self.taxonomy.positive, self.taxonomy.negative
        tau = np.array(
            [[min(hi, max(lo, self.tau0 + self.scale * self.distance(i, j))) for j in neg] for i in pos]
        ).reshape(len(pos), len(neg))
        tau.flags.writeable = False  # shared by every loss call
        object.__setattr__(self, "tau", tau)

    @classmethod
    def default(cls) -> "AffectSchema":
        return cls.from_jsonable({})

    @classmethod
    def build(cls, emotions, positive, negative, coords, tau0, scale, high=None) -> "AffectSchema":
        emotions = tuple(emotions)
        by_name = {name: i for i, name in enumerate(emotions)}

        def indices(names, key: str) -> tuple[int, ...]:
            missing = [n for n in names if n not in by_name]
            if missing:
                raise ConfigError(f"{key!r} names unknown emotions: {missing}")
            return tuple(by_name[n] for n in names)

        taxonomy = EmotionTaxonomy(emotions, indices(positive, "positive"), indices(negative, "negative"))
        try:
            points = tuple(tuple(coords[n]) for n in emotions)
        except KeyError as exc:
            raise ConfigError(f"no circumplex coordinates for emotion {exc}") from None
        if high is None:
            high_idx = tuple(i for i, (_, arousal) in enumerate(points) if arousal >= _AROUSAL_HIGH_CUTOFF)
        else:
            high_idx = indices(high, "high")
        return cls(taxonomy=taxonomy, coords=points, tau0=tau0, scale=scale, high_intensity=high_idx)

    @classmethod
    def from_jsonable(cls, raw: dict) -> "AffectSchema":
        """Inverse of ``to_jsonable``; absent fields take the default schema's values."""
        known = {"emotions", "positive", "negative", "coords", "tau0", "scale", "high"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"schema file has unknown fields: {sorted(unknown)}")
        coords = json_object(raw.get("coords", DEFAULT_COORDS), "coords")
        for name, point in coords.items():
            if not (isinstance(point, (list, tuple)) and len(point) == 2 and all(map(_finite, point))):
                raise ConfigError(f"'coords.{name}' must be two finite numbers, got {point!r}")
        tau0, scale = raw.get("tau0", DEFAULT_TAU0), raw.get("scale", DEFAULT_SCALE)
        for key, value in (("tau0", tau0), ("scale", scale)):
            if not _finite(value):
                raise ConfigError(f"{key!r} must be a finite number, got {value!r}")
        high = raw.get("high")
        return cls.build(
            emotions=string_list(raw.get("emotions", DEFAULT_EMOTIONS), "emotions"),
            positive=string_list(raw.get("positive", ("joy", "love")), "positive"),
            negative=string_list(raw.get("negative", ("sadness", "anger", "fear")), "negative"),
            coords=coords,
            tau0=tau0,
            scale=scale,
            high=None if high is None else string_list(high, "high"),
        )

    def distance(self, i: int, j: int) -> float:
        """Euclidean distance between two emotions' coordinates, over the largest pair distance."""
        n = len(self.coords)
        if not (0 <= i < n and 0 <= j < n):
            raise SchemaError(f"emotion index pair ({i}, {j}) outside the coordinate table")
        top = max((math.dist(self.coords[a], self.coords[b]) for a in range(n) for b in range(a + 1, n)), default=0.0)
        if top == 0.0:
            return 0.0
        return math.dist(self.coords[i], self.coords[j]) / top

    @property
    def names(self) -> tuple[str, ...]:
        return self.taxonomy.emotions

    def to_jsonable(self) -> dict:
        return {
            "emotions": list(self.taxonomy.emotions),
            "positive": [self.taxonomy.emotions[i] for i in self.taxonomy.positive],
            "negative": [self.taxonomy.emotions[i] for i in self.taxonomy.negative],
            "coords": {name: list(self.coords[i]) for i, name in enumerate(self.taxonomy.emotions)},
            "tau0": self.tau0,
            "scale": self.scale,
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
