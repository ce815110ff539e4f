"""Taxonomy derivations, circumplex distances, and threshold construction."""

import dataclasses
import math
import re

import numpy as np
import pytest

from cmhl.affect import (
    HIGH,
    LOW,
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    AffectSchema,
    LossWeights,
)
from cmhl.data import label_index
from cmhl.errors import ConfigError, SchemaError
from cmhl.training import read_schema


@pytest.fixture(scope="module")
def schema():
    return AffectSchema.default()


# full six-emotion case sweep for both derivations
CASES = {
    "sadness": (NEGATIVE, LOW),
    "joy": (POSITIVE, HIGH),
    "love": (POSITIVE, LOW),
    "anger": (NEGATIVE, HIGH),
    "fear": (NEGATIVE, HIGH),
    "surprise": (NEUTRAL, HIGH),
}


class TestDerivations:
    @pytest.mark.parametrize("name,expected", CASES.items())
    def test_case_sweep(self, schema, name, expected):
        idx = schema.names.index(name)
        assert (schema.derive_valence(idx), schema.derive_intensity(idx)) == expected

    def test_every_emotion_maps_to_exactly_one_of_each(self, schema):
        for idx in range(len(schema.taxonomy)):
            assert schema.derive_valence(idx) in (POSITIVE, NEGATIVE, NEUTRAL)
            assert schema.derive_intensity(idx) in (HIGH, LOW)

    def test_derivation_is_idempotent(self, schema):
        for idx in range(len(schema.taxonomy)):
            assert schema.derive_valence(idx) == schema.derive_valence(idx)
            assert schema.derive_intensity(idx) == schema.derive_intensity(idx)

    def test_unknown_emotion_rejected(self, schema):
        with pytest.raises(SchemaError):
            schema.derive_valence(99)
        with pytest.raises(SchemaError):
            label_index("ennui", schema.names, "emotion")


class TestAffectiveDistance:
    def test_self_distance_zero(self, schema):
        for idx in range(len(schema.taxonomy)):
            assert schema.distance(idx, idx) == 0.0

    def test_symmetry_and_range(self, schema):
        n = len(schema.taxonomy)
        for i in range(n):
            for j in range(n):
                d = schema.distance(i, j)
                assert d == schema.distance(j, i)
                assert 0.0 <= d <= 1.0

    def test_maximizing_pair_reaches_one(self, schema):
        # brute-force oracle over all 15 unordered pairs of the default table
        coords = schema.coords
        n = len(coords)
        raw = {(i, j): math.dist(coords[i], coords[j]) for i in range(n) for j in range(i + 1, n)}
        best_pair = max(raw, key=raw.get)
        assert schema.distance(*best_pair) == pytest.approx(1.0, abs=1e-15)
        # every other pair is strictly below 1 in the default table
        for pair, dist in raw.items():
            if pair != best_pair:
                assert schema.distance(*pair) < 1.0

    def test_zero_iff_identical_coordinates(self, schema):
        coords = schema.coords
        n = len(coords)
        for i in range(n):
            for j in range(n):
                d = schema.distance(i, j)
                assert (d == 0.0) == (coords[i] == coords[j])


def thresholds(schema, tau0, scale):
    return dataclasses.replace(schema, tau0=tau0, scale=scale).tau


def pair_tau(schema, tau, i, j):
    """The threshold of the (positive i, negative j) pair in ``tau``."""
    return tau[schema.taxonomy.positive.index(i), schema.taxonomy.negative.index(j)]


class TestThresholdMatrix:
    def test_zero_scale_gives_constant(self, schema):
        tau = thresholds(schema, 0.7, 0.0)
        assert set(tau.flat) == {0.7}

    def test_unit_distance_arithmetic(self, schema):
        # tau0 + scale * d at d = 1: 0.8 - 0.3 = 0.5
        tau = thresholds(schema, 0.8, -0.3)
        coords = schema.coords
        n = len(coords)
        raw = {(i, j): math.dist(coords[i], coords[j]) for i in range(n) for j in range(i + 1, n)}
        i, j = max(raw, key=raw.get)
        if i not in schema.taxonomy.positive:
            i, j = j, i
        assert pair_tau(schema, tau, i, j) == pytest.approx(0.5, abs=1e-12)

    def test_default_range(self, schema):
        for value in schema.tau.flat:
            assert 0.5 <= value <= 0.8
            assert 0.0 < value < 1.0

    def test_covers_every_opposing_pair(self, schema):
        expected = {(i, j) for i in schema.taxonomy.positive for j in schema.taxonomy.negative}
        assert schema.tau.shape == (len(schema.taxonomy.positive), len(schema.taxonomy.negative))
        assert schema.tau.size == len(expected)
        assert len(expected) == 6

    def test_negative_scale_non_increasing_in_distance(self, schema):
        tau = thresholds(schema, 0.8, -0.3)
        pairs = sorted(
            ((i, j) for i in schema.taxonomy.positive for j in schema.taxonomy.negative),
            key=lambda p: schema.distance(*p),
        )
        for near, far in zip(pairs, pairs[1:]):
            assert pair_tau(schema, tau, *far) <= pair_tau(schema, tau, *near) + 1e-12

    def test_clamping(self, schema):
        assert thresholds(schema, 0.06, -0.3).min() == pytest.approx(0.05)
        assert thresholds(schema, 0.99, 0.3).max() == pytest.approx(0.99)

    def test_tau0_domain(self, schema):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                thresholds(schema, bad, 0.0)


class TestSchemaConstruction:
    def test_json_round_trip(self, tmp_path, schema):
        path = tmp_path / "schema.json"
        import json

        path.write_text(json.dumps(schema.to_jsonable()))
        loaded = read_schema("emotion", path)
        assert loaded.taxonomy == schema.taxonomy
        assert loaded.coords == schema.coords
        assert np.array_equal(loaded.tau, schema.tau)
        assert loaded.high_intensity == schema.high_intensity

    def test_jsonable_round_trip(self, schema):
        custom = AffectSchema.build(
            emotions=("calm", "glee", "rage"),
            positive=("glee",),
            negative=("rage",),
            coords={"calm": (0.0, -0.5), "glee": (0.9, 0.6), "rage": (-0.8, 0.9)},
            tau0=0.6,
            scale=-0.1,
            high=("rage",),
        )
        for original in (schema, custom):
            assert AffectSchema.from_jsonable(original.to_jsonable()) == original
        assert custom.names == ("calm", "glee", "rage")

    def test_defaults_fill_absent_fields(self, schema):
        assert AffectSchema.from_jsonable({}) == schema

    @pytest.mark.parametrize("text", ["{oops", "[1, 2]"])
    def test_malformed_json_names_file(self, tmp_path, text):
        path = tmp_path / "schema.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            read_schema("emotion", path)

    def test_unknown_schema_field_rejected(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"emotions": ["joy"], "positive": ["joy"], "negative": [], '
                        '"coords": {"joy": [0.8, 0.5]}, "tau0": 0.8, "scale": 0.0, "bogus": 1}')
        with pytest.raises(ConfigError):
            read_schema("emotion", path)

    def test_sign_consistency_enforced(self):
        coords = {"joy": (-0.5, 0.5), "fear": (-0.6, 0.6)}
        with pytest.raises(ConfigError):
            AffectSchema.build(
                emotions=("joy", "fear"),
                positive=("joy",),
                negative=("fear",),
                coords=coords,
                tau0=0.8,
                scale=0.0,
            )

    def test_overlapping_valence_sets_rejected(self):
        with pytest.raises(ConfigError):
            AffectSchema.build(
                emotions=("joy", "fear"),
                positive=("joy",),
                negative=("joy", "fear"),
                coords={"joy": (0.8, 0.5), "fear": (-0.6, 0.6)},
                tau0=0.8,
                scale=0.0,
            )


class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.alpha1, w.alpha2, w.lambda_excl) == (0.3, 0.2, 0.4)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(alpha1=-0.1)
