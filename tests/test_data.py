"""Corpus loading, vocabulary, batch encoding, and augmentation behavior."""

import dataclasses
import json
import re

import numpy as np
import pytest

from cmhl.affect import HIGH, POSITIVE, AffectSchema
from cmhl.data import (
    CLS_ID,
    PAD_ID,
    UNK_ID,
    LabeledExample,
    MHLabelSchema,
    augment,
    augmentation_rng,
    build_vocab,
    default_lexicon,
    encode_batch,
    label_index,
    load_corpus,
    load_mh_corpus,
    load_synonyms,
    split_examples,
    tokenize,
)
from cmhl.errors import ConfigError, DataError
from cmhl.training import read_schema


@pytest.fixture(scope="module")
def schema():
    return AffectSchema.default()


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


class TestLoadCorpus:
    def test_labels_derived(self, tmp_path, schema):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"text": "i feel great", "label": "joy"}])
        examples, rejected = load_corpus(path, schema)
        assert not rejected
        ex = examples[0]
        assert ex.emotion == schema.names.index("joy")
        assert ex.valence == POSITIVE
        assert ex.intensity == HIGH

    def test_empty_file(self, tmp_path, schema):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        examples, rejected = load_corpus(path, schema)
        assert examples == [] and rejected == []

    def test_bad_label_among_good(self, tmp_path, schema):
        rows = [{"text": f"sample {i}", "label": "anger"} for i in range(9)]
        rows.insert(4, {"text": "mystery", "label": "melancholy"})
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        examples, rejected = load_corpus(path, schema, skip_bad=True)
        assert len(examples) == 9
        assert len(rejected) == 1
        line_no, reason = rejected[0]
        assert line_no == 5 and "melancholy" in reason

    def test_rejections_raise_without_skip(self, tmp_path, schema):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"text": "", "label": "joy"}])
        with pytest.raises(DataError):
            load_corpus(path, schema)

    def test_integer_labels_accepted(self, tmp_path, schema):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"text": "hello", "label": 1}])
        examples, _ = load_corpus(path, schema)
        assert examples[0].emotion == 1

    def test_boolean_label_rejected(self, tmp_path, schema):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"text": "hello", "label": True}, {"text": "hi", "label": 1}])
        examples, rejected = load_corpus(path, schema, skip_bad=True)
        assert [ex.emotion for ex in examples] == [1]
        assert rejected == [(1, "label missing or malformed: True")]

    def test_non_object_line_rejected(self, tmp_path, schema):
        path = tmp_path / "c.jsonl"
        path.write_text('[1, 2]\n"joy"\n{"text": "hi", "label": "joy"}\n')
        examples, rejected = load_corpus(path, schema, skip_bad=True)
        assert len(examples) == 1
        assert rejected == [(1, "line is not a JSON object"), (2, "line is not a JSON object")]

    @pytest.mark.parametrize("split", ["holdout", 7, ["train"], True])
    def test_unknown_split_rejected(self, tmp_path, schema, split):
        """A split other than null, "train" or a validation name is a rejected line, never silently dropped."""
        rows = [{"text": "a", "label": "joy", "split": "train"}, {"text": "b", "label": "fear", "split": split},
                {"text": "c", "label": "love", "split": "dev"}, {"text": "d", "label": "anger"}]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        examples, rejected = load_corpus(path, schema, skip_bad=True)
        assert [ex.text for ex in examples] == ["a", "c", "d"]
        assert [n for n, _ in rejected] == [2] and json.dumps(split) in rejected[0][1]
        with pytest.raises(DataError, match="line 2: split"):
            load_corpus(path, schema)

    def test_count_accounting(self, tmp_path, schema):
        rows = [{"text": "x", "label": "joy"}, {"text": "y", "label": "nope"}, {"text": "z", "label": "fear"}]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        examples, rejected = load_corpus(path, schema, skip_bad=True)
        assert len(examples) + len(rejected) == 3


class TestMhCorpus:
    def test_optional_severity(self, tmp_path):
        labels = MHLabelSchema()
        path = tmp_path / "mh.jsonl"
        write_jsonl(
            path,
            [
                {"text": "post one", "label": "anxiety", "intensity": 2},
                {"text": "post two", "label": "depression"},
            ],
        )
        examples, _ = load_mh_corpus(path, labels)
        assert examples[0].intensity == 2
        assert examples[1].intensity is None

    def test_severity_out_of_range(self, tmp_path):
        path = tmp_path / "mh.jsonl"
        write_jsonl(path, [{"text": "post", "label": "anxiety", "intensity": 5}])
        with pytest.raises(DataError):
            load_mh_corpus(path, MHLabelSchema())

    @pytest.mark.parametrize("severity,shown", [("high", '"high"'), (1.7, "1.7"), (True, "true"), (-1, "-1"), (3, "3")])
    def test_severity_must_be_integer_in_range(self, tmp_path, severity, shown):
        path = tmp_path / "mh.jsonl"
        write_jsonl(path, [{"text": "post", "label": "anxiety", "intensity": 2},
                           {"text": "post", "label": "anxiety", "intensity": severity}])
        examples, rejected = load_mh_corpus(path, MHLabelSchema(), skip_bad=True)
        assert [ex.intensity for ex in examples] == [2]
        assert rejected == [(2, f"severity {shown} is not an integer in [0, 3)")]
        with pytest.raises(DataError, match=re.escape(shown)):
            load_mh_corpus(path, MHLabelSchema())

    def test_custom_intensity_field(self, tmp_path):
        labels = MHLabelSchema(intensity_field="severity")
        path = tmp_path / "mh.jsonl"
        write_jsonl(path, [{"text": "post", "label": "bipolar", "severity": 1}])
        examples, _ = load_mh_corpus(path, labels)
        assert examples[0].intensity == 1


    def test_boolean_label_rejected(self, tmp_path):
        path = tmp_path / "mh.jsonl"
        write_jsonl(path, [{"text": "post", "label": False}, {"text": "post", "label": True}])
        examples, rejected = load_mh_corpus(path, MHLabelSchema(), skip_bad=True)
        assert examples == []
        assert [why for _, why in rejected] == ["label missing or malformed: False", "label missing or malformed: True"]

    def test_integer_label_range(self, tmp_path):
        path = tmp_path / "mh.jsonl"
        write_jsonl(path, [{"text": "post", "label": 4}, {"text": "post", "label": 9}])
        examples, rejected = load_mh_corpus(path, MHLabelSchema(), skip_bad=True)
        assert [ex.emotion for ex in examples] == [4]
        assert rejected == [(2, "category index 9 outside taxonomy of size 5")]


class TestLabelIndex:
    NAMES = ("low", "mid", "high")

    def test_name_and_index(self):
        assert label_index("mid", self.NAMES, "level") == 1
        assert label_index(2, self.NAMES, "level") == 2

    @pytest.mark.parametrize("label", [True, False, None, 1.0, [1], {"name": "low"}])
    def test_malformed(self, label):
        with pytest.raises(DataError, match="label missing or malformed"):
            label_index(label, self.NAMES, "level")

    @pytest.mark.parametrize("label,message", [("top", "unknown level 'top'"),
                                               (3, "level index 3 outside taxonomy of size 3"),
                                               (-1, "level index -1 outside taxonomy of size 3")])
    def test_unknown(self, label, message):
        with pytest.raises(DataError) as info:
            label_index(label, self.NAMES, "level")
        assert str(info.value) == message


class TestMHLabelSchema:
    CUSTOM = MHLabelSchema(categories=("low", "mid", "high"), intensity_field="sev", severity_levels=4)

    @pytest.mark.parametrize("labels", [MHLabelSchema(), CUSTOM])
    def test_jsonable_round_trip(self, labels):
        assert MHLabelSchema.from_jsonable(labels.to_jsonable()) == labels
        assert MHLabelSchema.from_jsonable(json.loads(json.dumps(labels.to_jsonable()))) == labels

    def test_defaults(self):
        assert MHLabelSchema.from_jsonable({}) == read_schema("mental_health", None) == MHLabelSchema()
        assert MHLabelSchema().names == MHLabelSchema().categories

    def test_from_json(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"categories": ["low", "mid", "high"], "intensity_field": "sev",
                                    "severity_levels": 4}))
        assert read_schema("mental_health", path) == self.CUSTOM

    @pytest.mark.parametrize("text", ["{oops", "[1, 2]"])
    def test_malformed_json_names_file(self, tmp_path, text):
        path = tmp_path / "labels.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            read_schema("mental_health", path)

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="colour"):
            MHLabelSchema.from_jsonable({"categories": ["a"], "colour": 1})


class TestVocabulary:
    def test_threshold_boundary(self):
        examples = [LabeledExample(text="a a b", emotion=0)]
        vocab = build_vocab(examples, min_freq=2)
        assert vocab.id("a") != UNK_ID
        assert vocab.id("b") == UNK_ID

    def test_deterministic_assignment(self):
        examples = [LabeledExample(text="pear plum apple plum", emotion=0)]
        v1 = build_vocab(examples, min_freq=1)
        v2 = build_vocab(examples, min_freq=1)
        assert v1.tokens == v2.tokens
        # frequency desc then lexicographic
        assert v1.tokens[3] == "plum"
        assert v1.tokens[4:] == ("apple", "pear")

    def test_size_with_specials(self):
        text = " ".join(f"tok{i}" for i in range(10))
        vocab = build_vocab([LabeledExample(text=text, emotion=0)], min_freq=1)
        assert len(vocab) == 13

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            build_vocab([], min_freq=1)


class TestExampleTokens:
    def test_tokens_are_tokenized_text(self):
        ex = LabeledExample(text="I can't BELIEVE it -- wow!", emotion=0)
        assert ex.tokens == tuple(tokenize(ex.text))
        changed = dataclasses.replace(ex, text="Something else, entirely")
        assert changed.tokens == tuple(tokenize(changed.text)) != ex.tokens

    def test_frozen_and_interned(self):
        ex = LabeledExample(text="alpha beta", emotion=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ex.text = "gamma"
        other = LabeledExample(text="Beta ALPHA", emotion=1)
        assert other.tokens[1] is ex.tokens[0]  # equal tokens share one string
        assert "tokens" not in repr(ex) and ex == LabeledExample(text="alpha beta", emotion=0)


class TestEncodeBatch:
    def test_cls_padding_and_mask(self):
        vocab = build_vocab([LabeledExample(text="hello world", emotion=0)], min_freq=1)
        batch = encode_batch([LabeledExample(text="Hello hello", emotion=0)], vocab, max_len=4)
        hello = vocab.id("hello")
        np.testing.assert_array_equal(batch.token_ids, [[CLS_ID, hello, hello, PAD_ID]])
        np.testing.assert_array_equal(batch.attention_mask, [[1, 1, 1, 0]])

    def test_packing_maps_derive_from_the_boolean_mask(self):
        vocab = build_vocab([LabeledExample(text="a b c d e", emotion=0)], min_freq=1)
        texts = ["a b", "a b c d e", ""]
        batch = encode_batch([LabeledExample(text=t, emotion=0) for t in texts], vocab, max_len=5)
        assert batch.attention_mask.dtype == bool
        np.testing.assert_array_equal(batch.positions, [0, 1, 2, 0, 1, 2, 3, 4, 0])
        np.testing.assert_array_equal(batch.cls, [0, 3, 8])  # each text's [CLS] among the 9 packed rows

    def test_truncation_to_cap(self):
        text = " ".join(f"w{i}" for i in range(300))
        vocab = build_vocab([LabeledExample(text=text, emotion=0)], min_freq=1)
        batch = encode_batch([LabeledExample(text=text, emotion=0)], vocab, max_len=256)
        assert batch.token_ids.shape == (1, 256)
        assert batch.attention_mask.sum() == 256

    def test_unknown_token_maps_to_unk(self):
        vocab = build_vocab([LabeledExample(text="known", emotion=0)], min_freq=1)
        batch = encode_batch([LabeledExample(text="unknownword", emotion=0)], vocab, max_len=4)
        assert batch.token_ids[0, 1] == UNK_ID

    def test_mask_counts(self):
        vocab = build_vocab([LabeledExample(text="a b c d e", emotion=0)], min_freq=1)
        texts = ["a", "a b c", "a b c d e"]
        batch = encode_batch([LabeledExample(text=t, emotion=0) for t in texts], vocab, max_len=4)
        for row, text in enumerate(texts):
            expected = min(len(tokenize(text)) + 1, 4)
            assert batch.attention_mask[row].sum() == expected

    def test_decode_round_trips_in_vocab_tokens(self):
        vocab = build_vocab([LabeledExample(text="alpha beta gamma", emotion=0)], min_freq=1)
        tokens = tokenize("beta alpha gamma")
        batch = encode_batch([LabeledExample(text="beta alpha gamma", emotion=0)], vocab, max_len=8)
        assert batch.token_ids[0].tolist() == [CLS_ID] + [vocab.id(t) for t in tokens] + [PAD_ID] * 4
        assert [vocab.tokens[i] for i in batch.token_ids[0][1:4]] == tokens

    def test_label_arrays(self):
        vocab = build_vocab([LabeledExample(text="x", emotion=0)], min_freq=1)
        batch = encode_batch(
            [
                LabeledExample(text="x", emotion=2, valence=1, intensity=0),
                LabeledExample(text="x", emotion=4, valence=None, intensity=None),
            ],
            vocab,
            max_len=2,
        )
        np.testing.assert_array_equal(batch.labels["primary"], [2, 4])
        np.testing.assert_array_equal(batch.labels["valence"], [1, -1])
        np.testing.assert_array_equal(batch.labels["intensity"], [0, -1])

    def test_empty_text_becomes_cls_only(self):
        vocab = build_vocab([LabeledExample(text="x", emotion=0)], min_freq=1)
        batch = encode_batch([LabeledExample(text="", emotion=0)], vocab, max_len=3)
        np.testing.assert_array_equal(batch.token_ids, [[CLS_ID, PAD_ID, PAD_ID]])
        np.testing.assert_array_equal(batch.attention_mask, [[1, 0, 0]])

    def test_max_len_lower_bound(self):
        vocab = build_vocab([LabeledExample(text="x", emotion=0)], min_freq=1)
        with pytest.raises(ConfigError):
            encode_batch([LabeledExample(text="x", emotion=0)], vocab, max_len=1)


class TestAugmentation:
    lexicon = {"happy": ("glad", "joyful"), "sad": ("unhappy",)}

    def test_identity_when_disabled(self):
        ex = LabeledExample(text="I am SO happy!", emotion=1)
        out = augment(ex, augmentation_rng(0, 0, 0), 0.0, 0.0, self.lexicon)
        assert out == ex

    def test_full_deletion_keeps_one_token(self):
        ex = LabeledExample(text="one two three four five", emotion=0)
        out = augment(ex, augmentation_rng(0, 0, 0), 0.0, 1.0, self.lexicon)
        assert len(tokenize(out.text)) == 1

    def test_labels_preserved(self):
        rng_args = dict(p_syn=0.5, p_del=0.5, lexicon=self.lexicon)
        ex = LabeledExample(text="happy sad happy sad", emotion=3, valence=1, intensity=0)
        for i in range(20):
            out = augment(ex, augmentation_rng(7, 0, i), **rng_args)
            assert (out.emotion, out.valence, out.intensity) == (3, 1, 0)

    def test_reproducible_bit_for_bit(self):
        ex = LabeledExample(text="happy sad words here", emotion=0)
        a = augment(ex, augmentation_rng(11, 2, 5), 0.3, 0.3, self.lexicon)
        b = augment(ex, augmentation_rng(11, 2, 5), 0.3, 0.3, self.lexicon)
        assert a.text == b.text

    def test_substitution_only_from_lexicon(self):
        ex = LabeledExample(text="quux quux quux", emotion=0)
        out = augment(ex, augmentation_rng(0, 0, 1), 1.0, 0.0, self.lexicon)
        assert tokenize(out.text) == ["quux", "quux", "quux"]

    def test_rederivation_after_augment_is_noop(self, schema):
        ex = LabeledExample(
            text="happy happy joy",
            emotion=schema.names.index("joy"),
            valence=POSITIVE,
            intensity=HIGH,
        )
        out = augment(ex, augmentation_rng(3, 1, 0), 0.5, 0.5, self.lexicon)
        assert schema.derive_valence(out.emotion) == out.valence
        assert schema.derive_intensity(out.emotion) == out.intensity

    def test_bundled_lexicon_loads(self):
        lex = default_lexicon()
        assert len(lex) > 100
        assert "glad" in lex["happy"]
        assert "happy" not in lex["happy"]

    def test_lexicon_file_parsing(self, tmp_path):
        path = tmp_path / "syn.txt"
        path.write_text("# comment\nbig, large\nsolo\n")
        lex = load_synonyms(path)
        assert lex == {"big": ("large",), "large": ("big",)}


class TestSplit:
    def test_split_fields_honored(self):
        examples = [
            LabeledExample(text="a", emotion=0, split="train"),
            LabeledExample(text="b", emotion=0, split="validation"),
            LabeledExample(text="c", emotion=0, split="test"),
        ]
        train, val = split_examples(examples, seed=0)
        assert [e.text for e in train] == ["a"]
        assert {e.text for e in val} == {"b", "c"}

    def test_given_validation_set_wins(self):
        examples = [LabeledExample(text="a", emotion=0, split="train"), LabeledExample(text="b", emotion=0),
                    LabeledExample(text="c", emotion=0, split="validation")]
        held_out = [LabeledExample(text="d", emotion=0)]
        train, val = split_examples(examples, seed=0, validation=held_out)
        assert [e.text for e in train] == ["a", "b"] and val is held_out

    def test_seeded_split_deterministic(self):
        examples = [LabeledExample(text=f"t{i}", emotion=0) for i in range(50)]
        t1, v1 = split_examples(examples, seed=9)
        t2, v2 = split_examples(examples, seed=9)
        assert [e.text for e in t1] == [e.text for e in t2]
        assert [e.text for e in v1] == [e.text for e in v2]
        assert len(v1) == 5 and len(t1) == 45
