"""Shared fixtures: synthetic corpora with learnable token-class structure."""

import dataclasses
import json

import numpy as np
import pytest

from cmhl.affect import AffectSchema, LossWeights
from cmhl.data import LabeledExample, build_vocab
from cmhl.encoder import EncoderConfig
from cmhl.heads import EmotionModel
from cmhl.training import TrainConfig

CLASS_WORDS = {
    "sadness": ("grief", "weeping", "hollow", "mourning"),
    "joy": ("sunshine", "laughing", "celebrate", "delight"),
    "love": ("darling", "tender", "devotion", "embrace"),
    "anger": ("furious", "slammed", "shouting", "rage"),
    "fear": ("trembling", "lurking", "dread", "shiver"),
    "surprise": ("sudden", "unexpected", "gasp", "astonish"),
}

FILLERS = ("i", "feel", "the", "today", "it", "was", "really", "so", "this", "and")


def synthetic_emotion_examples(n: int, seed: int, schema: AffectSchema) -> list[LabeledExample]:
    """Balanced six-class corpus; every text carries three class words and
    three fillers in random order, so classes are cleanly separable."""
    rng = np.random.default_rng(seed)
    names = schema.taxonomy.emotions
    examples = []
    for i in range(n):
        name = names[i % len(names)]
        words = list(rng.choice(CLASS_WORDS[name], size=3, replace=True))
        words += list(rng.choice(FILLERS, size=3, replace=True))
        rng.shuffle(words)
        emotion = schema.names.index(name)
        examples.append(
            LabeledExample(
                text=" ".join(words),
                emotion=emotion,
                valence=schema.derive_valence(emotion),
                intensity=schema.derive_intensity(emotion),
            )
        )
    return examples


def mixed_length_examples(examples: list[LabeledExample]) -> list[LabeledExample]:
    """The same examples cut or repeated to 1..14 tokens in scrambled order,
    so that batching by length permutes them."""
    out = []
    for i, ex in enumerate(examples):
        words = ex.text.split() * 14
        out.append(dataclasses.replace(ex, text=" ".join(words[: 1 + (i * 5) % 14])))
    return out


def long_tail_model(schema: AffectSchema, nan_from: int | None = None):
    """A 128-position emotion model, its vocabulary, 30 mixed-length examples
    whose last three have 120 tokens (so they fill the longest length-sorted
    batch) and a batch-4 eval config; ``pos_emb`` is NaN from position
    ``nan_from`` on, when set."""
    out = mixed_length_examples(synthetic_emotion_examples(30, 2, schema))
    for i in range(len(out) - 3, len(out)):
        out[i] = dataclasses.replace(out[i], text=" ".join((out[i].text.split() * 120)[:120]))
    vocab = build_vocab(out, min_freq=1)
    encoder = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, max_positions=128, dropout=0.0)
    model = EmotionModel.build(encoder, len(vocab), schema, LossWeights(), seed=2)
    if nan_from is not None:
        model.encoder.params["pos_emb"].data[nan_from:] = np.nan
    return model, vocab, out, TrainConfig(batch_size=4, max_seq_len=128)


def contradiction_examples(n: int, seed: int, schema: AffectSchema) -> list[LabeledExample]:
    """Ambiguous fixture: every text mixes joy and anger words; labels split
    evenly between the two, inviting simultaneous high joy/anger mass."""
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        words = list(rng.choice(CLASS_WORDS["joy"], size=2, replace=True))
        words += list(rng.choice(CLASS_WORDS["anger"], size=2, replace=True))
        words += list(rng.choice(FILLERS, size=2, replace=True))
        rng.shuffle(words)
        name = "joy" if i % 2 == 0 else "anger"
        emotion = schema.names.index(name)
        examples.append(
            LabeledExample(
                text=" ".join(words),
                emotion=emotion,
                valence=schema.derive_valence(emotion),
                intensity=schema.derive_intensity(emotion),
            )
        )
    return examples


def write_corpus_jsonl(path, examples, schema: AffectSchema, extra_fields=None) -> None:
    rows = []
    for ex in examples:
        row = {"text": ex.text, "label": schema.taxonomy.emotions[ex.emotion]}
        if ex.split:
            row["split"] = ex.split
        if extra_fields:
            row.update(extra_fields)
        rows.append(json.dumps(row))
    path.write_text("\n".join(rows) + "\n")


@pytest.fixture(scope="session")
def default_schema():
    return AffectSchema.default()
