"""Corpus loading, vocabulary building, batch encoding, and augmentation.

Input corpora are JSON-lines files with ``text`` and ``label`` fields; the
emotion loader derives valence/intensity labels from the schema, the
mental-health loader reads an optional per-line severity field instead.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .affect import AffectSchema
from .errors import ConfigError, DataError, SchemaError, string_list

CLS_TOKEN, PAD_TOKEN, UNK_TOKEN = "[CLS]", "[PAD]", "[UNK]"
CLS_ID, PAD_ID, UNK_ID = 0, 1, 2
SPECIALS = (CLS_TOKEN, PAD_TOKEN, UNK_TOKEN)

UNLABELED = -1

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")  # an undecodable byte, as errors="surrogateescape" reads it

_TRAIN_SPLITS = {"train"}
_VALIDATION_SPLITS = {"validation", "val", "dev", "test"}


def tokenize(text: str) -> list[str]:
    """Lowercase tokens: alphanumeric runs plus single punctuation marks."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class LabeledExample:
    """One classification example; the primary label is an index into the
    active taxonomy (emotion or mental-health category)."""

    text: str
    emotion: int
    valence: int | None = None
    intensity: int | None = None
    split: str | None = None

    @property
    def is_train(self) -> bool:
        return self.split is None or self.split in _TRAIN_SPLITS

    @property
    def is_validation(self) -> bool:
        return self.split is not None and self.split in _VALIDATION_SPLITS


@dataclass(frozen=True)
class MHLabelSchema:
    """Mental-health label schema: category names plus the name of the
    optional per-line severity field."""

    categories: tuple[str, ...] = ("depression", "anxiety", "bipolar", "suicidewatch", "offmychest")
    intensity_field: str = "intensity"
    severity_levels: int = 3

    def __post_init__(self):
        if len(set(self.categories)) != len(self.categories) or not self.categories:
            raise ConfigError("category names must be non-empty and unique")

    @classmethod
    def default(cls) -> "MHLabelSchema":
        return cls()

    @classmethod
    def from_jsonable(cls, raw: dict) -> "MHLabelSchema":
        """Inverse of ``to_jsonable``; absent fields take their defaults."""
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"label schema has unknown fields: {sorted(unknown)}")
        raw = {**asdict(cls()), **raw}
        categories, field_name, levels = raw["categories"], raw["intensity_field"], raw["severity_levels"]
        if not isinstance(field_name, str):
            raise ConfigError(f"label schema 'intensity_field' must be a string, got {field_name!r}")
        if isinstance(levels, bool) or not isinstance(levels, int) or levels < 1:
            raise ConfigError(f"label schema 'severity_levels' must be a positive integer, got {levels!r}")
        return cls(tuple(string_list(categories, "categories")), field_name, levels)

    @property
    def names(self) -> tuple[str, ...]:
        return self.categories

    def to_jsonable(self) -> dict:
        return asdict(self)


@dataclass
class Vocabulary:
    tokens: tuple[str, ...]  # position == id; starts with the three specials
    min_frequency: int
    token_to_id: dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.token_to_id:
            self.token_to_id = {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def to_jsonable(self) -> dict:
        return {"tokens": list(self.tokens), "min_frequency": self.min_frequency}

    @classmethod
    def from_jsonable(cls, raw: dict) -> "Vocabulary":
        return cls(tokens=tuple(raw["tokens"]), min_frequency=int(raw["min_frequency"]))


def build_vocab(examples: list[LabeledExample], min_freq: int = 1) -> Vocabulary:
    """Frequency-thresholded vocabulary with deterministic id assignment
    (frequency descending, then lexicographic)."""
    if min_freq < 1:
        raise ConfigError(f"min_freq must be >= 1, got {min_freq}")
    if not examples:
        raise ConfigError("cannot build a vocabulary from an empty corpus")
    counts = Counter()
    for ex in examples:
        counts.update(tokenize(ex.text))
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(tokens=SPECIALS + tuple(kept), min_frequency=min_freq)


@dataclass
class Batch:
    token_ids: np.ndarray  # [batch, seq_len] int64
    attention_mask: np.ndarray  # [batch, seq_len] {0,1}
    labels: dict[str, np.ndarray]

    def __len__(self) -> int:
        return self.token_ids.shape[0]

    @property
    def seq_len(self) -> int:
        return self.token_ids.shape[1]


def encode_batch(examples: list[LabeledExample], vocab: Vocabulary, max_len: int) -> Batch:
    """Pad/truncate to exactly ``max_len`` ids per row, [CLS] first.

    Labels travel as parallel arrays: ``primary`` always, ``valence`` and
    ``intensity`` with -1 standing in for absent labels.
    """
    if max_len < 2:
        raise ConfigError(f"max_len must be >= 2, got {max_len}")
    n = len(examples)
    ids = np.full((n, max_len), PAD_ID, dtype=np.int64)
    mask = np.zeros((n, max_len), dtype=np.int64)
    for row, ex in enumerate(examples):
        toks = [CLS_ID] + [vocab.id(t) for t in tokenize(ex.text)]
        toks = toks[:max_len]
        ids[row, : len(toks)] = toks
        mask[row, : len(toks)] = 1
    labels = {
        "primary": np.array([ex.emotion for ex in examples], dtype=np.int64),
        "valence": np.array(
            [UNLABELED if ex.valence is None else ex.valence for ex in examples], dtype=np.int64
        ),
        "intensity": np.array(
            [UNLABELED if ex.intensity is None else ex.intensity for ex in examples], dtype=np.int64
        ),
    }
    return Batch(token_ids=ids, attention_mask=mask, labels=labels)


# -- corpus loading -----------------------------------------------------------


def label_index(label, names: tuple[str, ...], kind: str) -> int:
    """Index of a label given as a name or an integer index into ``names``;
    ``kind`` (``emotion``, ``category``) names the taxonomy in errors."""
    if isinstance(label, str):
        if label not in names:
            raise SchemaError(f"unknown {kind} {label!r}")
        return names.index(label)
    if not isinstance(label, int) or isinstance(label, bool):
        raise DataError(f"label missing or malformed: {label!r}")
    if not 0 <= label < len(names):
        raise SchemaError(f"{kind} index {label} outside taxonomy of size {len(names)}")
    return label


def scan_jsonl(path: str | Path, parse) -> tuple[list, list[tuple[int, str]]]:
    """``parse`` applied to the JSON object on each non-blank line. Returns
    (results, rejected), where rejected holds (line number, reason) pairs for
    lines that are not UTF-8 JSON objects or that ``parse`` rejects with DataError."""
    results, rejected = [], []
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                if _ESCAPED_BYTE.search(line):
                    raise DataError("not valid UTF-8")
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise DataError("line is not a JSON object")
                results.append(parse(obj))
            except (json.JSONDecodeError, DataError) as exc:
                rejected.append((line_no, str(exc)))
    return results, rejected


def _load(path, names, kind, make, skip_bad):
    """Examples ``make(obj, text, label index)`` from a corpus; raises on
    rejected lines unless skip_bad."""

    def parse(obj: dict) -> LabeledExample:
        text = str(obj.get("text", "")).strip()
        if not text:
            raise DataError("empty text")
        split = obj.get("split")
        if not (split is None or (isinstance(split, str) and split in _TRAIN_SPLITS | _VALIDATION_SPLITS)):
            raise DataError(f"split {json.dumps(split)} is not null, \"train\" or one of {sorted(_VALIDATION_SPLITS)}")
        return make(obj, text, label_index(obj.get("label"), names, kind))

    examples, rejected = scan_jsonl(path, parse)
    if rejected and not skip_bad:
        head = "; ".join(f"line {n}: {why}" for n, why in rejected[:5])
        raise DataError(f"{path}: {len(rejected)} rejected line(s): {head}")
    return examples, rejected


def load_corpus(
    path: str | Path, schema: AffectSchema, *, skip_bad: bool = False
) -> tuple[list[LabeledExample], list[tuple[int, str]]]:
    """Emotion-task loader; every accepted example carries derived valence
    and intensity labels. Returns (examples, rejected) where rejected holds
    (line number, reason) pairs; raises DataError instead unless skip_bad."""

    def make(obj: dict, text: str, emotion: int) -> LabeledExample:
        valence, intensity = schema.derive_valence(emotion), schema.derive_intensity(emotion)
        return LabeledExample(text, emotion, valence, intensity, split=obj.get("split"))

    return _load(path, schema.names, "emotion", make, skip_bad)


def load_mh_corpus(
    path: str | Path, labels: MHLabelSchema, *, skip_bad: bool = False
) -> tuple[list[LabeledExample], list[tuple[int, str]]]:
    """Mental-health loader; severity comes from the configured optional
    field and stays None (intensity-unlabeled) when absent."""

    def make(obj: dict, text: str, category: int) -> LabeledExample:
        severity = obj.get(labels.intensity_field)
        # a JSON integer only: bool is an int subclass, and int() would truncate 1.7
        if severity is not None and (type(severity) is not int or not 0 <= severity < labels.severity_levels):
            raise DataError(f"severity {json.dumps(severity)} is not an integer in [0, {labels.severity_levels})")
        return LabeledExample(text, category, intensity=severity, split=obj.get("split"))

    return _load(path, labels.names, "category", make, skip_bad)


def split_examples(
    examples: list[LabeledExample], seed: int, validation_fraction: float = 0.1
) -> tuple[list[LabeledExample], list[LabeledExample]]:
    """Honor per-line split fields when present, else a seeded shuffle split."""
    if any(ex.split is not None for ex in examples):
        train = [ex for ex in examples if ex.is_train]
        validation = [ex for ex in examples if ex.is_validation]
        if not validation:
            raise DataError("corpus declares split fields but no validation rows")
        return train, validation
    order = np.random.default_rng([seed, 0x5EED]).permutation(len(examples))
    n_val = max(1, int(round(len(examples) * validation_fraction)))
    val_idx = set(order[:n_val].tolist())
    train = [ex for i, ex in enumerate(examples) if i not in val_idx]
    validation = [ex for i, ex in enumerate(examples) if i in val_idx]
    return train, validation


# -- augmentation -------------------------------------------------------------


def load_synonyms(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Comma-separated synonym rows -> token to alternatives map."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"lexicon file {path} is not valid UTF-8: {exc}") from None
    lexicon: dict[str, tuple[str, ...]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        row = [w.strip().lower() for w in line.split(",") if w.strip()]
        if len(row) < 2:
            continue
        for word in row:
            others = tuple(w for w in row if w != word)
            if word in lexicon:
                others = tuple(dict.fromkeys(lexicon[word] + others))
            lexicon[word] = others
    return lexicon


def default_lexicon() -> dict[str, tuple[str, ...]]:
    ref = resources.files("cmhl.resources").joinpath("synonyms.txt")
    with resources.as_file(ref) as path:
        return load_synonyms(path)


def augment(
    example: LabeledExample,
    rng: np.random.Generator,
    p_syn: float,
    p_del: float,
    lexicon: dict[str, tuple[str, ...]],
) -> LabeledExample:
    """Synonym substitution then random deletion; labels never change.

    Deletion keeps at least one token: when every token draws a deletion,
    the final token survives.
    """
    if not 0.0 <= p_syn <= 1.0 or not 0.0 <= p_del <= 1.0:
        raise ConfigError("augmentation probabilities must lie in [0, 1]")
    if p_syn == 0.0 and p_del == 0.0:
        return example
    tokens = tokenize(example.text)
    if not tokens:
        return example
    substituted = []
    for tok in tokens:
        options = lexicon.get(tok)
        if options and rng.random() < p_syn:
            tok = options[rng.integers(len(options))]
        substituted.append(tok)
    survivors = [tok for tok in substituted if rng.random() >= p_del]
    if not survivors:
        survivors = [substituted[-1]]
    return replace(example, text=" ".join(survivors))


def augmentation_rng(seed: int, epoch: int, example_index: int) -> np.random.Generator:
    """Schedule-independent generator: identical regardless of worker layout."""
    return np.random.default_rng([seed, epoch, example_index])
