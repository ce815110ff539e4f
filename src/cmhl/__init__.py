"""CMHL: emotionally consistent multi-task text classification kit."""

from .affect import AffectSchema, LossWeights
from .data import MHLabelSchema, Vocabulary, build_vocab, load_corpus, load_mh_corpus
from .encoder import Encoder, EncoderConfig, Model
from .heads import EmotionModel
from .mh import MHModel
from .training import TrainConfig, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "AffectSchema",
    "LossWeights",
    "MHLabelSchema",
    "Vocabulary",
    "build_vocab",
    "load_corpus",
    "load_mh_corpus",
    "Encoder",
    "EncoderConfig",
    "Model",
    "EmotionModel",
    "MHModel",
    "TrainConfig",
    "train",
    "evaluate",
]
