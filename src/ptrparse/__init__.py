"""Pointer-network parsing toolkit.

Transition-based top-down dependency parsing and sentence-level discourse
parsing with hierarchical pointer-network decoders, built on a small
reverse-mode automatic differentiation core.
"""

from .dep import DepConfig, decode_batch, decode_beam, decode_greedy, train_dep
from .errors import (ConfigError, DataError, LoadError, MaskError, NumericError,
                     ParseError, PtrParseError, SegmentationError, ShapeError,
                     TrainingError, TreeError)
from .estimators import DependencyParser, DiscourseParser
from .metrics import score_dep_corpus, score_parseval_corpus
from .rst import RstConfig, decode_rst, decode_rst_batch, train_rst
from .scoring import LabelSet
from .trees import DepTree, DiscTree, Token

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "DepConfig", "DepTree", "DependencyParser",
    "DiscTree", "DiscourseParser", "LabelSet", "LoadError", "MaskError",
    "NumericError", "ParseError", "PtrParseError", "RstConfig", "SegmentationError",
    "ShapeError", "Token", "TrainingError", "TreeError", "decode_beam",
    "decode_batch", "decode_greedy", "decode_rst", "decode_rst_batch",
    "score_dep_corpus", "score_parseval_corpus",
    "train_dep", "train_rst", "__version__",
]
