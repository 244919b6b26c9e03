"""Estimator front-ends with the familiar fit/predict/score protocol.

``DependencyParser`` and ``DiscourseParser`` wrap the training and decoding
pipelines behind constructor hyperparameters stored verbatim, introspectable
``get_params``/``set_params``, fitted attributes with trailing underscores,
and checkpoint-backed ``save``/``load``.  The hyperparameters are the fields
of each parser's config dataclass (``DepConfig``, ``RstConfig``), declared
there once.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .dep import DepConfig, DepModel, config_from_dict, config_to_dict, decode_batch, train_dep
from .encoder import Vocab, check_segmentation
from .errors import ConfigError, DataError, LoadError
from .metrics import score_dep_corpus, score_parseval_corpus
from .rst import RstConfig, RstModel, decode_rst_batch, train_rst
from .scoring import LabelSet
from .trees import Token


class BaseEstimator:
    """Parameter handling and checkpoint round-trip shared by both parsers.

    Constructor keywords are hyperparameters: the fields of ``_config_cls``,
    defaulting to the field defaults, stored as attributes under their own
    names and never modified; an unknown keyword raises ``ConfigError``.
    ``save``/``load`` write and rebuild the fitted model from the class
    attributes: ``_task`` (the checkpoint's task tag), ``_kind`` (its name in
    error messages), ``_model_cls`` and ``_vocab_names`` (the encoder's
    vocabularies, in model-constructor order).
    """

    _config_cls = None
    _task = None
    _kind = None
    _model_cls = None
    _vocab_names = ()

    def __init__(self, **params):
        for spec in fields(self._config_cls):
            setattr(self, spec.name, spec.default)
        self.set_params(**params)

    @classmethod
    def _param_names(cls):
        return [spec.name for spec in fields(cls._config_cls)]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = self._param_names()
        for key, value in params.items():
            if key not in valid:
                raise ConfigError(f"unknown parameter {key!r} for {type(self).__name__}; "
                                  f"valid parameters are {', '.join(valid)}")
            setattr(self, key, value)
        return self

    def _require_fitted(self):
        model = getattr(self, "model_", None)
        if model is None:
            raise ConfigError(f"{type(self).__name__} instance is not fitted yet; "
                              "call fit or load first")
        return model

    def _config(self):
        return self._config_cls(**self.get_params()).validate()

    def save(self, path):
        """Write the fitted model to a deterministic checkpoint file."""
        model = self._require_fitted()
        meta = {"task": self._task, "config": config_to_dict(model.config)}
        for name in self._vocab_names:
            meta[name] = list(getattr(model.encoder, name).tokens)
        meta["labels"] = list(model.labels.names)
        meta["label_hash"] = model.labels.hash
        save_checkpoint(path, ((name, p.data) for name, p in model.parameters()), meta)

    @classmethod
    def load(cls, path):
        """Rebuild a fitted parser from a checkpoint file."""
        params, meta = load_checkpoint(path)
        if meta.get("task") != cls._task:
            raise LoadError(f"{path} holds a {meta.get('task')!r} model, not a {cls._kind}")
        for key in ("config", "labels", "label_hash") + cls._vocab_names:
            if key not in meta:
                raise LoadError(f"{path} metadata is missing {key!r}")
        if not isinstance(meta["config"], dict):
            raise LoadError(f"{path} metadata 'config' is not an object")
        for key in ("labels",) + cls._vocab_names:
            if not (isinstance(meta[key], list) and all(isinstance(s, str) for s in meta[key])):
                raise LoadError(f"{path} metadata {key!r} is not a list of strings")
        try:
            config = config_from_dict(cls._config_cls, meta["config"]).validate()
        except ConfigError as err:
            raise LoadError(f"{path} holds an invalid config: {err}") from err
        try:
            labels = LabelSet(meta["labels"])
            vocabs = [Vocab(meta[name]) for name in cls._vocab_names]
        except DataError as err:
            raise LoadError(f"{path} holds an invalid inventory: {err}") from err
        if labels.hash != meta["label_hash"]:
            raise LoadError(f"{path} label inventory does not match its recorded hash")
        model = cls._model_cls(config, *vocabs, labels, np.random.default_rng(config.seed))
        for name, tensor in model.parameters():
            if name not in params:
                raise LoadError(f"{path} is missing parameter {name!r}")
            if params[name].shape != tensor.data.shape:
                raise LoadError(f"{path} parameter {name!r} has shape {params[name].shape}, "
                                f"expected {tensor.data.shape}")
            tensor.data[...] = params[name]
        parser = cls(**meta["config"])
        parser.model_ = model
        parser.history_ = []
        return parser


def _as_tokens(sentence):
    """Coerce one sentence to a list of Token objects.

    Accepts Token instances, plain strings (POS defaults to "_"), or
    (form, upos) pairs.  A sentence given as one string is a ``DataError``,
    not a sequence of one-character words.
    """
    if isinstance(sentence, str):
        raise DataError(f"sentence {sentence!r} is a string; pass its tokens as a list, "
                        f"such as {sentence.split()!r}")
    tokens = []
    for item in sentence:
        if isinstance(item, Token):
            tokens.append(item)
        elif isinstance(item, str):
            tokens.append(Token(item))
        elif isinstance(item, (tuple, list)) and len(item) == 2:
            tokens.append(Token(item[0], item[1]))
        else:
            raise DataError(f"cannot interpret {item!r} as a token")
    if not tokens:
        raise DataError("empty sentence")
    return tokens


def _as_segmented(sentence):
    """Coerce one segmented sentence to (words, ends).

    Accepts a (words, ends) pair, whose ends may be a list or an integer
    array, or a list of EDUs, each a list of word strings; boundaries are
    validated either way.
    """
    if (isinstance(sentence, tuple) and len(sentence) == 2
            and isinstance(sentence[1], (list, tuple, np.ndarray)) and len(sentence[1])
            and all(isinstance(e, (int, np.integer)) for e in sentence[1])):
        words, ends = list(sentence[0]), list(sentence[1])
    elif all(isinstance(edu, (list, tuple)) for edu in sentence) and sentence:
        words, ends = [], []
        for edu in sentence:
            words.extend(edu)
            ends.append(len(words))
    else:
        raise DataError(f"cannot interpret {sentence!r} as a segmented sentence")
    if not all(isinstance(w, str) for w in words):
        raise DataError("segmented sentence must contain word strings")
    return words, check_segmentation(len(words), ends)


def _paired(X, y, what):
    if y is None:
        raise DataError(f"fit requires gold {what}")
    if len(X) != len(y):
        raise DataError(f"got {len(X)} sentences but {len(y)} {what}")


class DependencyParser(BaseEstimator):
    """Transition-based top-down dependency parser.

    ``fit(X, y)`` takes sentences (lists of Token, string, or (form, upos)
    pairs) and gold ``DepTree`` targets.  ``predict`` returns trees;
    ``score`` returns labeled attachment accuracy as a fraction in [0, 1].
    Constructor keywords are the ``DepConfig`` fields, e.g.
    ``DependencyParser(encoder_hidden=64, epochs=20)``.
    """

    _config_cls = DepConfig
    _task = "dep"
    _kind = "dependency parser"
    _model_cls = DepModel
    _vocab_names = ("word_vocab", "pos_vocab", "char_vocab")

    def fit(self, X, y=None, dev=None, log=None):
        """Train on sentences X with gold trees y; returns self.

        ``dev`` is an optional held-out list of (sentence, tree) pairs used
        for model selection instead of the training data.
        """
        _paired(X, y, "trees")
        items = [(_as_tokens(sentence), tree) for sentence, tree in zip(X, y)]
        dev_items = None
        if dev is not None:
            dev_items = [(_as_tokens(sentence), tree) for sentence, tree in dev]
        self.model_, self.history_ = train_dep(items, self._config(),
                                               dev_items=dev_items, log=log)
        return self

    def predict(self, X, beam_size: int = None):
        """Parse sentences with beam search, all of them together
        (``decode_batch``); the beam size defaults to the configured one, and
        beam size 1 decodes greedily."""
        model = self._require_fitted()
        if beam_size is None:
            beam_size = self.beam_size
        return decode_batch(model, [_as_tokens(sentence) for sentence in X], beam_size=beam_size)

    def evaluate(self, X, y, beam_size: int = None, exclude_punct: bool = True):
        """Full attachment scores (UAS and LAS) against gold trees."""
        _paired(X, y, "trees")
        predicted = self.predict(X, beam_size=beam_size)
        triples = [(_as_tokens(sentence), gold, pred)
                   for sentence, gold, pred in zip(X, y, predicted)]
        return score_dep_corpus(triples, exclude_punct=exclude_punct)

    def score(self, X, y) -> float:
        """Labeled attachment accuracy in [0, 1]."""
        return self.evaluate(X, y).las / 100.0


class DiscourseParser(BaseEstimator):
    """Sentence-level discourse parser over segmented EDU sequences.

    Each input sentence is either a (words, edu_ends) pair or a list of
    EDUs, each a list of word strings.  Targets are ``DiscTree`` instances.
    ``score`` returns relation F1 as a fraction in [0, 1].  Constructor
    keywords are the ``RstConfig`` fields, e.g. ``DiscourseParser(l2=0.0)``.
    """

    _config_cls = RstConfig
    _task = "rst"
    _kind = "discourse parser"
    _model_cls = RstModel
    _vocab_names = ("word_vocab",)

    def fit(self, X, y=None, dev=None, label_set: LabelSet = None, log=None):
        """Train on segmented sentences X with gold trees y; returns self.

        ``label_set`` fixes the label inventory (otherwise it is collected
        from y); ``dev`` holds optional (sentence, tree) selection pairs.
        """
        _paired(X, y, "trees")
        items = [_as_segmented(sentence) + (tree,) for sentence, tree in zip(X, y)]
        dev_items = None
        if dev is not None:
            dev_items = [_as_segmented(sentence) + (tree,) for sentence, tree in dev]
        outcome = train_rst(items, self._config(), dev_items=dev_items,
                            label_set=label_set, log=log)
        self.model_ = outcome.model
        self.history_ = outcome.history
        self.span_state_ = outcome.best_span_state
        self.relation_state_ = outcome.best_relation_state
        return self

    def predict(self, X):
        """Parse segmented sentences into discourse trees, all sentences
        together (``decode_rst_batch``)."""
        model = self._require_fitted()
        return decode_rst_batch(model, [_as_segmented(sentence) for sentence in X])

    def evaluate(self, X, y):
        """Span, nuclearity, and relation F1 against gold trees."""
        _paired(X, y, "trees")
        predicted = self.predict(X)
        return score_parseval_corpus(list(zip(y, predicted)),
                                     include_root=self.include_root)

    def score(self, X, y) -> float:
        """Relation F1 in [0, 1]."""
        return self.evaluate(X, y).relation_f1 / 100.0

    def use_selection(self, which: str):
        """Swap the fitted weights to the best-span or best-relation snapshot."""
        model = self._require_fitted()
        states = {"span": getattr(self, "span_state_", None),
                  "relation": getattr(self, "relation_state_", None)}
        if which not in states:
            raise ConfigError(f"selection must be 'span' or 'relation', got {which!r}")
        if states[which] is None:
            raise ConfigError(f"no {which} selection snapshot available")
        model.restore(states[which])
        return self
