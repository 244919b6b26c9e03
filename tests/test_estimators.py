"""Estimator protocol tests: parameter plumbing, input coercion, fitting,
prediction, persistence, and selection snapshots."""

from dataclasses import fields

import numpy as np
import pytest

from ptrparse.corpus import gen_synthetic_rst
from ptrparse.dep import DepConfig, config_to_dict
from ptrparse.errors import ConfigError, DataError, LoadError
from ptrparse.estimators import DependencyParser, DiscourseParser
from ptrparse.rst import RstConfig
from ptrparse.scoring import LabelSet
from ptrparse.trees import DepTree, Token

FAST_DEP = dict(word_dim=6, pos_dim=4, char_dim=4, char_filters=5, char_window=3,
                encoder_layers=1, encoder_hidden=8, decoder_layers=1, decoder_hidden=8,
                arc_mlp=8, label_mlp=6, embed_dropout=0.0, recurrent_dropout=0.0,
                layer_dropout=0.0, state_dropout=0.0, mlp_dropout=0.0,
                batch_size=4, epochs=2, beam_size=1, seed=3)

FAST_RST = dict(word_dim=6, encoder_hidden=4, encoder_layers=1, decoder_layers=1,
                rel_mlp=6, embed_dropout=0.0, encoder_dropout=0.0, decoder_dropout=0.0,
                classifier_dropout=0.0, batch_size=4, epochs=2, seed=5, l2=0.0)


def dep_data():
    X = [[("the", "DET"), ("cat", "NOUN"), ("sat", "VERB")],
         [("go", "VERB")],
         [("a", "DET"), ("dog", "NOUN")]]
    y = [DepTree([2, 3, 0], ["det", "nsubj", "root"]),
         DepTree([0], ["root"]),
         DepTree([2, 0], ["det", "root"])]
    return X, y


def rst_data():
    raw = gen_synthetic_rst(9, 6, max_edus=5, label_count=3)
    X = [[text.split() for text in texts] for texts, _ in raw]
    y = [tree for _, tree in raw]
    return X, y


def test_get_params_mirror_init():
    parser = DependencyParser(**FAST_DEP)
    params = parser.get_params()
    assert params["encoder_hidden"] == 8
    assert params["variant"] == "ps"
    assert set(params) > {"lr", "beam_size", "fusion", "seed"}
    for cls, config_cls in ((DependencyParser, DepConfig), (DiscourseParser, RstConfig)):
        assert set(cls().get_params()) == {spec.name for spec in fields(config_cls)}
        assert cls().get_params() == config_to_dict(config_cls())
    assert DiscourseParser(**FAST_RST).l2 == 0.0


def test_set_params_updates_and_rejects_unknown():
    parser = DependencyParser(**FAST_DEP)
    assert parser.set_params(lr=0.5, variant="pst") is parser
    assert parser.lr == 0.5 and parser.variant == "pst"
    with pytest.raises(ConfigError) as info:
        parser.set_params(hidden_size=4)
    assert "hidden_size" in str(info.value)
    for cls in (DependencyParser, DiscourseParser):
        with pytest.raises(ConfigError, match="hidden_size"):
            cls(hidden_size=4)


def test_clone_by_params_roundtrip():
    parser = DependencyParser(**FAST_DEP)
    clone = DependencyParser(**parser.get_params())
    assert clone.get_params() == parser.get_params()


def test_unfitted_predict_raises():
    with pytest.raises(ConfigError):
        DependencyParser(**FAST_DEP).predict([["a"]])
    with pytest.raises(ConfigError):
        DiscourseParser(**FAST_RST).predict([[["a"]]])


def test_dep_fit_predict_score():
    X, y = dep_data()
    parser = DependencyParser(**FAST_DEP).fit(X, y)
    assert parser.model_ is not None
    assert len(parser.history_) == 2
    trees = parser.predict(X)
    assert len(trees) == 3
    for tree, gold in zip(trees, y):
        tree.validate()
        assert tree.n == gold.n
    assert 0.0 <= parser.score(X, y) <= 1.0
    evaluation = parser.evaluate(X, y)
    assert evaluation.total == 6


def test_dep_input_coercions():
    X, y = dep_data()
    parser = DependencyParser(**FAST_DEP).fit(X, y)
    as_strings = parser.predict([["just", "words"]])
    as_tokens = parser.predict([[Token("just", "<unk>"), Token("words", "<unk>")]])
    assert as_strings[0].n == as_tokens[0].n == 2
    with pytest.raises(DataError):
        parser.predict([[]])
    with pytest.raises(DataError):
        parser.predict([[3.14]])
    # One string is not split into one-character words.
    with pytest.raises(DataError, match="'a b c' is a string"):
        parser.predict(["a b c"])


def test_malformed_input_is_a_data_error():
    # Each of these used to end in a raw TypeError or AttributeError.
    X, y = dep_data()
    dep = DependencyParser(**FAST_DEP).fit(X, y)
    for bad in ([[(5, "N")]], [[Token(5)]], [[("the", 5)]], [None], [7]):
        with pytest.raises(DataError):
            dep.predict(bad)
    with pytest.raises(DataError, match="must be a DepTree"):
        DependencyParser(**FAST_DEP).fit(X[:1], ["x"])
    with pytest.raises(DataError, match="must be a DepTree"):
        dep.evaluate(X[:1], ["x"])
    X, y = rst_data()
    rst = DiscourseParser(**FAST_RST).fit(X, y)
    with pytest.raises(DataError):
        rst.predict([None])
    with pytest.raises(DataError, match="must be a DiscTree"):
        DiscourseParser(**FAST_RST).fit(X[:1], ["x"])
    with pytest.raises(DataError, match="must be a DiscTree"):
        rst.evaluate(X[:1], [y[0].root])


def test_dep_predict_rejects_empty_form():
    # An empty word is a data error of that token, for greedy and beam
    # decoding alike, not a char-CNN window error.
    X, y = dep_data()
    parser = DependencyParser(**FAST_DEP).fit(X, y)
    for beam_size in (1, 3):
        with pytest.raises(DataError, match="token 1 has an empty FORM"):
            parser.predict([[""]], beam_size=beam_size)
        with pytest.raises(DataError, match="token 2 has an empty FORM"):
            parser.predict([["the", "", "sat"]], beam_size=beam_size)


def test_fit_requires_matching_targets():
    X, y = dep_data()
    with pytest.raises(DataError):
        DependencyParser(**FAST_DEP).fit(X, None)
    with pytest.raises(DataError):
        DependencyParser(**FAST_DEP).fit(X, y[:1])


def test_invalid_config_caught_at_fit_time():
    X, y = dep_data()
    with pytest.raises(ConfigError):
        DependencyParser(**{**FAST_DEP, "variant": "bad"}).fit(X, y)


def test_dep_predict_beam_override():
    X, y = dep_data()
    parser = DependencyParser(**FAST_DEP).fit(X, y)
    greedy = parser.predict(X, beam_size=1)
    beamed = parser.predict(X, beam_size=3)
    for g, b in zip(greedy, beamed):
        assert g.n == b.n


def test_dep_predict_rejects_bad_beam_sizes():
    # Sizes below 1 used to fall through to greedy decoding silently.
    X, y = dep_data()
    parser = DependencyParser(**FAST_DEP).fit(X, y)
    for beam_size in (0, -3, 2.5, "3", True):
        with pytest.raises(ConfigError, match="beam size"):
            parser.predict(X, beam_size=beam_size)


def test_fit_rejects_non_numeric_target():
    X, y = dep_data()
    with pytest.raises(ConfigError, match="target_uas"):
        DependencyParser(**{**FAST_DEP, "target_uas": "x"}).fit(X, y)


def test_dep_save_load_roundtrip(tmp_path):
    X, y = dep_data()
    parser = DependencyParser(**FAST_DEP).fit(X, y)
    path = tmp_path / "dep.ptp"
    parser.save(path)
    again = DependencyParser.load(path)
    assert again.get_params() == parser.get_params()
    assert parser.predict(X) == again.predict(X)
    parser.save(tmp_path / "dep2.ptp")
    assert (tmp_path / "dep.ptp").read_bytes() == (tmp_path / "dep2.ptp").read_bytes()


def test_dep_load_rejects_wrong_task(tmp_path):
    X, y = rst_data()
    rst = DiscourseParser(**FAST_RST).fit(X, y)
    path = tmp_path / "model.ptp"
    rst.save(path)
    with pytest.raises(LoadError):
        DependencyParser.load(path)


def test_load_detects_label_tampering(tmp_path):
    X, y = dep_data()
    parser = DependencyParser(**FAST_DEP).fit(X, y)
    path = tmp_path / "dep.ptp"
    parser.save(path)
    from ptrparse.checkpoint import load_checkpoint, save_checkpoint
    params, meta = load_checkpoint(path)
    meta["labels"] = ["det", "nsubj", "tampered"]
    save_checkpoint(path, list(params.items()), meta)
    with pytest.raises(LoadError):
        DependencyParser.load(path)


def test_rst_fit_predict_score():
    X, y = rst_data()
    parser = DiscourseParser(**FAST_RST).fit(X, y)
    trees = parser.predict(X)
    for tree, gold in zip(trees, y):
        tree.validate()
        assert tree.m == gold.m
    assert 0.0 <= parser.score(X, y) <= 1.0
    evaluation = parser.evaluate(X, y)
    assert evaluation.gold_nodes >= 0


def test_rst_accepts_words_ends_pairs():
    X, y = rst_data()
    parser = DiscourseParser(**FAST_RST).fit(X, y)
    words = ["a", "b", "c", "d"]
    pair_form = parser.predict([(words, [2, 4])])
    nested_form = parser.predict([[["a", "b"], ["c", "d"]]])
    assert pair_form[0].m == nested_form[0].m == 2
    with pytest.raises(DataError):
        parser.predict([(words, "bad")])
    # Integer arrays of ends are accepted like lists of ints.
    for ends in (np.array([2, 4]), np.array([2, 4], dtype=np.int32)):
        assert parser.predict([(words, ends)])[0].m == 2
    with pytest.raises(DataError):
        parser.predict([(words, np.array([], dtype=np.intp))])


def test_rst_fixed_label_set():
    X, y = rst_data()
    inventory = LabelSet(sorted({node.label for tree in y
                                 for node in tree.internal_nodes()} | {"NS-Extra"}))
    parser = DiscourseParser(**FAST_RST).fit(X, y, label_set=inventory)
    assert parser.model_.labels.names == inventory.names


def test_rst_use_selection_switches_snapshots():
    X, y = rst_data()
    parser = DiscourseParser(**FAST_RST).fit(X, y)
    parser.use_selection("relation")
    relation_first = [p.data.copy() for _, p in parser.model_.parameters()]
    parser.use_selection("span")
    parser.use_selection("relation")
    for a, (_, p) in zip(relation_first, parser.model_.parameters()):
        assert np.array_equal(a, p.data)
    with pytest.raises(ConfigError):
        parser.use_selection("magic")


def test_rst_fit_returns_selected_weights():
    raw = gen_synthetic_rst(4, 10, max_edus=6, label_count=4)
    X = [[text.split() for text in texts] for texts, _ in raw]
    y = [tree for _, tree in raw]
    parser = DiscourseParser(**{**FAST_RST, "epochs": 6, "lr": 0.02}).fit(X, y)
    span_keys = [(row["span"], row["relation"]) for row in parser.history_]
    relation_keys = [(row["relation"], row["span"]) for row in parser.history_]
    best_span, best_relation = max(span_keys), max(relation_keys)
    # The selections score differently, and the best-span epoch is not the last one.
    assert best_span != best_relation[::-1] and best_span != span_keys[-1]
    scores = parser.evaluate(X, y)
    assert (scores.span_f1, scores.relation_f1) == best_span
    scores = parser.use_selection("relation").evaluate(X, y)
    assert (scores.relation_f1, scores.span_f1) == best_relation


def test_rst_save_load_roundtrip(tmp_path):
    X, y = rst_data()
    parser = DiscourseParser(**FAST_RST).fit(X, y)
    path = tmp_path / "rst.ptp"
    parser.save(path)
    again = DiscourseParser.load(path)
    assert parser.predict(X) == again.predict(X)
    assert again.get_params() == parser.get_params()


def test_score_is_fraction_not_percentage():
    X, y = dep_data()
    parser = DependencyParser(**{**FAST_DEP, "epochs": 1}).fit(X, y)
    evaluation = parser.evaluate(X, y)
    assert parser.score(X, y) == pytest.approx(evaluation.las / 100.0)
