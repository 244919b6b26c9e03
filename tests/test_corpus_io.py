"""Corpus I/O tests: CoNLL-U reading and writing against literal files,
bracket round-trips, synthetic generators, embedding loading, and text
that is not UTF-8."""

import numpy as np
import pytest

from ptrparse.corpus import (POS_CYCLE, gen_synthetic_dep, gen_synthetic_rst,
                             load_embeddings, read_conllu, read_rst_brackets,
                             segmented_from_texts, synthetic_rst_labels,
                             write_conllu, write_rst_brackets)
from ptrparse.errors import EncodingError, LoadError, ParseError, SegmentationError
from ptrparse.scoring import LabelSet
from ptrparse.trees import DepTree, DiscTree, Token, internal, leaf

CONLLU = """\
# sent_id = 1
1\tHe\the\tPRON\tPRP\t_\t2\tnsubj\t_\t_
2\tsleeps\tsleep\tVERB\tVBZ\t_\t0\troot\t_\t_
3\t.\t.\tPUNCT\t.\t_\t2\tpunct\t_\t_

1\tGo\tgo\tVERB\tVB\t_\t0\troot\t_\t_
"""


def test_read_conllu_hand_oracle(tmp_path):
    path = tmp_path / "a.conllu"
    path.write_text(CONLLU)
    items = read_conllu(path)
    assert len(items) == 2
    tokens, tree = items[0]
    assert [t.form for t in tokens] == ["He", "sleeps", "."]
    assert [t.upos for t in tokens] == ["PRON", "VERB", "PUNCT"]
    assert tokens[2].xpos == "."
    assert list(tree.heads) == [2, 0, 2]
    assert list(tree.labels) == ["nsubj", "root", "punct"]
    assert list(items[1][1].heads) == [0]


def test_conllu_roundtrip_preserves_fields(tmp_path):
    src = tmp_path / "in.conllu"
    src.write_text(CONLLU)
    items = read_conllu(src)
    out = tmp_path / "out.conllu"
    write_conllu(out, items)
    again = read_conllu(out)
    assert len(again) == len(items)
    for (ta, wa), (tb, wb) in zip(items, again):
        assert [t.form for t in ta] == [t.form for t in tb]
        assert wa == wb
    # Lemma and xpos columns survive the trip.
    assert "\the\tPRON\tPRP\t" in out.read_text()


def test_write_conllu_for_fresh_trees(tmp_path):
    tokens = [Token("a", "DET"), Token("b", "NOUN")]
    tree = DepTree([2, 0], ["det", "root"])
    out = tmp_path / "f.conllu"
    write_conllu(out, [(tokens, tree)])
    line = out.read_text().splitlines()[0].split("\t")
    assert line == ["1", "a", "_", "DET", "_", "_", "2", "det", "_", "_"]


def test_read_conllu_errors_carry_line_numbers(tmp_path):
    bad_cols = tmp_path / "cols.conllu"
    bad_cols.write_text("1\tonly\tthree\n")
    with pytest.raises(ParseError) as info:
        read_conllu(bad_cols)
    assert "line 1" in str(info.value)

    bad_head = tmp_path / "head.conllu"
    bad_head.write_text("1\ta\t_\tX\t_\t_\t9\tdep\t_\t_\n")
    with pytest.raises(ParseError):
        read_conllu(bad_head)

    bad_seq = tmp_path / "seq.conllu"
    bad_seq.write_text("2\ta\t_\tX\t_\t_\t0\troot\t_\t_\n")
    with pytest.raises(ParseError):
        read_conllu(bad_seq)

    cycle = tmp_path / "cycle.conllu"
    cycle.write_text("1\ta\t_\tX\t_\t_\t2\tdep\t_\t_\n"
                     "2\tb\t_\tX\t_\t_\t1\tdep\t_\t_\n")
    with pytest.raises(ParseError):
        read_conllu(cycle)


def test_read_conllu_lenient_mode(tmp_path):
    path = tmp_path / "l.conllu"
    path.write_text("1\ta\t_\tX\t_\t_\t_\t_\t_\t_\n"
                    "2\tb\t_\tX\t_\t_\t_\t_\t_\t_\n")
    items = read_conllu(path, lenient=True)
    assert list(items[0][1].heads) == [0, 0]
    with pytest.raises(ParseError):
        read_conllu(path)


def test_read_conllu_skips_ranges_and_comments(tmp_path):
    path = tmp_path / "r.conllu"
    path.write_text("# text = del agua\n"
                    "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
                    "1\tde\t_\tADP\t_\t_\t2\tcase\t_\t_\n"
                    "2\tagua\t_\tNOUN\t_\t_\t0\troot\t_\t_\n")
    with pytest.warns(UserWarning):
        items = read_conllu(path)
    assert [t.form for t in items[0][0]] == ["de", "agua"]


def test_read_conllu_missing_trailing_blank_line(tmp_path):
    path = tmp_path / "t.conllu"
    path.write_text("1\ta\t_\tX\t_\t_\t0\troot\t_\t_")
    items = read_conllu(path)
    assert len(items) == 1


def test_bracket_roundtrip(tmp_path):
    tree = DiscTree(internal(leaf(1), internal(leaf(2), leaf(3), "NN", "Joint"),
                             "NS", "Elaboration"))
    texts = ["First idea.", "Second one,", "and a third."]
    path = tmp_path / "trees.brackets"
    write_rst_brackets(path, [(texts, tree)])
    items = read_rst_brackets(path)
    assert len(items) == 1
    got_texts, got_tree = items[0]
    assert got_texts == texts
    assert got_tree == tree
    assert got_tree.root.label == "NS-Elaboration"


def test_bracket_escapes(tmp_path):
    texts = ['He said "stop".', "back\\slash"]
    tree = DiscTree(internal(leaf(1), leaf(2), "NS", "Attribution"))
    path = tmp_path / "esc.brackets"
    write_rst_brackets(path, [(texts, tree)])
    got_texts, got_tree = read_rst_brackets(path)[0]
    assert got_texts == texts


def test_bracket_multiple_trees_one_per_line(tmp_path):
    a = DiscTree(leaf(1))
    b = DiscTree(internal(leaf(1), leaf(2), "SN", "Contrast"))
    path = tmp_path / "two.brackets"
    write_rst_brackets(path, [(["only"], a), (["x", "y"], b)])
    assert len(path.read_text().splitlines()) == 2
    items = read_rst_brackets(path)
    assert items[0][1].m == 1 and items[1][1].m == 2


def test_bracket_parse_errors(tmp_path):
    cases = [
        '(NS-a (EDU 1 "x") (EDU 3 "y"))',        # indices not consecutive
        '(NS-a (EDU 2 "x") (EDU 1 "y"))',        # spans out of order
        '(NS-a (EDU 1 "x")',                     # unbalanced
        '(EDU x "y")',                           # bad index
        '(NS-a (EDU 1 "x") (EDU 2 "y") (EDU 3 "z"))',  # ternary node
    ]
    for i, text in enumerate(cases):
        path = tmp_path / f"bad{i}.brackets"
        path.write_text(text + "\n")
        with pytest.raises(ParseError):
            read_rst_brackets(path)


def test_segmented_from_texts():
    words, ends = segmented_from_texts(["a b", "c", "d e f"])
    assert words == ["a", "b", "c", "d", "e", "f"]
    assert ends == [2, 3, 6]
    with pytest.raises(SegmentationError):
        segmented_from_texts(["a", "   "])


def test_gen_synthetic_dep_deterministic_and_valid():
    a = gen_synthetic_dep(11, 20, max_len=9, vocab_size=50, label_count=4)
    b = gen_synthetic_dep(11, 20, max_len=9, vocab_size=50, label_count=4)
    assert len(a) == 20
    for (ta, wa), (tb, wb) in zip(a, b):
        assert [t.form for t in ta] == [t.form for t in tb]
        assert wa == wb
    for tokens, tree in a:
        assert 1 <= len(tokens) <= 9
        tree.validate()
        assert all(t.upos in POS_CYCLE for t in tokens)
        assert all(label.startswith("dep") for label in tree.labels)
        assert all(form.startswith("w") for form in (t.form for t in tokens))


def test_gen_synthetic_dep_seed_changes_output():
    a = gen_synthetic_dep(1, 10)
    b = gen_synthetic_dep(2, 10)
    assert any(wa != wb or [t.form for t in ta] != [t.form for t in tb]
               for (ta, wa), (tb, wb) in zip(a, b))


def test_synthetic_rst_labels_frozen():
    labels = synthetic_rst_labels(8)
    assert list(labels) == ["NS-r0", "SN-r0", "NN-r0", "NS-r1", "SN-r1", "NN-r1",
                            "NS-r2", "SN-r2"]


def test_gen_synthetic_rst_deterministic_and_valid():
    a = gen_synthetic_rst(11, 20, max_edus=6, label_count=5)
    b = gen_synthetic_rst(11, 20, max_edus=6, label_count=5)
    allowed = set(synthetic_rst_labels(5))
    for (texts_a, tree_a), (texts_b, tree_b) in zip(a, b):
        assert texts_a == texts_b and tree_a == tree_b
        assert 1 <= tree_a.m <= 6
        assert len(texts_a) == tree_a.m
        tree_a.validate()
        for node in tree_a.internal_nodes():
            assert node.label in allowed


def test_load_embeddings(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("cat 1.0 2.0\ndog 3.0 4.0\nbird 5.0 6.0\n")
    weight = np.zeros((3, 2))
    hits, misses = load_embeddings(path, weight, {"cat": 0, "bird": 2})
    assert (hits, misses) == (2, 1)
    assert np.array_equal(weight[0], [1.0, 2.0])
    assert np.array_equal(weight[2], [5.0, 6.0])
    assert np.array_equal(weight[1], [0.0, 0.0])


def test_load_embeddings_dim_mismatch(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("cat 1.0 2.0 3.0\n")
    with pytest.raises(LoadError) as info:
        load_embeddings(path, np.zeros((1, 2)), {"cat": 0})
    assert "line" in str(info.value)


def test_load_embeddings_rejects_non_numbers(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("cat 1.0 2.0\ndog 3.0 four\n")
    with pytest.raises(LoadError, match="line 2"):
        load_embeddings(path, np.zeros((2, 2)), {"cat": 0, "dog": 1})


def test_readers_name_the_first_byte_that_is_not_utf8(tmp_path):
    # Each reader raises EncodingError (a DataError) with the file and the
    # offset of the bad byte, also past the first block a reader buffers.
    pad = "# " + "x" * 9000 + "\n"
    cases = [
        (lambda p: read_conllu(p), pad + CONLLU.replace("sleeps", "sl\udcffeeps")),
        (lambda p: read_rst_brackets(p), '(NS-elab (EDU 1 "a\udcfe b") (EDU 2 "c"))\n'),
        (lambda p: load_embeddings(p, np.zeros((1, 2)), {"cat": 0}), "cat 1.0 2.0\nd\udcffg 1 2\n"),
        (LabelSet.from_file, "NS-elab\nSN-\udcffattr\n"),
    ]
    for read, text in cases:
        path = tmp_path / "bad.txt"
        blob = text.encode("utf-8", "surrogateescape")
        path.write_bytes(blob)
        with pytest.raises(EncodingError) as info:
            read(path)
        offset = blob.index(b"\xff") if b"\xff" in blob else blob.index(b"\xfe")
        assert (info.value.path, info.value.offset) == (path, offset)
        assert f"{path}: byte {offset} is not valid UTF-8" in str(info.value)


def test_readers_accept_crlf_and_cr_newlines(tmp_path):
    path = tmp_path / "a.conllu"
    path.write_text(CONLLU)
    want = read_conllu(path)
    for newline in ("\r\n", "\r"):
        path.write_bytes(CONLLU.replace("\n", newline).encode("utf-8"))
        got = read_conllu(path)
        assert [[t.fields for t in tokens] for tokens, _ in got] == \
            [[t.fields for t in tokens] for tokens, _ in want]
