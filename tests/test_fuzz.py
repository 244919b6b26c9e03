"""Seeded fuzz tests for the file readers and the checkpoint loader.

Each clean file is mutated by truncation, a byte flip, a byte deletion,
and a format-specific break (bad columns, unbalanced brackets).  A mutated
file either loads or raises a ``DataError`` subclass, never another
exception, and the CLI command that reads it exits 0 or 2 to match, with
no traceback.  The format-specific breaks must always raise.
"""

import json
import re
import warnings

import numpy as np
import pytest

from ptrparse.checkpoint import MAGIC, load_checkpoint
from ptrparse.cli import main
from ptrparse.corpus import (gen_synthetic_dep, gen_synthetic_rst, load_embeddings, read_conllu,
                             read_rst_brackets, segmented_from_texts, write_conllu,
                             write_rst_brackets)
from ptrparse.dep import DepConfig, DepModel, build_dep_vocabs, config_to_dict
from ptrparse.errors import DataError, LoadError
from ptrparse.estimators import DependencyParser, DiscourseParser
from ptrparse.rst import RstConfig, RstModel, build_rst_vocab, corpus_label_set

CASES = 48
DEP_CFG = dict(word_dim=3, pos_dim=2, char_dim=2, char_filters=2, encoder_layers=1,
               encoder_hidden=2, decoder_hidden=2, arc_mlp=2, label_mlp=2, epochs=1,
               batch_size=4)
EMBED_DIM = 3


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A small file of each format, and the checkpoints that parse them."""
    root = tmp_path_factory.mktemp("fuzz")
    items = gen_synthetic_dep(3, 3, max_len=5, vocab_size=20, label_count=3)
    write_conllu(root / "clean.conllu", items)
    write_rst_brackets(root / "clean.rst", gen_synthetic_rst(5, 3, max_edus=5, label_count=4))
    words = sorted({token.form for tokens, _ in items for token in tokens})
    (root / "clean.vec").write_text("".join(f"{w} 0.5 -1.25 3e-2\n" for w in words))
    (root / "dep.cfg").write_text("".join(f"{k}={v}\n" for k, v in DEP_CFG.items()))

    config = DepConfig(**DEP_CFG)
    dep = DependencyParser(**config_to_dict(config))
    dep.model_ = DepModel(config, *build_dep_vocabs(items), np.random.default_rng(0))
    dep.save(root / "clean.ptp")
    rst_items = [segmented_from_texts(texts) + (tree,)
                 for texts, tree in read_rst_brackets(root / "clean.rst")]
    rst_config = RstConfig(word_dim=3, encoder_hidden=2, encoder_layers=1, decoder_layers=1,
                           rel_mlp=2)
    rst = DiscourseParser(**config_to_dict(rst_config))
    rst.model_ = RstModel(rst_config, build_rst_vocab(rst_items), corpus_label_set(rst_items),
                          np.random.default_rng(0))
    rst.save(root / "rst.ptp")
    return root


def bad_columns(blob, rng, sep=b"\t"):
    """Add or drop one ``sep``-separated field on a random non-empty line."""
    lines = blob.split(b"\n")
    at = int(rng.choice([i for i, line in enumerate(lines) if line]))
    fields = lines[at].split(sep)
    if rng.integers(2):
        fields.insert(int(rng.integers(1, len(fields) + 1)), b"_")
    else:
        fields.pop(int(rng.integers(1, len(fields))))
    lines[at] = sep.join(fields)
    return b"\n".join(lines)


def bad_vector(blob, rng):
    """A vector line with a field too many or too few, or a non-number."""
    if rng.integers(3):
        return bad_columns(blob, rng, b" ")
    return blob.replace(b" 3e-2", b" 3e-2x", 1)


def unbalanced(blob, rng):
    """Drop a tree's last bracket, or leave an extra one open at the end."""
    return blob.rstrip()[:-1] if rng.integers(2) else blob + b"("


def bad_layout(blob, rng):
    """A header length past the end of the file, or trailing bytes."""
    if rng.integers(2):
        return blob[:10] + int(rng.integers(len(blob), 2**40)).to_bytes(8, "little") + blob[18:]
    return blob + bytes(int(rng.integers(1, 9)))


def mutants(blob, seed, breaks, cases):
    """``cases`` seeded mutants of ``blob`` as (kind, bytes, must_fail)."""
    rng = np.random.default_rng(seed)
    for case in range(cases):
        kind = ("truncate", "flip", "delete", "break")[case % 4]
        at = int(rng.integers(len(blob)))
        if kind == "truncate":
            yield kind, blob[:at], False
        elif kind == "flip":
            flipped = bytes([blob[at] ^ int(rng.integers(1, 256))])
            yield kind, blob[:at] + flipped + blob[at + 1:], False
        elif kind == "delete":
            yield kind, blob[:at] + blob[at + 1:], False
        else:
            yield kind, breaks(blob, rng), True


def run_fuzz(capsys, source, seed, read, argv, breaks, cases=CASES):
    """Check every mutant of ``source`` through ``read`` and the CLI ``argv``;
    returns how many raised."""
    blob = source.read_bytes()
    path = source.with_name("bad-" + source.name)
    failures = 0
    for kind, data, must_fail in mutants(blob, seed, breaks, cases):
        path.write_bytes(data)
        try:
            read(path)
            err = None
        except DataError as caught:
            err = caught
        assert err is not None or not must_fail, f"{kind} mutant of {source.name} loaded"
        failures += err is not None
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv(str(path)))
        stderr = capsys.readouterr().err
        assert code == (0 if err is None else 2), (kind, err, stderr)
        assert "Traceback" not in stderr
    return failures


def test_fuzz_conllu(clean, capsys):
    # The parser reads its input leniently; eval reads the gold file strictly.
    parse = ["parse", "--model", str(clean / "clean.ptp"), "--output", str(clean / "out")]
    assert run_fuzz(capsys, clean / "clean.conllu", 11, lambda p: read_conllu(p, lenient=True),
                    lambda p: parse + ["--input", p], bad_columns) >= CASES // 4
    assert run_fuzz(capsys, clean / "clean.conllu", 12, read_conllu,
                    lambda p: ["eval", "--task", "dep", "--gold", p, "--pred", p],
                    bad_columns) >= CASES // 4


def test_fuzz_rst_brackets(clean, capsys):
    parse = ["parse", "--model", str(clean / "rst.ptp"), "--output", str(clean / "out")]
    assert run_fuzz(capsys, clean / "clean.rst", 13, read_rst_brackets,
                    lambda p: parse + ["--input", p], unbalanced) >= CASES // 4


def test_fuzz_checkpoint(clean, capsys):
    # ``DependencyParser.load`` reads the file with ``load_checkpoint``, then
    # rebuilds the model from the header; both fail with a ``LoadError``.
    def read(path):
        load_checkpoint(path)
        DependencyParser.load(path)

    parse = ["parse", "--input", str(clean / "clean.conllu"), "--output", str(clean / "out")]
    assert run_fuzz(capsys, clean / "clean.ptp", 14, read,
                    lambda p: parse + ["--model", p], bad_layout) >= CASES // 2


@pytest.mark.parametrize("shape", [[-2, -3], [-1]])
def test_checkpoint_negative_dims(clean, capsys, shape):
    # A negative dimension would make the reader reshape into a raw
    # ValueError, or step its read offset backwards.
    blob = (clean / "clean.ptp").read_bytes()
    start = len(MAGIC) + 8
    size = int.from_bytes(blob[len(MAGIC):start], "little")
    header = json.loads(blob[start:start + size])
    name = header["params"][0]["name"]
    header["params"][0]["shape"] = shape
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = clean / "negative.ptp"
    path.write_bytes(MAGIC + len(encoded).to_bytes(8, "little") + encoded + blob[start + size:])
    with pytest.raises(LoadError, match=re.escape(f"parameter {name!r} has a negative dimension")):
        load_checkpoint(path)
    with pytest.raises(LoadError, match=re.escape(f"parameter {name!r}")):
        DependencyParser.load(path)
    capsys.readouterr()
    code = main(["parse", "--input", str(clean / "clean.conllu"), "--output", str(clean / "out"),
                 "--model", str(path)])
    stderr = capsys.readouterr().err
    assert code == 2 and name in stderr and "Traceback" not in stderr


def test_fuzz_embeddings(clean, capsys):
    # Every mutant that loads trains for an epoch, so the CLI sees fewer cases.
    vocab = {form: i for i, form in enumerate(sorted(
        {token.form for tokens, _ in read_conllu(clean / "clean.conllu") for token in tokens}))}
    train = ["train", "--task", "dep", "--train", str(clean / "clean.conllu"),
             "--config", str(clean / "dep.cfg"), "--out", str(clean / "run")]
    assert run_fuzz(capsys, clean / "clean.vec", 15,
                    lambda p: load_embeddings(p, np.zeros((len(vocab), EMBED_DIM)), vocab),
                    lambda p: train + ["--embeddings", p], bad_vector, cases=16) >= 4
