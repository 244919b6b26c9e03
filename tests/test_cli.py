"""End-to-end command-line tests: both task loops, configuration
precedence, determinism of artifacts, and exit codes."""

import os
import warnings

import pytest

from ptrparse import DependencyParser, DiscourseParser, decode_beam, decode_greedy, decode_rst
from ptrparse.cli import main
from ptrparse.corpus import (read_conllu, read_rst_brackets, segmented_from_texts,
                             write_conllu, write_rst_brackets)
from ptrparse.scoring import LabelSet

DEP_CFG = """\
word_dim=6
pos_dim=4
char_dim=4
char_filters=5
char_window=3
encoder_layers=1
encoder_hidden=8
decoder_layers=1
decoder_hidden=8
arc_mlp=8
label_mlp=6
embed_dropout=0.0
recurrent_dropout=0.0
layer_dropout=0.0
state_dropout=0.0
mlp_dropout=0.0
batch_size=4
epochs=2
seed=3
"""

RST_CFG = """\
word_dim=6
encoder_hidden=4
encoder_layers=1
decoder_layers=1
rel_mlp=6
embed_dropout=0.0
encoder_dropout=0.0
decoder_dropout=0.0
classifier_dropout=0.0
l2=0.0
batch_size=4
epochs=2
seed=5
"""


def run(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return main(argv)


@pytest.fixture(scope="module")
def dep_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_dep")
    data = root / "train.conllu"
    assert run(["gen-data", "--kind", "dep", "--seed", "3", "--count", "6",
                "--max-len", "6", "--vocab-size", "30", "--labels", "4",
                "--out", str(data)]) == 0
    cfg = root / "tiny.cfg"
    cfg.write_text(DEP_CFG)
    out = root / "run"
    assert run(["train", "--task", "dep", "--train", str(data),
                "--out", str(out), "--config", str(cfg)]) == 0
    return {"root": root, "data": data, "cfg": cfg, "out": out,
            "model": out / "checkpoint.ptp"}


@pytest.fixture(scope="module")
def rst_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_rst")
    data = root / "train.brackets"
    assert run(["gen-data", "--kind", "rst", "--seed", "5", "--count", "6",
                "--max-edus", "5", "--labels", "4", "--out", str(data)]) == 0
    cfg = root / "tiny.cfg"
    cfg.write_text(RST_CFG)
    out = root / "run"
    assert run(["train", "--task", "rst", "--train", str(data),
                "--out", str(out), "--config", str(cfg)]) == 0
    return {"root": root, "data": data, "cfg": cfg, "out": out,
            "model": out / "checkpoint-span.ptp"}


def test_gen_data_dep_is_valid_and_deterministic(tmp_path):
    a, b = tmp_path / "a.conllu", tmp_path / "b.conllu"
    args = ["gen-data", "--kind", "dep", "--seed", "11", "--count", "5", "--out"]
    assert run(args + [str(a)]) == 0
    assert run(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    items = read_conllu(a)
    assert len(items) == 5
    for _, tree in items:
        tree.validate()


def test_gen_data_rst_is_valid(tmp_path):
    path = tmp_path / "c.brackets"
    assert run(["gen-data", "--kind", "rst", "--seed", "2", "--count", "4",
                "--out", str(path)]) == 0
    items = read_rst_brackets(path)
    assert len(items) == 4
    for _, tree in items:
        tree.validate()


@pytest.mark.parametrize("kind, option, value", [
    ("dep", "--count", "0"), ("dep", "--max-len", "0"), ("dep", "--max-len", "-3"),
    ("rst", "--max-edus", "0"), ("dep", "--vocab-size", "0"), ("dep", "--labels", "0"),
    ("rst", "--labels", "0"), ("dep", "--seed", "-1"), ("rst", "--seed", "-2")])
def test_gen_data_rejects_bad_count(tmp_path, capsys, kind, option, value):
    # An option below 1 or a negative seed is a usage error, exit 1, with no
    # traceback and no file written.
    out = tmp_path / "x"
    assert run(["gen-data", "--kind", kind, "--count", "2", option, value,
                "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {option}")
    assert not out.exists()


def test_train_writes_artifacts(dep_run):
    assert (dep_run["out"] / "config.resolved").exists()
    assert (dep_run["out"] / "train.log").exists()
    assert dep_run["model"].exists()
    log = (dep_run["out"] / "train.log").read_text()
    assert log.count("epoch ") == 2
    assert "uas" in log and "lr" in log


def test_train_is_deterministic(dep_run, tmp_path):
    first, second = tmp_path / "r1", tmp_path / "r2"
    argv = ["train", "--task", "dep", "--train", str(dep_run["data"]),
            "--config", str(dep_run["cfg"])]
    assert run(argv + ["--out", str(first)]) == 0
    assert run(argv + ["--out", str(second)]) == 0
    for name in ("train.log", "config.resolved", "checkpoint.ptp"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert (first / "train.log").read_bytes() == (dep_run["out"] / "train.log").read_bytes()
    assert dep_run["model"].read_bytes() == (first / "checkpoint.ptp").read_bytes()


def read_resolved(path):
    pairs = (line.partition("=") for line in path.read_text().splitlines())
    return {key: value for key, _, value in pairs}


def test_config_precedence(dep_run, tmp_path):
    out = tmp_path / "prec"
    assert run(["train", "--task", "dep", "--train", str(dep_run["data"]),
                "--out", str(out), "--config", str(dep_run["cfg"]),
                "--set", "epochs=2", "--set", "variant=pst",
                "--epochs", "1", "--fusion", "plain"]) == 0
    resolved = read_resolved(out / "config.resolved")
    assert resolved["epochs"] == "1"
    assert resolved["variant"] == "pst"
    assert resolved["fusion"] == "plain"
    assert resolved["word_dim"] == "6"
    assert (out / "train.log").read_text().count("epoch ") == 1


def test_resolved_config_roundtrips(dep_run, tmp_path):
    out = tmp_path / "again"
    assert run(["train", "--task", "dep", "--train", str(dep_run["data"]),
                "--out", str(out),
                "--config", str(dep_run["out"] / "config.resolved")]) == 0
    assert ((out / "config.resolved").read_bytes()
            == (dep_run["out"] / "config.resolved").read_bytes())


def test_bad_config_lines(dep_run, tmp_path):
    broken = tmp_path / "broken.cfg"
    broken.write_text("word_dim 6\n")
    argv = ["train", "--task", "dep", "--train", str(dep_run["data"]),
            "--out", str(tmp_path / "o")]
    assert run(argv + ["--config", str(broken)]) == 1
    assert run(argv + ["--set", "not_a_key=4"]) == 1
    assert run(argv + ["--set", "epochs"]) == 1
    assert run(argv + ["--set", "epochs=maybe"]) == 1


def test_parse_and_eval_dep(dep_run, tmp_path):
    pred = tmp_path / "pred.conllu"
    assert run(["parse", "--model", str(dep_run["model"]),
                "--input", str(dep_run["data"]), "--output", str(pred)]) == 0
    parsed = read_conllu(pred)
    assert len(parsed) == 6
    for tokens, tree in parsed:
        tree.validate()
        assert tree.n == len(tokens)
    assert run(["eval", "--task", "dep", "--gold", str(dep_run["data"]),
                "--pred", str(pred)]) == 0


@pytest.mark.parametrize("task,beam", [pytest.param("dep", 1, id="dep"),
                                       pytest.param("dep", 3, id="dep-beam3"),
                                       pytest.param("rst", 1, id="rst")])
def test_parse_output_matches_per_sentence_decode(task, beam, dep_run, rst_run, tmp_path):
    """``parse`` decodes a multi-sentence file as one batch; its output bytes
    equal those of a decode one sentence at a time, greedy or beam."""
    fixture = dep_run if task == "dep" else rst_run
    data = tmp_path / "input"
    size = ["--max-len", "9", "--vocab-size", "30"] if task == "dep" else ["--max-edus", "7"]
    assert run(["gen-data", "--kind", task, "--seed", "11", "--count", "12", "--labels", "4",
                "--out", str(data)] + size) == 0
    pred, expected = tmp_path / "pred", tmp_path / "expected"
    assert run(["parse", "--model", str(fixture["model"]), "--input", str(data),
                "--output", str(pred), "--beam", str(beam)]) == 0
    if task == "dep":
        model = DependencyParser.load(fixture["model"]).model_
        write_conllu(expected, [(tokens, decode_greedy(model, tokens) if beam == 1
                                 else decode_beam(model, tokens, beam_size=beam)[0])
                                for tokens, _ in read_conllu(data, lenient=True)])
    else:
        model = DiscourseParser.load(fixture["model"]).model_
        write_rst_brackets(expected, [(texts, decode_rst(model, *segmented_from_texts(texts)))
                                      for texts, _ in read_rst_brackets(data)])
    assert pred.read_bytes() == expected.read_bytes()


def test_parse_beam_matches_greedy_shape(dep_run, tmp_path):
    one = tmp_path / "b1.conllu"
    three = tmp_path / "b3.conllu"
    base = ["parse", "--model", str(dep_run["model"]), "--input", str(dep_run["data"])]
    assert run(base + ["--output", str(one), "--beam", "1"]) == 0
    assert run(base + ["--output", str(three), "--beam", "3"]) == 0
    assert len(read_conllu(three)) == len(read_conllu(one)) == 6


def test_parse_trace(dep_run, tmp_path):
    pred = tmp_path / "pred.conllu"
    trace = tmp_path / "trace.txt"
    assert run(["parse", "--model", str(dep_run["model"]),
                "--input", str(dep_run["data"]), "--output", str(pred),
                "--trace", str(trace)]) == 0
    text = trace.read_text()
    assert "# sentence 1" in text and "# sentence 6" in text
    assert "step=" in text and "action=" in text


def test_trace_requires_greedy(dep_run, tmp_path):
    assert run(["parse", "--model", str(dep_run["model"]),
                "--input", str(dep_run["data"]), "--output", str(tmp_path / "p"),
                "--trace", str(tmp_path / "t"), "--beam", "2"]) == 1


def test_parse_empty_input(dep_run, tmp_path):
    empty = tmp_path / "empty.conllu"
    empty.write_text("")
    out = tmp_path / "out.conllu"
    assert run(["parse", "--model", str(dep_run["model"]),
                "--input", str(empty), "--output", str(out)]) == 0
    assert read_conllu(out) == []


def test_eval_buckets_csv(dep_run, tmp_path):
    pred = tmp_path / "pred.conllu"
    assert run(["parse", "--model", str(dep_run["model"]),
                "--input", str(dep_run["data"]), "--output", str(pred)]) == 0
    csv = tmp_path / "buckets.csv"
    assert run(["eval", "--task", "dep", "--gold", str(dep_run["data"]),
                "--pred", str(pred), "--buckets", "--bucket-width", "3",
                "--csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "bucket,metric,value,count"
    assert any(line.startswith("1-3,UAS,") for line in lines)


@pytest.mark.parametrize("task", ["dep", "rst"])
def test_eval_rejects_bad_bucket_width(tmp_path, capsys, task):
    # A usage error, exit 1, found before any file is read or score printed.
    missing = str(tmp_path / "missing")
    assert run(["eval", "--task", task, "--gold", missing, "--pred", missing,
                "--buckets", "--bucket-width", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --bucket-width")


def test_eval_count_mismatch(dep_run, tmp_path):
    short = tmp_path / "short.conllu"
    assert run(["gen-data", "--kind", "dep", "--seed", "3", "--count", "2",
                "--out", str(short)]) == 0
    assert run(["eval", "--task", "dep", "--gold", str(dep_run["data"]),
                "--pred", str(short)]) == 2


def test_rst_train_writes_both_selections(rst_run):
    assert (rst_run["out"] / "checkpoint-span.ptp").exists()
    assert (rst_run["out"] / "checkpoint-relation.ptp").exists()
    log = (rst_run["out"] / "train.log").read_text()
    assert log.count("epoch ") == 2 and "span" in log


def test_rst_parse_and_eval(rst_run, tmp_path):
    pred = tmp_path / "pred.brackets"
    assert run(["parse", "--model", str(rst_run["model"]),
                "--input", str(rst_run["data"]), "--output", str(pred)]) == 0
    parsed = read_rst_brackets(pred)
    assert len(parsed) == 6
    for _, tree in parsed:
        tree.validate()
    assert run(["eval", "--task", "rst", "--gold", str(rst_run["data"]),
                "--pred", str(pred)]) == 0
    csv = tmp_path / "rst.csv"
    assert run(["eval", "--task", "rst", "--gold", str(rst_run["data"]),
                "--pred", str(pred), "--buckets", "--bucket-width", "4",
                "--csv", str(csv)]) == 0
    assert "Relation" in csv.read_text()


def test_rst_parse_rejects_beam_and_trace(rst_run, tmp_path):
    base = ["parse", "--model", str(rst_run["model"]),
            "--input", str(rst_run["data"]), "--output", str(tmp_path / "p")]
    assert run(base + ["--beam", "2"]) == 1
    assert run(base + ["--trace", str(tmp_path / "t")]) == 1


def test_rst_fixed_label_file(rst_run, tmp_path):
    labels = tmp_path / "labels.txt"
    LabelSet(["NN-r0", "NS-r0", "NS-r1", "SN-r0", "SN-r9"]).to_file(labels)
    out = tmp_path / "fixed"
    assert run(["train", "--task", "rst", "--train", str(rst_run["data"]),
                "--out", str(out), "--config", str(rst_run["cfg"]),
                "--labels", str(labels)]) == 0
    from ptrparse.estimators import DiscourseParser
    parser = DiscourseParser.load(out / "checkpoint-span.ptp")
    assert "SN-r9" in parser.model_.labels.names


def test_exit_codes_for_bad_inputs(dep_run, tmp_path):
    missing = str(tmp_path / "nowhere.conllu")
    assert run(["train", "--task", "dep", "--train", missing,
                "--out", str(tmp_path / "o"), "--config", str(dep_run["cfg"])]) == 2
    assert run(["parse", "--model", str(tmp_path / "no.ptp"),
                "--input", str(dep_run["data"]), "--output", str(tmp_path / "p")]) == 2
    mangled = tmp_path / "bad.conllu"
    mangled.write_text("1\tonly_two\n\n")
    assert run(["train", "--task", "dep", "--train", str(mangled),
                "--out", str(tmp_path / "o2"), "--config", str(dep_run["cfg"])]) == 2


@pytest.mark.parametrize("command", ["parse", "train"])
def test_empty_form_exits_two(command, dep_run, tmp_path, capsys):
    bad = tmp_path / "empty_form.conllu"
    bad.write_text("1\tthe\t_\tDET\t_\t_\t2\tdet\t_\t_\n"
                   "2\t\t_\tNOUN\t_\t_\t0\troot\t_\t_\n\n")
    if command == "parse":
        argv = ["parse", "--model", str(dep_run["model"]), "--input", str(bad),
                "--output", str(tmp_path / "pred.conllu")]
    else:
        argv = ["train", "--task", "dep", "--train", str(bad), "--out", str(tmp_path / "o"),
                "--config", str(dep_run["cfg"])]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "token 2 has an empty FORM" in err and "Traceback" not in err


def test_exit_code_numeric_failure(dep_run, tmp_path):
    assert run(["train", "--task", "dep", "--train", str(dep_run["data"]),
                "--out", str(tmp_path / "boom"), "--config", str(dep_run["cfg"]),
                "--set", "lr=1e8", "--epochs", "3"]) == 3


@pytest.mark.parametrize("task", ["dep", "rst"])
def test_divergence_exits_three_without_checkpoint(task, dep_run, rst_run, tmp_path):
    fixture = dep_run if task == "dep" else rst_run
    out = tmp_path / "diverged"
    assert run(["train", "--task", task, "--train", str(fixture["data"]),
                "--out", str(out), "--config", str(fixture["cfg"]),
                "--set", "lr=1e100"]) == 3
    assert list(out.glob("checkpoint*.ptp")) == []


def test_usage_errors_exit_one(tmp_path):
    assert run(["train", "--task", "nope", "--train", "x", "--out", "y"]) == 1
    assert run(["unknown-command"]) == 1


def test_negative_seed_exits_one(dep_run, tmp_path, capsys):
    capsys.readouterr()
    assert run(["train", "--task", "dep", "--train", str(dep_run["data"]),
                "--out", str(tmp_path / "o"), "--config", str(dep_run["cfg"]),
                "--set", "seed=-1"]) == 1
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err


def test_embeddings_hook(dep_run, tmp_path):
    vectors = tmp_path / "vecs.txt"
    words = {form for tokens, _ in read_conllu(dep_run["data"]) for form in
             (token.form for token in tokens)}
    some = sorted(words)[:2]
    lines = [w + " " + " ".join(["0.25"] * 6) for w in some]
    vectors.write_text("\n".join(lines) + "\nunused " + " ".join(["0.5"] * 6) + "\n")
    out = tmp_path / "emb"
    assert run(["train", "--task", "dep", "--train", str(dep_run["data"]),
                "--out", str(out), "--config", str(dep_run["cfg"]),
                "--embeddings", str(vectors)]) == 0
    log = (out / "train.log").read_text()
    assert "2 hits" in log and "misses" in log


@pytest.mark.parametrize("task", ["dep", "rst"])
def test_parse_rejects_checkpoint_without_metadata(task, dep_run, rst_run, tmp_path, capsys):
    # A well-formed checkpoint whose header lacks a metadata key the model
    # needs is a LoadError (exit 2) naming the key, never a traceback.
    from ptrparse.checkpoint import load_checkpoint, save_checkpoint

    fixture = dep_run if task == "dep" else rst_run
    params, meta = load_checkpoint(fixture["model"])
    vocabs = ("word_vocab", "pos_vocab", "char_vocab") if task == "dep" else ("word_vocab",)
    cases = [({"task": task}, "config")]
    cases += [({k: v for k, v in meta.items() if k != key}, key)
              for key in ("config", "labels", "label_hash") + vocabs]
    for stripped, key in cases:
        path = tmp_path / f"no-{key}.ptp"
        save_checkpoint(path, params.items(), stripped)
        capsys.readouterr()
        assert run(["parse", "--model", str(path), "--input", str(fixture["data"]),
                    "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"missing {key!r}" in err and "Traceback" not in err


def test_parse_rejects_checkpoint_metadata_of_the_wrong_type(dep_run, tmp_path, capsys):
    # A metadata value of the wrong JSON type (a config that is not an
    # object) is a LoadError (exit 2) naming the key, never a traceback.
    from ptrparse.checkpoint import load_checkpoint, save_checkpoint

    params, meta = load_checkpoint(dep_run["model"])
    path = tmp_path / "list-config.ptp"
    save_checkpoint(path, params.items(), {**meta, "config": [1, 2]})
    capsys.readouterr()
    assert run(["parse", "--model", str(path), "--input", str(dep_run["data"]),
                "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "'config'" in err and "Traceback" not in err


@pytest.mark.parametrize("task, key, entry", [("dep", "char_vocab", "<pad>"),
                                              ("dep", "word_vocab", "<root>"),
                                              ("rst", "word_vocab", "<unk>")])
def test_parse_rejects_checkpoint_vocabulary_without_special_entry(task, key, entry, dep_run,
                                                                   rst_run, tmp_path, capsys):
    # A vocabulary that lacks one of its special entries is a LoadError
    # (exit 2) naming the vocabulary, never a traceback or a silent <unk>.
    from ptrparse.checkpoint import load_checkpoint, save_checkpoint

    fixture = dep_run if task == "dep" else rst_run
    params, meta = load_checkpoint(fixture["model"])
    path = tmp_path / "special.ptp"
    renamed = [f"{token}?" if token == entry else token for token in meta[key]]
    save_checkpoint(path, params.items(), {**meta, key: renamed})
    capsys.readouterr()
    assert run(["parse", "--model", str(path), "--input", str(fixture["data"]),
                "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{key!r} lacks the special entries" in err and "Traceback" not in err


@pytest.mark.parametrize("task", ["dep", "rst"])
def test_parse_reads_its_checkpoint_once(task, dep_run, rst_run, tmp_path, monkeypatch):
    # One read of the file tells the task and rebuilds the model, through
    # ``estimators.load_checkpoint``.
    from ptrparse import checkpoint, estimators

    fixture = dep_run if task == "dep" else rst_run
    opened, loads = [], []
    load = estimators.load_checkpoint

    def counting_open(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    def counting_load(path):
        loads.append(str(path))
        return load(path)

    monkeypatch.setattr(checkpoint, "open", counting_open, raising=False)
    monkeypatch.setattr(estimators, "load_checkpoint", counting_load)
    assert run(["parse", "--model", str(fixture["model"]), "--input", str(fixture["data"]),
                "--output", str(tmp_path / "out")]) == 0
    assert opened == loads == [str(fixture["model"])]


@pytest.mark.parametrize("task", ["pos", None])
def test_parse_rejects_checkpoint_of_unknown_or_missing_task(task, dep_run, tmp_path, capsys):
    # A checkpoint whose task is unknown or absent is malformed data, a
    # LoadError (exit 2), as a wrong task given to an estimator's load is.
    from ptrparse.checkpoint import load_checkpoint, save_checkpoint

    params, meta = load_checkpoint(dep_run["model"])
    meta = {key: value for key, value in meta.items() if key != "task"}
    path = tmp_path / "task.ptp"
    save_checkpoint(path, params.items(), meta if task is None else {**meta, "task": task})
    capsys.readouterr()
    assert run(["parse", "--model", str(path), "--input", str(dep_run["data"]),
                "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"unknown task {task!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("task", ["dep", "rst"])
def test_non_utf8_corpus_exits_two(task, dep_run, rst_run, tmp_path, capsys):
    # One byte that is not UTF-8 in a CoNLL-U form or an EDU text is a data
    # error (exit 2) naming the file and the byte offset, never a traceback,
    # whether the file is read for training, as dev data, or for parsing.
    fixture = dep_run if task == "dep" else rst_run
    blob = fixture["data"].read_bytes()
    bad_byte, anchor = (b"\xff", b"\t") if task == "dep" else (b"\xfe", b'"')
    offset = blob.index(anchor) + 1
    bad = tmp_path / ("bad-" + fixture["data"].name)
    bad.write_bytes(blob[:offset] + bad_byte + blob[offset:])
    train = ["train", "--task", task, "--out", str(tmp_path / "o"),
             "--config", str(fixture["cfg"])]
    for argv in (train + ["--train", str(bad)],
                 train + ["--train", str(fixture["data"]), "--dev", str(bad)],
                 ["parse", "--model", str(fixture["model"]), "--input", str(bad),
                  "--output", str(tmp_path / "p")]):
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{bad}: byte {offset} is not valid UTF-8" in err and "Traceback" not in err


def test_non_utf8_side_files(dep_run, rst_run, tmp_path, capsys):
    # A label inventory or an embeddings file with a bad byte is a data error
    # (exit 2); a configuration file with one is a configuration error (exit 1).
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"NS-r0\nx\xff 1.0\n")
    for task, flag, code in (("rst", "--labels", 2), ("dep", "--embeddings", 2),
                             ("dep", "--config", 1)):
        fixture = dep_run if task == "dep" else rst_run
        argv = ["train", "--task", task, "--train", str(fixture["data"]),
                "--out", str(tmp_path / "o"), "--config", str(fixture["cfg"]), flag, str(bad)]
        capsys.readouterr()
        assert run(argv) == code, flag
        err = capsys.readouterr().err
        assert f"{bad}: byte 7 is not valid UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("task", ["dep", "rst"])
def test_parse_rejects_checkpoint_with_invalid_config(task, dep_run, rst_run, tmp_path, capsys):
    # A stored config that no longer validates (an unknown key, a bad value)
    # is a damaged checkpoint: LoadError, exit 2, not a usage error.
    from ptrparse.checkpoint import load_checkpoint, save_checkpoint

    fixture = dep_run if task == "dep" else rst_run
    params, meta = load_checkpoint(fixture["model"])
    for change in ({"seeed": 1}, {"variant": "qs"}, {"seed": -1}):
        path = tmp_path / "bad-config.ptp"
        save_checkpoint(path, params.items(), {**meta, "config": {**meta["config"], **change}})
        capsys.readouterr()
        assert run(["parse", "--model", str(path), "--input", str(fixture["data"]),
                    "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and "Traceback" not in err
