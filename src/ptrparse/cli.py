"""Command-line interface: train, parse, eval, and gen-data subcommands.

Exit codes: 0 on success, 1 for configuration and usage problems, 2 for
data problems, 3 for numeric failures during training.
"""

from __future__ import annotations

import argparse
import os
import sys

from .checkpoint import load_checkpoint
from .corpus import (gen_synthetic_dep, gen_synthetic_rst, load_embeddings, open_text,
                     read_conllu, read_rst_brackets, segmented_from_texts, write_conllu,
                     write_rst_brackets)
from .decoder import FUSIONS, VARIANTS
from .dep import (DepConfig, check_beam_size, config_from_dict, config_to_dict, decode_batch,
                  decode_greedy, format_trace, train_dep)
from .errors import ConfigError, DataError, EncodingError, LoadError, NumericError
from .estimators import DependencyParser, DiscourseParser
from .metrics import (bucket_csv, bucket_scores_dep, bucket_scores_rst, score_dep_corpus,
                      score_parseval_corpus)
from .rst import RstConfig, decode_rst_batch, train_rst
from .scoring import LabelSet


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="ptrparse", description="Pointer-network parsing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a parser from a treebank")
    train.add_argument("--task", choices=("dep", "rst"), required=True)
    train.add_argument("--train", dest="train_path", required=True,
                       help="training corpus (CoNLL-U for dep, brackets for rst)")
    train.add_argument("--dev", dest="dev_path", help="held-out corpus for model selection")
    train.add_argument("--out", required=True, help="output directory")
    train.add_argument("--config", dest="config_path",
                       help="key=value configuration file")
    train.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one configuration key")
    train.add_argument("--seed", type=int)
    train.add_argument("--variant", choices=VARIANTS)
    train.add_argument("--fusion", choices=FUSIONS)
    train.add_argument("--epochs", type=int)
    train.add_argument("--batch-size", type=int)
    train.add_argument("--labels", dest="labels_path",
                       help="fixed label inventory file (rst only)")
    train.add_argument("--embeddings", dest="embeddings_path",
                       help="pretrained word vectors, one 'token v1 .. vD' line each")
    train.set_defaults(run=run_train)

    parse = sub.add_parser("parse", help="parse a corpus with a trained model")
    parse.add_argument("--model", required=True, help="checkpoint file")
    parse.add_argument("--input", required=True,
                       help="input corpus; gold annotation columns are ignored")
    parse.add_argument("--output", required=True)
    parse.add_argument("--beam", type=int, default=1,
                       help="beam size for dependency decoding (1 = greedy)")
    parse.add_argument("--trace", dest="trace_path",
                       help="write pointer decisions for each sentence (dep, greedy only)")
    parse.set_defaults(run=run_parse)

    evaluate = sub.add_parser("eval", help="score predictions against gold")
    evaluate.add_argument("--task", choices=("dep", "rst"), required=True)
    evaluate.add_argument("--gold", required=True)
    evaluate.add_argument("--pred", required=True)
    evaluate.add_argument("--buckets", action="store_true",
                          help="also report per-length-bucket scores")
    evaluate.add_argument("--bucket-width", type=int, default=10)
    evaluate.add_argument("--csv", dest="csv_path", help="write bucket scores to a file")
    evaluate.add_argument("--include-punct", action="store_true",
                          help="count punctuation tokens in attachment scores")
    evaluate.add_argument("--punct-xpos", action="append", default=[],
                          help="XPOS value treated as punctuation (repeatable)")
    evaluate.set_defaults(run=run_eval)

    gen = sub.add_parser("gen-data", help="generate a deterministic synthetic corpus")
    gen.add_argument("--kind", choices=("dep", "rst"), required=True)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--max-len", type=int, default=12, help="max sentence length (dep)")
    gen.add_argument("--max-edus", type=int, default=8, help="max EDUs per sentence (rst)")
    gen.add_argument("--vocab-size", type=int, default=200)
    gen.add_argument("--labels", type=int, default=8)
    gen.add_argument("--out", required=True)
    gen.set_defaults(run=run_gen_data)

    return parser


def _read_kv_file(path) -> dict:
    try:
        handle = open_text(path)
    except EncodingError as err:
        raise ConfigError(str(err)) from err
    data = {}
    with handle:
        for line_no, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigError(f"{path} line {line_no}: expected KEY=VALUE, got {text!r}")
            key, _, value = text.partition("=")
            data[key.strip()] = value.strip()
    return data


def _resolve_config(args, cls):
    data = {}
    if args.config_path:
        data.update(_read_kv_file(args.config_path))
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        data[key.strip()] = value.strip()
    for key in ("seed", "variant", "fusion", "epochs", "batch_size"):
        value = getattr(args, key)
        if value is not None:
            data[key] = value
    return config_from_dict(cls, data).validate()


def _write_resolved(path, config):
    with open(path, "w", encoding="utf-8") as handle:
        for key, value in sorted(config_to_dict(config).items()):
            handle.write(f"{key}={value}\n")


def _embedding_hook(path, log):
    def hook(model):
        table = model.encoder.word_emb.weight.data
        hits, misses = load_embeddings(path, table, model.encoder.word_vocab.index)
        log(f"embeddings {path}: {hits} hits, {misses} misses")
    return hook


def run_train(args):
    os.makedirs(args.out, exist_ok=True)
    cls = DepConfig if args.task == "dep" else RstConfig
    config = _resolve_config(args, cls)
    _write_resolved(os.path.join(args.out, "config.resolved"), config)

    log_path = os.path.join(args.out, "train.log")
    with open(log_path, "w", encoding="utf-8") as log_file:
        def log(line):
            log_file.write(line + "\n")
            log_file.flush()
            print(line)

        hook = _embedding_hook(args.embeddings_path, log) if args.embeddings_path else None
        if args.task == "dep":
            items = read_conllu(args.train_path)
            dev = read_conllu(args.dev_path) if args.dev_path else None
            model, _ = train_dep(items, config, dev_items=dev, log=log, init_hook=hook)
            estimator = DependencyParser(**config_to_dict(config))
            estimator.model_ = model
            out_path = os.path.join(args.out, "checkpoint.ptp")
            estimator.save(out_path)
            print(f"wrote {out_path}")
        else:
            items = [segmented_from_texts(texts) + (tree,)
                     for texts, tree in read_rst_brackets(args.train_path)]
            dev = None
            if args.dev_path:
                dev = [segmented_from_texts(texts) + (tree,)
                       for texts, tree in read_rst_brackets(args.dev_path)]
            label_set = LabelSet.from_file(args.labels_path) if args.labels_path else None
            outcome = train_rst(items, config, dev_items=dev, label_set=label_set,
                                log=log, init_hook=hook)
            estimator = DiscourseParser(**config_to_dict(config))
            estimator.model_ = outcome.model
            estimator.span_state_ = outcome.best_span_state
            estimator.relation_state_ = outcome.best_relation_state
            for selection in ("span", "relation"):
                estimator.use_selection(selection)
                out_path = os.path.join(args.out, f"checkpoint-{selection}.ptp")
                estimator.save(out_path)
                print(f"wrote {out_path}")
            estimator.use_selection("span")


def run_parse(args):
    check_beam_size(args.beam)
    _, meta = load_checkpoint(args.model)
    task = meta.get("task")

    if task == "dep":
        model = DependencyParser.load(args.model).model_
        if args.trace_path and args.beam > 1:
            raise ConfigError("trace output requires greedy decoding (beam 1)")
        sentences = [tokens for tokens, _ in read_conllu(args.input, lenient=True)]
        if args.trace_path:
            results = [decode_greedy(model, tokens, want_trace=True) for tokens in sentences]
            trees = [tree for tree, _ in results]
            with open(args.trace_path, "w", encoding="utf-8") as handle:
                for i, (_, trace) in enumerate(results, start=1):
                    handle.write(f"# sentence {i}\n")
                    handle.write(format_trace(trace))
        else:
            trees = decode_batch(model, sentences, beam_size=args.beam)
        write_conllu(args.output, list(zip(sentences, trees)))
        print(f"parsed {len(sentences)} sentences to {args.output}")
    elif task == "rst":
        if args.trace_path:
            raise ConfigError("trace output is only available for dependency models")
        if args.beam > 1:
            raise ConfigError("beam search is only available for dependency models")
        model = DiscourseParser.load(args.model).model_
        items = read_rst_brackets(args.input)
        trees = decode_rst_batch(model, [segmented_from_texts(texts) for texts, _ in items])
        write_rst_brackets(args.output, [(texts, tree) for (texts, _), tree
                                         in zip(items, trees)])
        print(f"parsed {len(items)} sentences to {args.output}")
    else:
        raise LoadError(f"{args.model} has unknown task {task!r}")


def run_eval(args):
    if args.bucket_width < 1:
        raise ConfigError(f"--bucket-width must be at least 1, got {args.bucket_width}")
    punct_xpos = tuple(args.punct_xpos)
    exclude_punct = not args.include_punct
    if args.task == "dep":
        gold = read_conllu(args.gold)
        pred = read_conllu(args.pred, lenient=True)
        if len(gold) != len(pred):
            raise DataError(f"gold has {len(gold)} sentences, predictions have {len(pred)}")
        items = [(g_tokens, g_tree, p_tree)
                 for (g_tokens, g_tree), (_, p_tree) in zip(gold, pred)]
        agg = score_dep_corpus(items, exclude_punct=exclude_punct, punct_xpos=punct_xpos)
        print(f"uas {agg.uas:.2f}")
        print(f"las {agg.las:.2f}")
        rows = bucket_scores_dep(items, width=args.bucket_width,
                                 exclude_punct=exclude_punct,
                                 punct_xpos=punct_xpos) if args.buckets else None
    else:
        gold = read_rst_brackets(args.gold)
        pred = read_rst_brackets(args.pred)
        if len(gold) != len(pred):
            raise DataError(f"gold has {len(gold)} sentences, predictions have {len(pred)}")
        pairs = [(g_tree, p_tree) for (_, g_tree), (_, p_tree) in zip(gold, pred)]
        agg = score_parseval_corpus(pairs)
        for name, triple in (("span", agg.span), ("nuclearity", agg.nuclearity),
                             ("relation", agg.relation)):
            p, r, f1 = triple
            print(f"{name} precision {p:.2f} recall {r:.2f} f1 {f1:.2f}")
        rows = bucket_scores_rst(pairs, width=args.bucket_width) if args.buckets else None

    if rows is not None:
        text = bucket_csv(rows)
        if args.csv_path:
            with open(args.csv_path, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {args.csv_path}")
        else:
            print(text, end="")


def run_gen_data(args):
    for name in ("count", "max_len", "max_edus", "vocab_size", "labels"):
        if getattr(args, name) < 1:
            raise ConfigError(f"--{name.replace('_', '-')} must be at least 1, "
                              f"got {getattr(args, name)}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    if args.kind == "dep":
        items = gen_synthetic_dep(args.seed, args.count, max_len=args.max_len,
                                  vocab_size=args.vocab_size, label_count=args.labels)
        write_conllu(args.out, items)
    else:
        items = gen_synthetic_rst(args.seed, args.count, max_edus=args.max_edus,
                                  label_count=args.labels)
        write_rst_brackets(args.out, items)
    print(f"wrote {args.count} sentences to {args.out}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.run(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
