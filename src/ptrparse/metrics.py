"""Evaluation: attachment scores, discourse span/nuclearity/relation F1, buckets."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError
from .trees import DepTree, DiscTree


@dataclass
class DepScore:
    """Token-level attachment counts; UAS/LAS as percentages."""

    total: int = 0
    correct_heads: int = 0
    correct_labeled: int = 0

    @property
    def uas(self) -> float:
        return 100.0 * self.correct_heads / self.total if self.total else 0.0

    @property
    def las(self) -> float:
        return 100.0 * self.correct_labeled / self.total if self.total else 0.0

    def merge(self, other: "DepScore"):
        self.total += other.total
        self.correct_heads += other.correct_heads
        self.correct_labeled += other.correct_labeled
        return self


def score_dep(tokens, gold: DepTree, predicted: DepTree, exclude_punct: bool = True,
              punct_xpos=()) -> DepScore:
    """Attachment score for one sentence.

    When ``exclude_punct`` is set, a token is skipped if its gold UPOS is
    PUNCT or its gold XPOS is in ``punct_xpos``.
    """
    if gold.n != predicted.n or gold.n != len(tokens):
        raise DataError(f"token counts differ: {len(tokens)} tokens, gold {gold.n}, "
                        f"predicted {predicted.n}")
    punct_xpos = set(punct_xpos)
    score = DepScore()
    for i, token in enumerate(tokens):
        if exclude_punct and (token.upos == "PUNCT" or token.xpos in punct_xpos):
            continue
        score.total += 1
        if gold.heads[i] == predicted.heads[i]:
            score.correct_heads += 1
            if gold.labels[i] == predicted.labels[i]:
                score.correct_labeled += 1
    return score


def score_dep_corpus(items, exclude_punct: bool = True, punct_xpos=()) -> DepScore:
    """Micro-averaged attachment score over (tokens, gold, predicted) triples."""
    score = DepScore()
    for tokens, gold, predicted in items:
        score.merge(score_dep(tokens, gold, predicted, exclude_punct, punct_xpos))
    return score


def _f1(matches: int, gold: int, predicted: int) -> tuple:
    p = 100.0 * matches / predicted if predicted else 0.0
    r = 100.0 * matches / gold if gold else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


@dataclass
class ParsevalScore:
    """Internal-node set matches for the Span, Nuclearity, and Relation facets."""

    gold_nodes: int = 0
    predicted_nodes: int = 0
    span_matches: int = 0
    nuclearity_matches: int = 0
    relation_matches: int = 0

    def merge(self, other: "ParsevalScore"):
        self.gold_nodes += other.gold_nodes
        self.predicted_nodes += other.predicted_nodes
        self.span_matches += other.span_matches
        self.nuclearity_matches += other.nuclearity_matches
        self.relation_matches += other.relation_matches
        return self

    def _triple(self, matches):
        return _f1(matches, self.gold_nodes, self.predicted_nodes)

    @property
    def span(self):
        return self._triple(self.span_matches)

    @property
    def nuclearity(self):
        return self._triple(self.nuclearity_matches)

    @property
    def relation(self):
        return self._triple(self.relation_matches)

    @property
    def span_f1(self) -> float:
        return self.span[2]

    @property
    def nuclearity_f1(self) -> float:
        return self.nuclearity[2]

    @property
    def relation_f1(self) -> float:
        return self.relation[2]


def score_parseval(gold: DiscTree, predicted: DiscTree, include_root: bool = True) -> ParsevalScore:
    """Span/Nuclearity/Relation F1 over internal-node spans of two trees.

    The root span is counted by default (it always matches, inflating all
    facets equally); pass ``include_root=False`` to drop it.
    """
    if gold.m != predicted.m:
        raise DataError(f"EDU counts differ: gold {gold.m}, predicted {predicted.m}")

    def node_set(tree):
        nodes = {(v.start, v.end, v.nuclearity, v.relation) for v in tree.internal_nodes()}
        if not include_root:
            nodes = {x for x in nodes if not (x[0] == 1 and x[1] == tree.m)}
        return nodes

    g, p = node_set(gold), node_set(predicted)
    g_spans = {(s, e) for s, e, _, _ in g}
    p_spans = {(s, e) for s, e, _, _ in p}
    g_nuc = {(s, e, n) for s, e, n, _ in g}
    p_nuc = {(s, e, n) for s, e, n, _ in p}
    g_rel = {(s, e, r) for s, e, _, r in g}
    p_rel = {(s, e, r) for s, e, _, r in p}
    return ParsevalScore(gold_nodes=len(g), predicted_nodes=len(p),
                         span_matches=len(g_spans & p_spans),
                         nuclearity_matches=len(g_nuc & p_nuc),
                         relation_matches=len(g_rel & p_rel))


def score_parseval_corpus(pairs, include_root: bool = True) -> ParsevalScore:
    """Micro-averaged Parseval over (gold, predicted) tree pairs."""
    score = ParsevalScore()
    for gold, predicted in pairs:
        score.merge(score_parseval(gold, predicted, include_root))
    return score


@dataclass
class BucketRow:
    """Scores for one length bucket."""

    low: int
    high: int
    count: int
    score: object

    @property
    def label(self) -> str:
        return f"{self.low}-{self.high}"


def _bucketed(lengths_and_items, width: int):
    if width < 1:
        raise DataError(f"bucket width must be positive, got {width}")
    buckets = {}
    for length, item in lengths_and_items:
        b = (length - 1) // width
        buckets.setdefault(b, []).append(item)
    return sorted(buckets.items())


def bucket_scores_dep(items, width: int = 10, exclude_punct: bool = True, punct_xpos=()):
    """Per-sentence-length-bucket attachment scores over (tokens, gold, pred)."""
    rows = []
    for b, members in _bucketed(((len(t), (t, g, p)) for t, g, p in items), width):
        score = score_dep_corpus(members, exclude_punct, punct_xpos)
        rows.append(BucketRow(b * width + 1, (b + 1) * width, len(members), score))
    return rows


def bucket_scores_rst(pairs, width: int = 10, include_root: bool = True):
    """Per-EDU-count-bucket Parseval scores over (gold, pred) tree pairs."""
    rows = []
    for b, members in _bucketed(((g.m, (g, p)) for g, p in pairs), width):
        score = score_parseval_corpus(members, include_root)
        rows.append(BucketRow(b * width + 1, (b + 1) * width, len(members), score))
    return rows


def bucket_csv(rows) -> str:
    """Render bucket rows as ``bucket,metric,value,count`` CSV text."""
    lines = ["bucket,metric,value,count"]
    for row in rows:
        if isinstance(row.score, DepScore):
            metrics = (("UAS", row.score.uas), ("LAS", row.score.las))
        else:
            metrics = (("Span", row.score.span_f1), ("Nuclearity", row.score.nuclearity_f1),
                       ("Relation", row.score.relation_f1))
        for name, value in metrics:
            lines.append(f"{row.label},{name},{value:.2f},{row.count}")
    return "\n".join(lines) + "\n"
