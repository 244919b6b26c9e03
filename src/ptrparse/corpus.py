"""Corpus I/O: CoNLL-U, bracketed discourse trees, synthetic data, embeddings.

CoNLL-U sentences round-trip losslessly over the ten standard columns.
Discourse trees use a bracket format, one tree per top-level expression:

    (NS-elab (EDU 1 "text") (EDU 2 "more text"))

Leaves are ``(EDU <index> "<text>")`` with 1-based consecutive indices;
internal nodes are ``(<nuclearity>-<relation> <left> <right>)``.
"""

from __future__ import annotations

import io
import warnings

import numpy as np

from .errors import EncodingError, LoadError, ParseError, SegmentationError, TreeError
from .trees import DepTree, DiscNode, DiscTree, NUCLEARITIES, Token, internal, leaf, split_label

POS_CYCLE = ("NOUN", "VERB", "ADJ", "ADV", "PRON", "DET", "ADP", "PUNCT")

_EMPTY_FIELDS = ("_",) * 10


def token_fields(index: int, token: Token, head: int, label: str) -> tuple:
    base = token.fields if token.fields is not None else _EMPTY_FIELDS
    out = list(base)
    out[0] = str(index)
    out[1] = token.form
    out[3] = token.upos
    out[4] = token.xpos
    out[6] = str(head)
    out[7] = label
    return tuple(out)


def open_text(path) -> io.StringIO:
    """A UTF-8 text file, read whole, as a text-mode ``open`` handle would
    read it (universal newlines).  A byte that is not UTF-8 raises
    ``EncodingError`` with its offset in the file."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as err:
        raise EncodingError(path, err.start) from err


def read_conllu(path, lenient: bool = False):
    """Parse a CoNLL-U file into (tokens, tree) pairs.

    Multiword-token ranges and empty nodes are skipped with a warning;
    structural problems raise ParseError with the offending line number.
    With ``lenient`` (for parser input), non-integer heads such as "_"
    become 0 and tree validation is skipped, so unannotated files load.
    """
    sentences = []
    rows = []
    row_lines = []

    def flush(at_line):
        if not rows:
            return
        tokens, heads, labels = [], [], []
        for fields, line_no in zip(rows, row_lines):
            tokens.append(Token(form=fields[1], upos=fields[3], xpos=fields[4], fields=fields))
            try:
                head = int(fields[6])
            except ValueError:
                if not lenient:
                    raise ParseError(f"head {fields[6]!r} is not an integer", line=line_no)
                head = 0
            heads.append(head)
            labels.append(fields[7])
        n = len(tokens)
        for head, line_no in zip(heads, row_lines):
            if not 0 <= head <= n:
                raise ParseError(f"head {head} dangles outside 0..{n}", line=line_no)
        tree = DepTree(heads, labels)
        if not lenient:
            try:
                tree.validate()
            except TreeError as err:
                raise ParseError(f"sentence ending at line {at_line}: {err}") from err
        sentences.append((tokens, tree))
        rows.clear()
        row_lines.clear()

    with open_text(path) as handle:
        line_no = 0
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                flush(line_no)
                continue
            if line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 10:
                raise ParseError(f"expected 10 tab-separated columns, found {len(fields)}", line=line_no)
            ident = fields[0]
            if "-" in ident or "." in ident:
                warnings.warn(f"{path}: skipping non-token row {ident!r} at line {line_no}")
                continue
            try:
                position = int(ident)
            except ValueError:
                raise ParseError(f"token id {ident!r} is not an integer", line=line_no)
            if position != len(rows) + 1:
                raise ParseError(f"token id {position} out of sequence (expected {len(rows) + 1})",
                                 line=line_no)
            rows.append(tuple(fields))
            row_lines.append(line_no)
        flush(line_no)
    return sentences


def write_conllu(path, items):
    """Write (tokens, tree) pairs in CoNLL-U form."""
    with open(path, "w", encoding="utf-8") as handle:
        for tokens, tree in items:
            for i, token in enumerate(tokens, start=1):
                fields = token_fields(i, token, tree.heads[i - 1], tree.labels[i - 1])
                handle.write("\t".join(fields) + "\n")
            handle.write("\n")


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _tokenize_brackets(source: str, path):
    line = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
        elif ch.isspace():
            i += 1
        elif ch in "()":
            yield ch, line
            i += 1
        elif ch == '"':
            start_line = line
            i += 1
            out = []
            while i < n and source[i] != '"':
                if source[i] == "\\" and i + 1 < n:
                    out.append(source[i + 1])
                    i += 2
                else:
                    if source[i] == "\n":
                        line += 1
                    out.append(source[i])
                    i += 1
            if i >= n:
                raise ParseError("unterminated string", line=start_line)
            i += 1
            yield ("str", "".join(out)), line
        else:
            start = i
            while i < n and not source[i].isspace() and source[i] not in '()"':
                i += 1
            yield ("atom", source[start:i]), line


class _BracketReader:
    def __init__(self, tokens, path):
        self.tokens = list(tokens)
        self.pos = 0
        self.path = path

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, -1)

    def next(self, expect=None):
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of file")
        tok, line = self.tokens[self.pos]
        self.pos += 1
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}", line=line)
        return tok, line

    def node(self, texts):
        """Read one bracketed tree, appending its (index, text) EDUs to
        ``texts``.  Open internal nodes wait on an explicit stack, so a deep
        tree does not meet Python's recursion limit."""
        pending = []  # (nuclearity, relation, children read so far) per open node
        while True:
            _, line = self.next("(")
            head, line = self.next()
            if head != ("atom", "EDU"):
                if head[0] != "atom":
                    raise ParseError("expected a node label", line=line)
                try:
                    pending.append((*split_label(head[1]), []))
                except TreeError as err:
                    raise ParseError(str(err), line=line) from err
                continue
            idx_tok, line = self.next()
            if idx_tok[0] != "atom" or not idx_tok[1].isdigit():
                raise ParseError("EDU index must be a positive integer", line=line)
            index = int(idx_tok[1])
            text_tok, line = self.next()
            if text_tok[0] != "str":
                raise ParseError("EDU text must be a quoted string", line=line)
            self.next(")")
            texts.append((index, text_tok[1]))
            done = leaf(index)
            while pending:
                nuc, rel, children = pending[-1]
                children.append(done)
                if len(children) < 2:
                    break
                self.next(")")
                pending.pop()
                done = internal(*children, nuc, rel)
            else:
                return done


def read_rst_brackets(path):
    """Parse a bracket file into (edu_texts, tree) pairs."""
    with open_text(path) as handle:
        source = handle.read()
    reader = _BracketReader(_tokenize_brackets(source, path), path)
    items = []
    while reader.peek()[0] is not None:
        texts = []
        root = reader.node(texts)
        texts.sort()
        indices = [i for i, _ in texts]
        if indices != list(range(1, len(indices) + 1)):
            raise ParseError(f"EDU indices {indices} are not consecutive from 1")
        try:
            tree = DiscTree(root)
            tree.validate()
        except TreeError as err:
            raise ParseError(f"bracket tree is not well formed: {err}") from err
        if tree.m != len(indices):
            raise ParseError(f"tree spans {tree.m} EDUs but {len(indices)} are defined")
        items.append(([t for _, t in texts], tree))
    return items


def _format_node(node: DiscNode, texts) -> str:
    """One tree in bracket form, built with an explicit stack, so a deep
    tree does not meet Python's recursion limit."""
    parts, work = [], [node]
    while work:
        item = work.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item.is_leaf:
            parts.append(f'(EDU {item.start} "{_escape(texts[item.start - 1])}")')
        else:
            parts.append(f"({item.label} ")
            work += [")", item.right, " ", item.left]
    return "".join(parts)


def write_rst_brackets(path, items):
    """Write (edu_texts, tree) pairs, one tree per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for texts, tree in items:
            handle.write(_format_node(tree.root, texts) + "\n")


def segmented_from_texts(texts):
    """Flatten EDU text strings into (words, edu_ends) on whitespace."""
    words = []
    ends = []
    for text in texts:
        parts = text.split()
        if not parts:
            raise SegmentationError(f"EDU {len(ends) + 1} has no tokens")
        words.extend(parts)
        ends.append(len(words))
    return words, ends


def _reaches(heads, start: int, target: int) -> bool:
    node = start
    while node != 0:
        if node == target:
            return True
        node = heads[node - 1]
    return False


def gen_synthetic_dep(seed: int, count: int, max_len: int = 12, vocab_size: int = 200,
                      label_count: int = 8):
    """Deterministic random dependency corpus; same seed, same corpus.

    Heads are drawn uniformly from the attachments that keep the partial
    structure acyclic, so arbitrary (including non-projective) trees occur.
    """
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(count):
        n = int(rng.integers(1, max_len + 1))
        heads = [0] * n
        for i in range(1, n + 1):
            candidates = [j for j in range(0, n + 1)
                          if j != i and not _reaches(heads, j, i)]
            heads[i - 1] = int(rng.choice(candidates))
        labels = [f"dep{int(rng.integers(label_count))}" for _ in range(n)]
        tokens = [Token(form=f"w{int(rng.integers(vocab_size))}",
                        upos=POS_CYCLE[(i - 1) % len(POS_CYCLE)])
                  for i in range(1, n + 1)]
        items.append((tokens, DepTree(heads, labels)))
    return items


def synthetic_rst_labels(label_count: int):
    """Composite labels cycling through nuclearities: NS-r0, SN-r0, NN-r0, NS-r1, ..."""
    return [f"{NUCLEARITIES[t % 3]}-r{t // 3}" for t in range(label_count)]


def gen_synthetic_rst(seed: int, count: int, max_edus: int = 8, label_count: int = 8):
    """Deterministic random discourse corpus of binary trees with EDU texts."""
    rng = np.random.default_rng(seed)
    labels = synthetic_rst_labels(label_count)

    def build(i, j):
        if i == j:
            return leaf(i)
        k = int(rng.integers(i, j))
        nuc, rel = split_label(labels[int(rng.integers(label_count))])
        left = build(i, k)
        right = build(k + 1, j)
        return internal(left, right, nuc, rel)

    items = []
    for _ in range(count):
        m = int(rng.integers(1, max_edus + 1))
        root = build(1, m)
        texts = []
        for _ in range(m):
            words = int(rng.integers(1, 5))
            texts.append(" ".join(f"w{int(rng.integers(200))}" for _ in range(words)))
        items.append((texts, DiscTree(root)))
    return items


def load_embeddings(path, weight: np.ndarray, token_to_index) -> tuple:
    """Overwrite embedding rows from a text file of ``token v1 .. vD`` lines.

    Returns (hits, misses): vocabulary entries covered and not covered.
    Unknown file tokens are ignored; a dimension mismatch is an error.
    """
    dim = weight.shape[1]
    found = set()
    with open_text(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                continue
            token, values = parts[0], parts[1:]
            if len(values) != dim:
                raise LoadError(f"line {line_no}: vector has {len(values)} dims, table has {dim}")
            index = token_to_index.get(token)
            if index is None:
                continue
            try:
                weight[index] = np.array([float(v) for v in values])
            except ValueError as err:
                raise LoadError(f"line {line_no}: {err}") from err
            found.add(index)
    return len(found), weight.shape[0] - len(found)
