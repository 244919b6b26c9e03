"""Tokens, dependency trees, and binary discourse trees with validation."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TreeError

NUCLEARITIES = ("NS", "SN", "NN")


@dataclass
class Token:
    """Surface token; ``fields`` keeps original file columns for round-tripping."""

    form: str
    upos: str = "_"
    xpos: str = "_"
    fields: tuple = None

    @property
    def chars(self):
        return tuple(self.form)


class DepTree:
    """Dependency tree over tokens 1..n with artificial root 0.

    heads[i-1] is the head of token i (0 means the root attaches it);
    labels[i-1] is its dependency relation.
    """

    def __init__(self, heads, labels):
        if len(heads) != len(labels):
            raise TreeError(f"{len(heads)} heads but {len(labels)} labels")
        self.heads = list(heads)
        self.labels = list(labels)

    @property
    def n(self):
        return len(self.heads)

    def __eq__(self, other):
        return isinstance(other, DepTree) and self.heads == other.heads and self.labels == other.labels

    def __repr__(self):
        return f"DepTree(heads={self.heads}, labels={self.labels})"

    def children(self, head: int):
        """Indices of tokens attached to ``head``, ascending."""
        return [i for i in range(1, self.n + 1) if self.heads[i - 1] == head]

    def validate(self, single_root: bool = False):
        """Check well-formedness; raises TreeError naming the offending token."""
        n = self.n
        if n == 0:
            raise TreeError("tree has no tokens")
        for i, h in enumerate(self.heads, start=1):
            if not 0 <= h <= n:
                raise TreeError(f"token {i} has head {h} outside 0..{n}")
            if h == i:
                raise TreeError(f"token {i} is its own head")
        for i in range(1, n + 1):
            node, steps = i, 0
            while node != 0:
                node = self.heads[node - 1]
                steps += 1
                if steps > n:
                    raise TreeError(f"token {i} is part of a head cycle")
        if single_root:
            roots = [i for i in range(1, n + 1) if self.heads[i - 1] == 0]
            if len(roots) != 1:
                raise TreeError(f"expected a single root, found tokens {roots} attached to root")
        return self


@dataclass
class DiscNode:
    """Node of a binary discourse tree over EDUs ``start..end`` (1-based, inclusive).

    Internal nodes carry a nuclearity (NS, SN, or NN) and a relation name;
    leaves carry neither.
    """

    start: int
    end: int
    left: "DiscNode" = None
    right: "DiscNode" = None
    nuclearity: str = None
    relation: str = None

    @property
    def is_leaf(self):
        return self.left is None

    @property
    def label(self):
        return f"{self.nuclearity}-{self.relation}"


def leaf(index: int) -> DiscNode:
    return DiscNode(index, index)


def internal(left: DiscNode, right: DiscNode, nuclearity: str, relation: str) -> DiscNode:
    return DiscNode(left.start, right.end, left, right, nuclearity, relation)


def split_label(label: str):
    """Split a composite node label into (nuclearity, relation)."""
    nuc, _, rel = label.partition("-")
    if nuc not in NUCLEARITIES or not rel:
        raise TreeError(f"malformed discourse label {label!r}")
    return nuc, rel


class DiscTree:
    """Binary discourse tree spanning EDUs 1..m."""

    def __init__(self, root: DiscNode):
        self.root = root

    @property
    def m(self):
        return self.root.end

    def __eq__(self, other):
        if not isinstance(other, DiscTree):
            return False
        return self.spans() == other.spans()

    def __repr__(self):
        return f"DiscTree(m={self.m}, internal={len(list(self.internal_nodes()))})"

    def internal_nodes(self):
        """Preorder iterator over internal nodes."""
        work = [self.root]
        while work:
            node = work.pop()
            if node.is_leaf:
                continue
            yield node
            work.append(node.right)
            work.append(node.left)

    def spans(self):
        """Set of (start, end, nuclearity, relation) for all internal nodes."""
        return {(v.start, v.end, v.nuclearity, v.relation) for v in self.internal_nodes()}

    def validate(self):
        """Check span bookkeeping and labels; raises TreeError on the bad node."""
        if self.root.start != 1:
            raise TreeError(f"root span starts at {self.root.start}, expected 1")
        work = [self.root]
        while work:
            node = work.pop()
            if node.start > node.end:
                raise TreeError(f"empty span ({node.start}, {node.end})")
            if node.is_leaf:
                if node.start != node.end:
                    raise TreeError(f"leaf spans more than one unit: ({node.start}, {node.end})")
                if node.right is not None:
                    raise TreeError(f"half-leaf node at ({node.start}, {node.end})")
                continue
            if node.right is None:
                raise TreeError(f"internal node at ({node.start}, {node.end}) lacks a right child")
            if node.nuclearity not in NUCLEARITIES:
                raise TreeError(f"node ({node.start}, {node.end}) has nuclearity {node.nuclearity!r}")
            if not node.relation:
                raise TreeError(f"node ({node.start}, {node.end}) lacks a relation")
            if node.left.start != node.start or node.right.end != node.end:
                raise TreeError(f"children do not tile node ({node.start}, {node.end})")
            if node.left.end + 1 != node.right.start:
                raise TreeError(f"children of ({node.start}, {node.end}) leave a gap or overlap")
            work.append(node.right)
            work.append(node.left)
        return self
