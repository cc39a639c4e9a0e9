"""Executable reductions: transversals and the three hardness constructions.

These serve as instance generators and cross-checks: hypergraph
transversals against maximal consistent subsets, pure-3CNF satisfiability
against when-in-doubt-throw-it-out survival, and node cover against
maximum models of intersected AND-closed sets.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .config import DEFAULT_LIMITS, Limits
from .errors import NotPure, ParseError, TooLarge, UniverseMismatch
from .formula import CNF, Clause, KnowledgeBase, VarUniverse
from .semantics import ModelSet, closure, members


@dataclass(frozen=True)
class Hypergraph:
    """Vertices 1..n with nonempty hyperedges."""

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("hypergraph needs at least one vertex")
        object.__setattr__(self, "edges",
                           tuple(frozenset(e) for e in self.edges))
        for e in self.edges:
            if not e:
                raise ValueError("empty hyperedge")
            if not all(1 <= v <= self.n for v in e):
                raise ValueError("vertex outside 1..n")


@dataclass(frozen=True)
class Graph:
    """Nodes 1..n with undirected edges, no self-loops."""

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        norm = []
        for a, b in self.edges:
            if a == b:
                raise ValueError("self-loop")
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise ValueError("node outside 1..n")
            norm.append((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", tuple(norm))


def transversals(h: Hypergraph, max_vertices: int = 20) -> list:
    """All minimal hitting sets, as sorted tuples in canonical order.

    Size-ascending search with minimality filtering; brute force is the
    point, the outputs cross-check everything else.
    """
    if h.n > max_vertices:
        raise TooLarge(f"{h.n} vertices exceeds transversal limit {max_vertices}")
    found = []
    for size in range(h.n + 1):
        for subset in combinations(range(1, h.n + 1), size):
            sset = set(subset)
            if any(set(t) <= sset for t in found):
                continue
            if all(sset & e for e in h.edges):
                found.append(subset)
    return found


def fuv_reduction(h: Hypergraph, max_vertices: int = 20):
    """Knowledge base of unit formulas plus one all-negative clause per edge.

    Maximal sub-bases consistent with the clause set are exactly the
    complements of the hypergraph's transversals.
    """
    if h.n > max_vertices:
        raise TooLarge(f"{h.n} vertices exceeds reduction limit {max_vertices}")
    universe = VarUniverse(tuple(f"x{i}" for i in range(1, h.n + 1)))
    items = []
    for i in range(1, h.n + 1):
        unit = CNF(universe, (Clause.from_codes((2 * (i - 1),)),))
        items.append((f"g{i}", unit))
    kb = KnowledgeBase(universe, items)
    clauses = tuple(
        Clause.from_codes(tuple(sorted(2 * (v - 1) + 1 for v in e)))
        for e in h.edges
    )
    return kb, CNF(universe, clauses)


def _split_pure(f: CNF):
    positives = []
    negatives = []
    for cl in f.clauses:
        if not cl.codes:
            raise NotPure("empty clause is neither positive nor negative")
        pos = cl.pos_vars()
        neg = cl.neg_vars()
        if pos and neg:
            raise NotPure(f"mixed clause {cl!r}")
        if pos:
            positives.append(tuple(pos))
        else:
            negatives.append(tuple(neg))
    return positives, negatives


def pure3sat_reduction(f: CNF, max_vars: int = 8):
    """Claim-style construction from a pure CNF with clauses of width <= 3.

    Returns (kb, g, phi): the base holds the guard formula g (some
    positive-clause marker is false) plus one item per source variable
    (the variable's marker conjoined with the markers of the positive
    clauses containing it); phi mirrors the negative clauses.  g survives
    a when-in-doubt-throw-it-out update by phi iff the source is
    unsatisfiable.
    """
    n = len(f.universe)
    if n > max_vars:
        raise TooLarge(f"{n} source variables exceeds limit {max_vars}")
    positives, negatives = _split_pure(f)
    if any(len(cl) > 3 for cl in f.clauses):
        raise NotPure("clause wider than 3 literals")
    r = len(positives)
    names = [f"X{i}" for i in range(n + 1)] + [f"Y{j}" for j in range(1, r + 1)]
    universe = VarUniverse(tuple(names))
    # X_i sits at index i (X0 is the unused spare), Y_j at index n + j
    g = CNF(universe, (Clause.from_codes(tuple(2 * (n + j) + 1 for j in range(1, r + 1))),))
    items = [("g", g)]
    for i in range(1, n + 1):
        codes = [2 * i]
        for j, pvars in enumerate(positives, start=1):
            if i - 1 in pvars:
                codes.append(2 * (n + j))
        clauses = tuple(Clause.from_codes((c,)) for c in sorted(codes))
        items.append((f"g{i}", CNF(universe, clauses)))
    kb = KnowledgeBase(universe, items)
    phi = CNF(universe, tuple(
        Clause.from_codes(tuple(sorted(2 * (v + 1) + 1 for v in nvars)))
        for nvars in negatives
    ))
    return kb, g, phi


def nodecover_reduction(g: Graph, cover_bound: int, limits: Limits = DEFAULT_LIMITS):
    """Two characteristic-model sets whose intersection encodes node cover.

    The universe has one bit per edge then one per node.  m1 holds, per
    edge, two models with zeros at that edge's bit and one endpoint's bit;
    m2 holds, per node, a model with zeros at all edge bits and that
    node's bit.  Returns (m1, m2, n - cover_bound).
    """
    s = len(g.edges)
    n = g.n
    if s + n > limits.enumeration_vars:
        raise TooLarge(f"{s + n} bits exceeds limit {limits.enumeration_vars}")
    names = [f"e{r}" for r in range(1, s + 1)] + [f"v{i}" for i in range(1, n + 1)]
    universe = VarUniverse(tuple(names))
    full = (1 << (s + n)) - 1
    m1 = []
    for r, (i, j) in enumerate(g.edges, start=1):
        for endpoint in (i, j):
            m1.append(full & ~(1 << (r - 1)) & ~(1 << (s + endpoint - 1)))
    edge_bits = (1 << s) - 1
    m2 = []
    for i in range(1, n + 1):
        m2.append(full & ~edge_bits & ~(1 << (s + i - 1)))
    return ModelSet(universe, m1), ModelSet(universe, m2), n - cover_bound


def maxmodel(m1: ModelSet, m2: ModelSet, k: int,
             limits: Limits = DEFAULT_LIMITS) -> bool:
    """Whether the intersection of the two AND-closures has a model with > k ones.

    Both closures are taken as truth tables over the common width and
    intersected; the members of the intersection are then scanned.
    """
    if len(m1.universe) != len(m2.universe):
        raise UniverseMismatch("model sets of different widths")
    width = len(m1.universe)
    if width > limits.enumeration_vars:
        raise TooLarge(f"width {width} exceeds limit {limits.enumeration_vars}")
    both = closure(m1.table, width) & closure(m2.table, width)
    return any(m.bit_count() > k for m in members(both))


# ---------------------------------------------------------------------------
# file format


def _parse_edge_lines(text: str):
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            numbers = [int(tok) for tok in fields]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer token") from exc
        if n is None:
            if len(numbers) != 1:
                raise ParseError(f"line {lineno}: expected vertex count alone")
            n = numbers[0]
        else:
            edges.append(numbers)
    if n is None:
        raise ParseError("missing vertex count line")
    return n, edges


def parse_hypergraph(text: str) -> Hypergraph:
    """First line is the vertex count, then one edge per line."""
    n, edges = _parse_edge_lines(text)
    try:
        return Hypergraph(n, tuple(frozenset(e) for e in edges))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_graph(text: str) -> Graph:
    n, edges = _parse_edge_lines(text)
    for e in edges:
        if len(e) != 2:
            raise ParseError(f"graph edge {e} is not a pair")
    try:
        return Graph(n, tuple((a, b) for a, b in edges))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
