"""The seven belief-change formalisms as exact desk-scale operators.

Two syntactic operators work over knowledge bases (maximal consistent
subsets, and their when-in-doubt-throw-it-out intersection); five
model-based operators project the update's models onto the nearest ones,
differing in distance notion (Hamming vs. set difference) and scope
(globally nearest vs. nearest per base model).
"""
from __future__ import annotations

from enum import Enum
from functools import reduce
from itertools import combinations
from operator import or_

from .config import DEFAULT_LIMITS, Limits
from .errors import (
    EmptyModelSet,
    UniverseMismatch,
    UnsatisfiableBase,
    UnsatisfiableUpdate,
)
from .formula import CNF, KnowledgeBase
from .hornsat import horn_sat
from .semantics import ModelSet, dilate, enumerate_models, members, minimal, relabel


class FormalismTag(str, Enum):
    FUV = "fuv"
    WIDTIO = "widtio"
    DALAL = "dalal"
    SATOH = "satoh"
    BORGIDA = "borgida"
    FORBUS = "forbus"
    WINSLETT = "winslett"


MODEL_BASED = frozenset({
    FormalismTag.DALAL,
    FormalismTag.SATOH,
    FormalismTag.BORGIDA,
    FormalismTag.FORBUS,
    FormalismTag.WINSLETT,
})


def _nearest(g: int, f: int, n: int) -> int:
    """Models of table f at the least Hamming distance from table g."""
    ball = g
    while not ball & f:
        ball = dilate(ball, n)
    return ball & f


def update_models(g: ModelSet, f: ModelSet, tag: FormalismTag) -> ModelSet:
    """Project the base models g onto the update models f, per formalism."""
    tag = FormalismTag(tag)
    if tag not in MODEL_BASED:
        raise ValueError(f"{tag.value} is not a model-based formalism")
    if g.universe != f.universe:
        raise UniverseMismatch("update across different universes")
    if not g or not f:
        raise EmptyModelSet("model-based update needs nonempty model sets")
    n = len(g.universe)
    gt, ft = g.table, f.table
    inter = gt & ft

    if tag is FormalismTag.WINSLETT or (tag is FormalismTag.BORGIDA and not inter):
        # per base model outside f, the models of f at a subset-minimal
        # difference; borgida is winslett when no base model satisfies f
        result = reduce(or_, (relabel(minimal(relabel(ft, a, n), n), a, n)
                              for a in members(gt & ~ft)), inter)
    elif inter:
        result = inter
    elif tag is FormalismTag.DALAL:
        result = _nearest(gt, ft, n)
    elif tag is FormalismTag.FORBUS:
        result = reduce(or_, (_nearest(1 << a, ft, n) for a in members(gt)))
    else:
        # satoh: the differences subset-minimal over all pairs
        base = members(gt)
        least = minimal(reduce(or_, (relabel(ft, a, n) for a in base)), n)
        result = ft & reduce(or_, (relabel(least, a, n) for a in base))
    return ModelSet.from_table(g.universe, result)


def update_cnf(g: CNF, f: CNF, tag: FormalismTag,
               limits: Limits = DEFAULT_LIMITS) -> ModelSet:
    """Model-based update of one CNF by another, via enumeration."""
    gm = enumerate_models(g, limits)
    if not gm:
        raise UnsatisfiableBase("cannot update an unsatisfiable base")
    fm = enumerate_models(f, limits)
    if not fm:
        raise UnsatisfiableUpdate("update formula is unsatisfiable")
    return update_models(gm, fm, tag)


# ---------------------------------------------------------------------------
# syntactic formalisms


def _satisfiable(cnf: CNF, limits: Limits) -> bool:
    if cnf.horn():
        return horn_sat(cnf) is not None
    return bool(enumerate_models(cnf, limits))


def _subset_consistent(kb: KnowledgeBase, indices, f: CNF, limits: Limits) -> bool:
    clauses = []
    for i in indices:
        clauses.extend(kb.items[i][1].clauses)
    clauses.extend(f.clauses)
    return _satisfiable(CNF(kb.universe, tuple(clauses)), limits)


def _fresh_name(base: str, taken) -> str:
    if base not in taken:
        return base
    i = 2
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def maximal_consistent_subsets(kb: KnowledgeBase, f: CNF,
                               limits: Limits = DEFAULT_LIMITS) -> list:
    """Index sets of the maximal sub-bases consistent with f, largest first."""
    if kb.universe != f.universe:
        raise UniverseMismatch("update formula over a different universe")
    if not _satisfiable(f, limits):
        raise UnsatisfiableUpdate("update formula is unsatisfiable")
    n = len(kb.items)
    everything = tuple(range(n))
    if _subset_consistent(kb, everything, f, limits):
        return [everything]
    found = []
    for size in range(n - 1, -1, -1):
        for subset in combinations(range(n), size):
            sset = set(subset)
            if any(sset <= set(big) for big in found):
                continue
            if _subset_consistent(kb, subset, f, limits):
                found.append(subset)
    return found


def fuv_update(kb: KnowledgeBase, f: CNF,
               limits: Limits = DEFAULT_LIMITS, update_name: str = "phi") -> list:
    """All maximal subsets of the base consistent with f, each with f added."""
    subsets = maximal_consistent_subsets(kb, f, limits)
    out = []
    for subset in subsets:
        base = kb.restricted(subset)
        name = _fresh_name(update_name, set(base.names()))
        out.append(base.extended(name, f))
    return out


def widtio_update(kb: KnowledgeBase, f: CNF,
                  limits: Limits = DEFAULT_LIMITS, update_name: str = "phi") -> KnowledgeBase:
    """Positional intersection of all maximal consistent subsets, plus f."""
    subsets = maximal_consistent_subsets(kb, f, limits)
    surviving = set(subsets[0])
    for subset in subsets[1:]:
        surviving &= set(subset)
    base = kb.restricted(sorted(surviving))
    name = _fresh_name(update_name, set(base.names()))
    return base.extended(name, f)
