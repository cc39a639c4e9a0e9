"""Linear-time Horn satisfiability and entailment via unit propagation.

Propagation is counter-based: each clause tracks how many of its negative
literals are not yet forced true, so the total work is linear in the
literal count of the input.  Its setup pass is the only Horn check: a
clause with two positive literals raises NotHorn before anything propagates.

Propagation runs with the cyclic garbage collector paused, and gives the
caller's setting back when it returns or raises.  Its occurrence lists,
one per variable, outlive the young collections their allocation
triggers, so propagations drive the collector into full collections.
Each rescans every clause of every bound in memory (about 50k objects for
a pair of 5k-variable bounds), although a propagation frees no cycle.
"""
from __future__ import annotations

import gc

from .errors import NotHorn, UniverseMismatch
from .formula import CNF, Clause
from .semantics import Model


def _propagate(n: int, clauses):
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _least_model(n, clauses)
    finally:
        if enabled:
            gc.enable()


def _least_model(n: int, clauses):
    heads = []
    counts = []
    occ = [[] for _ in range(n)]
    trigger = []
    for ci, cl in enumerate(clauses):
        head = -1
        cnt = 0
        for code in cl.codes:
            if code & 1:
                occ[code >> 1].append(ci)
                cnt += 1
            elif head < 0:
                head = code >> 1
            else:
                raise NotHorn("not Horn: a clause has two positive literals")
        heads.append(head)
        counts.append(cnt)
        if cnt == 0:
            trigger.append(ci)
    assigned = bytearray(n)
    while trigger:
        ci = trigger.pop()
        head = heads[ci]
        if head < 0:
            return None
        if assigned[head]:
            continue
        assigned[head] = 1
        for cj in occ[head]:
            counts[cj] -= 1
            if counts[cj] == 0:
                trigger.append(cj)
    mask = 0
    for v in range(n):
        if assigned[v]:
            mask |= 1 << v
    return Model(mask, n)


def horn_sat(cnf: CNF) -> Model | None:
    """Minimal model of a Horn CNF, or None when unsatisfiable.

    The returned model is the least fixpoint of unit propagation: every
    variable not forced true is false, so it is pointwise below every
    model of the formula.  A non-Horn CNF raises NotHorn from the
    propagation's setup pass, even when it is also unsatisfiable.
    """
    return _propagate(len(cnf.universe), cnf.clauses)


def entails(cnf: CNF, clause: Clause) -> bool:
    """Whether a Horn CNF entails a clause, by refutation.

    The query clause may be arbitrary: its negation contributes only unit
    clauses, so the refutation stays Horn and runs in linear time.  A
    non-Horn base raises NotHorn from the propagation's setup pass.
    """
    negation = tuple(Clause.from_codes((code ^ 1,)) for code in clause.codes)
    return _propagate(len(cnf.universe), cnf.clauses + negation) is None


def entails_cnf(a: CNF, b: CNF) -> bool:
    """Whether Horn CNF a entails every clause of b."""
    if a.universe != b.universe:
        raise UniverseMismatch("entailment across different universes")
    return all(entails(a, cl) for cl in b.clauses)
