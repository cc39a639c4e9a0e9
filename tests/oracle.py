"""Independent brute-force oracles used to cross-check the library.

Everything here recomputes results from first principles (literal-level
satisfaction, exhaustive subsets) so the tests never trust the code path
they are checking.
"""
from itertools import combinations

from hornkit import CNF, Clause


def clause_satisfied(clause, mask):
    for lit in clause.literals:
        if bool((mask >> lit.var) & 1) == lit.positive:
            return True
    return False


def cnf_satisfied(cnf, mask):
    return all(clause_satisfied(cl, mask) for cl in cnf.clauses)


def condition_in_order(cnf, assignment):
    """Substitution clause by clause, in the input's order and left
    uncanonicalised: satisfied clauses drop, falsified literals go."""
    out = []
    for cl in cnf.clauses:
        if any((not code & 1) == bool(assignment[code >> 1])
               for code in cl.codes if code >> 1 in assignment):
            continue
        out.append(Clause.from_codes(c for c in cl.codes if c >> 1 not in assignment))
    return CNF(cnf.universe, out)


def models_brute(cnf):
    n = len(cnf.universe)
    return {m for m in range(1 << n) if cnf_satisfied(cnf, m)}


def closure_brute(masks):
    """AND-closure by repeated full pairwise sweeps."""
    closed = set(masks)
    while True:
        extra = {a & b for a in closed for b in closed} - closed
        if not extra:
            return closed
        closed |= extra


def is_closed_brute(masks):
    masks = set(masks)
    return all(a & b in masks for a in masks for b in masks)


def hitting_sets_brute(n, edges):
    """All minimal hitting sets over vertices 1..n, by full subset scan."""
    hitting = [
        frozenset(s)
        for size in range(n + 1)
        for s in combinations(range(1, n + 1), size)
        if all(set(s) & set(e) for e in edges)
    ]
    return {h for h in hitting if not any(o < h for o in hitting)}


def min_cover_brute(n, edges):
    """Minimum node cover size over nodes 1..n."""
    for size in range(n + 1):
        for s in combinations(range(1, n + 1), size):
            chosen = set(s)
            if all(a in chosen or b in chosen for a, b in edges):
                return size
    return n
