"""Linear-time envelope and core of a Horn base updated by one Horn clause.

When the base contradicts the clause, the base factors as the clause's
body variables forced true (and its head forced false) conjoined with a
remainder obtained by substitution.  The updated envelope and the k
candidate cores are then emitted directly as Horn CNF, without ever
enumerating models; all five model-based formalisms coincide on this case.
One propagation over the base decides the case.  Every result is built in
canonical form, in one linear pass over the canonical base, and carries
the canonical flag, so writing it out costs no second canonicalisation.
"""
from __future__ import annotations

from bisect import insort

from .change import MODEL_BASED, FormalismTag
from .errors import (
    BadIndex,
    NeedsSemanticFallback,
    NotHorn,
    UnsatisfiableBase,
    UnsatisfiableUpdate,
)
from .formula import CNF, Clause
from .hornsat import entails, horn_sat


def _merged(universe, base: list, added) -> CNF:
    """Canonical CNF of the canonical clause list base plus added clauses
    that stand in no subsumption relation with base or with each other."""
    out = list(base)
    for cl in added:
        insort(out, cl, key=Clause.sort_key)
    return CNF._from_canonical(universe, tuple(out))


def _conjoin(g: CNF, phi: Clause) -> CNF:
    """canonical(g ∧ phi) for a canonical g, in one pass over g."""
    codes = set(phi.codes)
    if any(codes.issuperset(cl.codes) for cl in g.clauses):
        return g
    # no clause of g subsumes phi, so a clause containing phi contains it
    # properly and drops out; the rest stay subsumption-free
    first = phi.codes[0]
    kept = [cl for cl in g.clauses if not (first in cl.codes and codes.issubset(cl.codes))]
    return _merged(g.universe, kept, (phi,))


def _remainder(g: CNF, assignment: dict) -> list:
    """Sorted canonical form of g conditioned on an assignment g entails.

    g is canonical.  One pass drops the satisfied clauses, keeps the
    untouched ones in order and collects the shortened ones.  g is
    subsumption-free, so no untouched clause subsumes a shortened one (it
    would properly subsume the clause that was shortened); and since g
    entails the assignment, no clause shortens to the empty clause.  Only
    a shortened clause can make an untouched clause redundant, and it then
    holds the shortened clause's least literal, which indexes the test.
    """
    touched = {2 * v + s for v in assignment for s in (0, 1)}
    satisfied = {2 * v + (0 if value else 1) for v, value in assignment.items()}
    untouched, shortened = [], []
    for cl in g.clauses:
        if touched.isdisjoint(cl.codes):
            untouched.append(cl)
        elif satisfied.isdisjoint(cl.codes):
            shortened.append(Clause.from_codes(c for c in cl.codes if c not in touched))
    shortened = CNF(g.universe, shortened).canonical().clauses
    if shortened:
        by_least = {}
        for cl in shortened:
            by_least.setdefault(cl.codes[0], []).append(frozenset(cl.codes))
        untouched = [
            cl for cl in untouched
            if by_least.keys().isdisjoint(cl.codes)
            or not any(s.issubset(cl.codes) for c in cl.codes for s in by_least.get(c, ()))
        ]
        for cl in shortened:
            insort(untouched, cl, key=Clause.sort_key)
    return untouched


def fast_update(g: CNF, phi: Clause, tag: FormalismTag):
    """Envelope and core list for a Horn base updated by a Horn clause.

    Returns (envelope, cores), each in canonical form and flagged so, with
    the cores listed in canonical order.  When the base is consistent with
    the clause the result is simply their conjunction, except under
    winslett whose projection semantics has no known fast construction for
    that case (NeedsSemanticFallback).  A non-Horn base raises NotHorn from
    the propagation that finds its least model, before UnsatisfiableBase.
    """
    tag = FormalismTag(tag)
    if tag not in MODEL_BASED:
        raise ValueError(f"{tag.value} is not a model-based formalism")
    if not phi.horn():
        raise NotHorn("update clause must be Horn")
    # g as given: canonical() could drop a subsumed non-Horn clause
    least = horn_sat(g)
    g = g.canonical()
    if least is None:
        raise UnsatisfiableBase("cannot update an unsatisfiable base")
    if phi.is_empty():
        raise UnsatisfiableUpdate("cannot update by the empty clause")

    # Every model of g lies above its least model M.  The base contradicts
    # phi = ¬B ∨ h iff g entails B (B ⊆ M) and g entails ¬h; only the
    # second test, needed when h is false in M, costs a propagation.
    body, heads = phi.neg_vars(), phi.pos_vars()
    contradicts = all(least.bit(v) for v in body) and all(
        not least.bit(h) and entails(g, Clause.from_codes((2 * h + 1,))) for h in heads)
    if not contradicts:
        if tag is FormalismTag.WINSLETT:
            raise NeedsSemanticFallback(
                "winslett prefers the projection even when base and clause agree")
        combined = _conjoin(g, phi)
        return combined, [combined]

    # base contradicts the clause: every body variable is forced true and
    # the head (if any) false, so the remainder drops out by substitution
    remainder = _remainder(g, {**dict.fromkeys(body, True), **dict.fromkeys(heads, False)})
    # ¬h ∨ i for each body variable i: wherever the head holds, so does i
    back = {i: [Clause.from_codes((2 * h + 1, 2 * i)) for h in heads] for i in body}
    envelope_added = [cl for i in body for cl in back[i]] + [phi]
    # core i drops body variable i: the other body variables are facts and
    # i becomes ¬i (no head) or equivalent to the head.  With one body
    # variable this is the envelope's list, in the envelope's order; with
    # none, the envelope is the one core.
    cores_added = [
        [Clause.from_codes((2 * j,)) for j in body if j != i] + back[i]
        + [Clause.from_codes([2 * i + 1] + [2 * h for h in heads])]
        for i in body
    ] or [envelope_added]
    # Canonical forms: an added list E mentions only assigned variables,
    # the remainder R none, R has no empty clause and no clause of E
    # subsumes another.  So canonical(R ∪ E) is R with E merged in by sort
    # key.  Canonical core order: all Es have one size, so these merged
    # lists compare as the sorted Es.
    cores_added.sort(key=lambda added: sorted(map(Clause.sort_key, added)))
    return (_merged(g.universe, remainder, envelope_added),
            [_merged(g.universe, remainder, a) for a in cores_added])


def pick_core(cores: list, pick: int) -> CNF:
    """cores[pick - 1]; a pick outside 1..len(cores) raises BadIndex."""
    if not 1 <= pick <= len(cores):
        raise BadIndex(f"core index {pick} out of range 1..{len(cores)}")
    return cores[pick - 1]


def fast_update_pick(g: CNF, phi: Clause, tag: FormalismTag, pick: int = 1):
    """fast_update with one core selected by pick_core."""
    envelope, cores = fast_update(g, phi, tag)
    return envelope, pick_core(cores, pick)
