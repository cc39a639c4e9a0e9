"""Linear-time envelope and core of a Horn base updated by one Horn clause.

When the base contradicts the clause, the base factors as the clause's
body variables forced true (and its head forced false) conjoined with a
remainder obtained by substitution.  The updated envelope and the k
candidate cores are then emitted directly as Horn CNF, without ever
enumerating models; all five model-based formalisms coincide on this case.
One propagation over the base decides the case.  Each result is one
canonical-form operation of formula.py on the canonical base: CNF.conjoin
with the clause when the base is consistent with it, else condition on
the forced literals followed by CNF.conjoin with a few added clauses.
Each is linear and flagged canonical, so writing it out costs no second
canonicalisation.
"""
from __future__ import annotations

from .change import MODEL_BASED, FormalismTag
from .errors import (
    BadIndex,
    NeedsSemanticFallback,
    NotHorn,
    UnsatisfiableBase,
    UnsatisfiableUpdate,
)
from .formula import CNF, Clause, condition
from .hornsat import entails, horn_sat


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
        combined = g.conjoin((phi,))
        return combined, [combined]

    # base contradicts the clause: every body variable is forced true and
    # the head (if any) false, so the remainder drops out by substitution
    remainder = condition(g, {**dict.fromkeys(body, True), **dict.fromkeys(heads, False)})
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
    # Canonical core order: an added list E mentions only assigned
    # variables, the remainder R none, and no clause of E subsumes
    # another, so R.conjoin(E) is R with all of E merged in by sort key.
    # All Es have one size, so these merged lists compare as the sorted Es.
    cores_added.sort(key=lambda added: sorted(map(Clause.sort_key, added)))
    return remainder.conjoin(envelope_added), [remainder.conjoin(a) for a in cores_added]


def pick_core(cores: list, pick: int) -> CNF:
    """cores[pick - 1]; a pick outside 1..len(cores) raises BadIndex."""
    if not 1 <= pick <= len(cores):
        raise BadIndex(f"core index {pick} out of range 1..{len(cores)}")
    return cores[pick - 1]


def fast_update_pick(g: CNF, phi: Clause, tag: FormalismTag, pick: int = 1):
    """fast_update with one core selected by pick_core."""
    envelope, cores = fast_update(g, phi, tag)
    return envelope, pick_core(cores, pick)
