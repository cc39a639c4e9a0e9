"""Linear-time envelope and core of a Horn base updated by one Horn clause.

When the base contradicts the clause, the base factors as the clause's
body variables forced true (and its head forced false) conjoined with a
remainder obtained by substitution.  The updated envelope and the k
candidate cores are then emitted directly as Horn CNF, without ever
enumerating models; all five model-based formalisms coincide on this case.
Each is the remainder plus a few added clauses and is not canonicalised:
canonical form is an output format, applied where a bound is written out.
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
from .hornsat import horn_sat


def fast_update(g: CNF, phi: Clause, tag: FormalismTag):
    """Envelope and core list for a Horn base updated by a Horn clause.

    Returns (envelope, cores).  The cores are listed in the order of their
    canonical forms, but no result is itself in canonical form.  When
    the base is consistent with the clause the result is simply their
    conjunction, except under winslett whose projection semantics has no
    known fast construction for that case (NeedsSemanticFallback).
    """
    tag = FormalismTag(tag)
    if tag not in MODEL_BASED:
        raise ValueError(f"{tag.value} is not a model-based formalism")
    if not phi.horn():
        raise NotHorn("update clause must be Horn")
    if not g.horn():
        raise NotHorn("base must be Horn")
    if horn_sat(g) is None:
        raise UnsatisfiableBase("cannot update an unsatisfiable base")
    if phi.is_empty():
        raise UnsatisfiableUpdate("cannot update by the empty clause")

    combined = g.extend((phi,))
    if horn_sat(combined) is not None:
        if tag is FormalismTag.WINSLETT:
            raise NeedsSemanticFallback(
                "winslett prefers the projection even when base and clause agree")
        return combined, [combined]

    # base contradicts the clause: every body variable is forced true and
    # the head (if any) false, so the remainder drops out by substitution
    body, heads = phi.neg_vars(), phi.pos_vars()
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
    # Canonical core order: a core's added clauses E mention only assigned
    # variables, the remainder R none, R has no empty clause (g entails the
    # assignment) and no clause of E subsumes another.  So canonical(R ∪ E) = canonical(R) ∪ E,
    # all Es have one size, and these merged lists compare as the sorted Es.
    # Conditioning preserves subsumption: canonical(R) is one whether or not
    # g was canonical.
    cores_added.sort(key=lambda added: sorted(map(Clause.sort_key, added)))
    return remainder.extend(envelope_added), [remainder.extend(a) for a in cores_added]


def fast_update_pick(g: CNF, phi: Clause, tag: FormalismTag, pick: int = 1):
    """fast_update with one core selected.

    pick is a 1-based index into the canonical core list; out-of-range
    indices raise BadIndex.
    """
    envelope, cores = fast_update(g, phi, tag)
    if not 1 <= pick <= len(cores):
        raise BadIndex(f"core index {pick} out of range 1..{len(cores)}")
    return envelope, cores[pick - 1]
