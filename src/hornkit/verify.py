"""Oracle-equivalence suites: the fast constructions against exact enumeration.

Each suite draws seeded random instances, checks the corresponding
invariant, and on the first mismatch prints a (shrunk, where cheap)
counterexample.  The command-line `verify` subcommand is a thin wrapper.
"""
from __future__ import annotations

import random

from .change import MODEL_BASED, FormalismTag, fuv_update, update_models
from .config import DEFAULT_LIMITS, Limits
from .errors import NeedsSemanticFallback
from .fastpath import fast_update
from .formula import CNF
from .generators import (
    contradicting_horn_clause,
    random_clause,
    random_hypergraph,
    random_model_set,
    random_satisfiable_horn,
)
from .hornsat import horn_sat
from .recompile import init_horn, step
from .reductions import fuv_reduction, transversals
from .semantics import (
    ModelSet,
    and_closure,
    characteristic_models,
    close_masks,
    cores_from_models,
    enumerate_models,
    envelope_from_models,
)

_MODEL_TAGS = sorted(MODEL_BASED, key=lambda t: t.value)


def _shrink_fastpath_instance(g, phi, tag, failing):
    """Greedily drop base clauses while the mismatch persists."""
    clauses = list(g.clauses)
    i = 0
    while i < len(clauses):
        candidate = CNF(g.universe, tuple(clauses[:i] + clauses[i + 1:]))
        if horn_sat(candidate) is not None and failing(candidate, phi, tag):
            clauses.pop(i)
        else:
            i += 1
    return CNF(g.universe, tuple(clauses))


def _fastpath_mismatch(g, phi, tag, limits):
    """Empty string when fast path and enumeration agree, else a description."""
    try:
        envelope, cores = fast_update(g, phi, tag)
    except NeedsSemanticFallback:
        return "unexpected fallback on an inconsistent update"
    exact = update_models(enumerate_models(g, limits),
                          enumerate_models(CNF(g.universe, (phi,)), limits), tag)
    closure = and_closure(exact)
    if enumerate_models(envelope, limits) != closure:
        return "envelope models differ from the closure of the exact update"
    exact_masks = exact.masks
    for core in cores:
        core_masks = enumerate_models(core, limits).masks
        if not core_masks <= exact_masks:
            return "core has models outside the exact update"
        if close_masks(core_masks) != set(core_masks):
            return "core model set is not AND-closed"
        for extra in exact_masks - core_masks:
            closed = close_masks(core_masks | {extra})
            if closed <= exact_masks:
                return "core is not maximal (extendable by a model)"
    return ""


def run_fastpath_suite(n, trials, seed, out, limits=DEFAULT_LIMITS,
                       tags=None) -> bool:
    rng = random.Random(seed)
    tags = list(tags) if tags else _MODEL_TAGS
    done = 0
    while done < trials:
        g = random_satisfiable_horn(rng, rng.randint(min(3, n), n))
        phi = contradicting_horn_clause(rng, g)
        if phi is None:
            continue
        done += 1
        for tag in tags:
            reason = _fastpath_mismatch(g, phi, tag, limits)
            if reason:
                failing = lambda gg, pp, tt: bool(_fastpath_mismatch(gg, pp, tt, limits))
                small = _shrink_fastpath_instance(g, phi, tag, failing)
                out(f"fastpath: FAIL ({reason})")
                out(f"  tag: {tag.value}")
                out(f"  base: {small.one_line()}")
                out(f"  clause: {phi.text(g.universe)}")
                return False
    out(f"fastpath: PASS ({trials} trials, {len(tags)} formalisms)")
    return True


def run_closure_suite(n, trials, seed, out, limits=DEFAULT_LIMITS) -> bool:
    rng = random.Random(seed)
    for _ in range(trials):
        ms = random_model_set(rng, rng.randint(min(2, n), n))
        closed = and_closure(ms)
        if and_closure(closed) != closed:
            out(f"closure: FAIL (not idempotent on {ms.texts()})")
            return False
        chars = characteristic_models(closed)
        if close_masks(chars.masks) != set(closed.masks):
            out(f"closure: FAIL (characteristic models do not regenerate {ms.texts()})")
            return False
        envelope = envelope_from_models(ms, limits)
        if enumerate_models(envelope, limits) != closed:
            out(f"closure: FAIL (envelope models differ on {ms.texts()})")
            return False
        if len(ms) <= limits.core_models:
            for core in cores_from_models(ms, "all-exact", limits):
                core_masks = enumerate_models(core, limits).masks
                if not core_masks <= ms.masks or close_masks(core_masks) != set(core_masks):
                    out(f"closure: FAIL (bad core on {ms.texts()})")
                    return False
    out(f"closure: PASS ({trials} trials)")
    return True


def run_bijection_suite(trials, seed, out, limits=DEFAULT_LIMITS) -> bool:
    rng = random.Random(seed)
    for _ in range(trials):
        h = random_hypergraph(rng, max_vertices=7)
        complements = {
            frozenset(range(1, h.n + 1)) - frozenset(t) for t in transversals(h)
        }
        kb, phi = fuv_reduction(h)
        survivors = set()
        for base in fuv_update(kb, phi, limits):
            names = set(base.names()) - {"phi"}
            survivors.add(frozenset(int(name[1:]) for name in names))
        if complements != survivors:
            out("bijection: FAIL")
            out(f"  hypergraph: n={h.n} edges={[sorted(e) for e in h.edges]}")
            out(f"  transversal complements: {sorted(map(sorted, complements))}")
            out(f"  maximal consistent subsets: {sorted(map(sorted, survivors))}")
            return False
    out(f"bijection: PASS ({trials} trials)")
    return True


def run_bracketing_suite(sessions, steps, seed, out, n=8,
                         limits=DEFAULT_LIMITS) -> bool:
    """Winslett sessions keep lower |= exact |= upper against brute force."""
    rng = random.Random(seed)
    for _ in range(sessions):
        size = rng.randint(min(4, n), n)
        g = random_satisfiable_horn(rng, size)
        state = init_horn(g, FormalismTag.WINSLETT)
        exact = enumerate_models(g, limits)
        for _ in range(steps):
            clause = random_clause(rng, size, max_width=3, horn=True)
            phi = CNF(g.universe, (clause,))
            state = step(state, phi, core_mode="greedy", limits=limits)
            exact = update_models(exact, enumerate_models(phi, limits),
                                  FormalismTag.WINSLETT)
            lower = enumerate_models(state.lower, limits).masks
            upper = enumerate_models(state.upper, limits).masks
            if not (lower <= exact.masks and exact.masks <= upper):
                out("bracketing: FAIL")
                out(f"  start: {g.one_line()}")
                out(f"  update: {phi.one_line()}")
                out(f"  lower: {sorted(lower)} exact: {sorted(exact.masks)} "
                    f"upper: {sorted(upper)}")
                return False
    out(f"bracketing: PASS ({sessions} sessions x {steps} steps)")
    return True


def find_additivity_witness(n, trials, seed, tag, limits=DEFAULT_LIMITS):
    """Search for model sets with (A u B) + phi != (A + phi) u (B + phi).

    Returns (g1, g2, f) masksets on success, None when no witness shows up
    (expected for winslett, whose update distributes over unions).
    """
    rng = random.Random(seed)
    tag = FormalismTag(tag)
    for _ in range(trials):
        size = rng.randint(min(2, n), n)
        g = random_model_set(rng, size, max_size=8)
        if len(g) < 2:
            continue
        f = random_model_set(rng, size, max_size=8)
        masks = g.sorted_masks()
        half = len(masks) // 2
        g1 = ModelSet(g.universe, masks[:half])
        g2 = ModelSet(g.universe, masks[half:])
        if not g1.masks or not g2.masks or not f.masks:
            continue
        whole = update_models(g, f, tag)
        split = update_models(g1, f, tag).masks | update_models(g2, f, tag).masks
        if whole.masks != split:
            return g1, g2, f
    return None
