import random

import pytest

from hornkit import (
    CNF,
    BadIndex,
    Clause,
    FormalismTag,
    NeedsSemanticFallback,
    NotHorn,
    UnsatisfiableBase,
    UnsatisfiableUpdate,
    VarUniverse,
    and_closure,
    enumerate_models,
    fast_update,
    fast_update_pick,
    horn_sat,
    parse_clause,
    update_cnf,
)
from hornkit.change import MODEL_BASED
from hornkit.generators import contradicting_horn_clause, random_clause, random_satisfiable_horn

from oracle import closure_brute, condition_in_order, is_closed_brute, models_brute

TAGS = sorted(MODEL_BASED, key=lambda t: t.value)
U5 = VarUniverse(("x", "y", "z", "w", "v"))


def cnf(universe, *texts):
    return CNF(universe, tuple(parse_clause(t, universe) for t in texts))


def equivalent(a, b):
    return models_brute(a) == models_brute(b)


def test_implication_update_with_remainder():
    # base forces x, y and not-z; updating by (x & y -> z) flips to x&y<->z
    g = cnf(U5, "x", "y", "-z", "-w v")
    phi = parse_clause("-x -y z", U5)
    envelope, cores = fast_update(g, phi, FormalismTag.DALAL)
    assert equivalent(envelope, cnf(U5, "-z x", "-z y", "-x -y z", "-w v"))
    assert len(cores) == 2
    assert equivalent(cores[0], cnf(U5, "x", "-y z", "-z y", "-w v"))
    assert equivalent(cores[1], cnf(U5, "y", "-x z", "-z x", "-w v"))


def test_negative_clause_update():
    g = cnf(U5, "x", "y", "-w v")
    phi = parse_clause("-x -y", U5)
    envelope, cores = fast_update(g, phi, FormalismTag.SATOH)
    assert equivalent(envelope, cnf(U5, "-x -y", "-w v"))
    assert len(cores) == 2
    assert equivalent(cores[0], cnf(U5, "x", "-y", "-w v"))
    assert equivalent(cores[1], cnf(U5, "y", "-x", "-w v"))


def test_consistent_case_is_conjunction():
    g = cnf(U5, "x", "-w v")
    phi = parse_clause("-x z", U5)
    for tag in TAGS:
        if tag is FormalismTag.WINSLETT:
            continue
        envelope, cores = fast_update(g, phi, tag)
        assert cores == [envelope]
        assert equivalent(envelope, cnf(U5, "x", "z", "-w v"))


def test_winslett_consistent_case_refuses():
    g = cnf(U5, "x")
    phi = parse_clause("-x z", U5)
    with pytest.raises(NeedsSemanticFallback):
        fast_update(g, phi, FormalismTag.WINSLETT)


def test_winslett_inconsistent_case_works():
    g = cnf(U5, "x", "y")
    phi = parse_clause("-x -y", U5)
    envelope, cores = fast_update(g, phi, FormalismTag.WINSLETT)
    assert equivalent(envelope, cnf(U5, "-x -y"))
    assert len(cores) == 2


def test_degenerate_unit_clauses():
    # positive unit against a base entailing its negation
    g = cnf(U5, "-z", "x")
    envelope, cores = fast_update(g, parse_clause("z", U5), FormalismTag.DALAL)
    assert cores == [envelope]
    assert equivalent(envelope, cnf(U5, "z", "x"))

    # negative unit
    g = cnf(U5, "x", "y")
    envelope, cores = fast_update(g, parse_clause("-x", U5), FormalismTag.DALAL)
    assert cores == [envelope]
    assert equivalent(envelope, cnf(U5, "-x", "y"))

    # width-two implication: both directions appear
    g = cnf(U5, "x", "-y")
    envelope, cores = fast_update(g, parse_clause("-x y", U5), FormalismTag.DALAL)
    assert cores == [envelope]
    assert equivalent(envelope, cnf(U5, "-x y", "-y x"))


def test_pick_semantics():
    g = cnf(U5, "x", "y", "-z", "-w v")
    phi = parse_clause("-x -y z", U5)
    _, first = fast_update_pick(g, phi, FormalismTag.DALAL)
    assert equivalent(first, cnf(U5, "x", "-y z", "-z y", "-w v"))
    _, second = fast_update_pick(g, phi, FormalismTag.DALAL, pick=2)
    assert equivalent(second, cnf(U5, "y", "-x z", "-z x", "-w v"))
    with pytest.raises(BadIndex):
        fast_update_pick(g, phi, FormalismTag.DALAL, pick=3)
    with pytest.raises(BadIndex):
        fast_update_pick(g, phi, FormalismTag.DALAL, pick=0)


def test_input_validation():
    g = cnf(U5, "x")
    with pytest.raises(NotHorn):
        fast_update(g, parse_clause("x y", U5), FormalismTag.DALAL)
    with pytest.raises(NotHorn):
        fast_update(cnf(U5, "x y"), parse_clause("-x", U5), FormalismTag.DALAL)
    with pytest.raises(UnsatisfiableBase):
        fast_update(cnf(U5, "x", "-x"), parse_clause("-x", U5), FormalismTag.DALAL)
    with pytest.raises(UnsatisfiableUpdate):
        fast_update(g, Clause(), FormalismTag.DALAL)
    with pytest.raises(ValueError):
        fast_update(g, parse_clause("-x", U5), FormalismTag.WIDTIO)


def test_all_cores_have_equal_model_counts():
    rng = random.Random(31)
    done = 0
    while done < 100:
        g = random_satisfiable_horn(rng, rng.randint(3, 8))
        phi = contradicting_horn_clause(rng, g)
        if phi is None:
            continue
        done += 1
        _, cores = fast_update(g, phi, FormalismTag.DALAL)
        counts = {len(models_brute(c)) for c in cores}
        assert len(counts) == 1


def test_fast_update_matches_semantic_oracle():
    rng = random.Random(32)
    done = 0
    while done < 200:
        g = random_satisfiable_horn(rng, rng.randint(3, 9))
        phi = contradicting_horn_clause(rng, g)
        if phi is None:
            continue
        done += 1
        for tag in TAGS:
            envelope, cores = fast_update(g, phi, tag)
            exact = update_cnf(g, CNF(g.universe, (phi,)), tag)
            assert models_brute(envelope) == closure_brute(exact.masks)
            for core in cores:
                core_masks = frozenset(models_brute(core))
                assert core_masks <= exact.masks
                assert is_closed_brute(core_masks)
                for extra in exact.masks - core_masks:
                    assert not closure_brute(core_masks | {extra}) <= exact.masks


def test_consistent_case_matches_oracle():
    rng = random.Random(33)
    done = 0
    while done < 200:
        g = random_satisfiable_horn(rng, rng.randint(3, 9))
        from hornkit.generators import random_clause
        phi = random_clause(rng, len(g.universe), horn=True)
        try:
            envelope, cores = fast_update(g, phi, FormalismTag.DALAL)
        except NeedsSemanticFallback:
            continue
        exact = update_cnf(g, CNF(g.universe, (phi,)), FormalismTag.DALAL)
        assert models_brute(envelope) == closure_brute(exact.masks)
        done += 1


def _reference_fast_update(g, phi):
    """Reference: the fast path's construction for a base contradicting phi,
    one builder per clause shape, with the envelope and every core
    canonicalised and the cores sorted on their canonical clause lists.
    A base consistent with phi gives the canonical conjunction."""
    def unit(var, positive):
        return Clause.from_codes((2 * var + (0 if positive else 1),))

    if horn_sat(g.extend((phi,))) is not None:
        combined = g.extend((phi,)).canonical()
        return combined, [combined]
    body = list(phi.neg_vars())
    head = phi.head_var()
    assignment = {v: True for v in body}
    if head is not None:
        assignment[head] = False
    remainder = condition_in_order(g, assignment)
    if head is None:
        envelope = remainder.extend((phi,)).canonical()
        cores = []
        for i in body:
            extra = [unit(i, False)]
            extra.extend(unit(j, True) for j in body if j != i)
            cores.append(remainder.extend(extra).canonical())
    elif not body:
        envelope = remainder.extend((unit(head, True),)).canonical()
        cores = [envelope]
    else:
        extra = [Clause.from_codes((2 * head + 1, 2 * i)) for i in body]
        envelope = remainder.extend(extra + [phi]).canonical()
        cores = []
        for i in body:
            extra = [unit(j, True) for j in body if j != i]
            extra.append(Clause.from_codes((2 * i + 1, 2 * head)))
            extra.append(Clause.from_codes((2 * head + 1, 2 * i)))
            cores.append(remainder.extend(extra).canonical())
    cores.sort(key=lambda c: [cl.sort_key() for cl in c.clauses])
    return envelope, cores


def test_fast_update_canonical_forms_match_reference():
    rng = random.Random(34)
    shapes = set()
    for _ in range(300):
        n = rng.randint(6, 12)
        g = random_satisfiable_horn(rng, n, max_clauses=2 * n, unit_bias=0.8)
        minimal = horn_sat(g)
        entailed_true = [v for v in range(n) if minimal.bit(v)]
        entailed_false = [v for v in range(n) if not minimal.bit(v) and
                          horn_sat(g.extend((Clause.from_codes((2 * v,)),))) is None]
        shape = rng.choice(("no head", "no body", "body and head"))
        if shape == "no body":
            if not entailed_false:
                continue
            codes = [2 * rng.choice(entailed_false)]
        else:
            size = rng.randint(1, 5)
            if len(entailed_true) < size or (shape == "body and head" and not entailed_false):
                continue
            codes = [2 * v + 1 for v in rng.sample(entailed_true, size)]
            if shape == "body and head":
                codes.append(2 * rng.choice(entailed_false))
        shapes.add((shape, len(codes)))
        phi = Clause.from_codes(codes)
        want_envelope, want_cores = _reference_fast_update(g, phi)
        for tag in TAGS:
            envelope, cores = fast_update(g, phi, tag)
            assert envelope.canonical() == want_envelope
            assert [c.canonical() for c in cores] == want_cores
            for k, want in enumerate(want_cores, start=1):
                assert fast_update_pick(g, phi, tag, k)[1].canonical() == want
    assert {shape for shape, _ in shapes} == {"no head", "no body", "body and head"}
    assert {size for shape, size in shapes if shape == "no head"} == {1, 2, 3, 4, 5}


def _scrambled(rng, g):
    """An equivalent non-canonical copy of g: shuffled, with duplicated
    clauses and clauses that others subsume (one more negative literal)."""
    n = len(g.universe)
    clauses = list(g.clauses)
    for cl in rng.sample(clauses, min(3, len(clauses))):
        clauses.append(cl)
        free = [v for v in range(n) if v not in {c >> 1 for c in cl.codes}]
        if free:
            clauses.append(Clause.from_codes(cl.codes + (2 * rng.choice(free) + 1,)))
    rng.shuffle(clauses)
    return CNF(g.universe, clauses)


def _consistent_clause(rng, g, how):
    """A Horn clause consistent with g that properly subsumes a clause of g,
    is properly subsumed by one, or is random; None if none was found."""
    n = len(g.universe)
    wide = [cl for cl in g.clauses if len(cl) >= 2]
    if how == "subsumes" and wide:
        codes = list(rng.choice(wide).codes)
        codes.pop(rng.randrange(len(codes)))
    elif how == "subsumed" and g.clauses:
        codes = list(rng.choice(g.clauses).codes)
        free = [v for v in range(n) if v not in {c >> 1 for c in codes}]
        if not free:
            return None
        codes.append(2 * rng.choice(free) + 1)
    else:
        codes = list(random_clause(rng, n, 5, horn=True).codes)
    phi = Clause.from_codes(codes)
    return phi if horn_sat(g.extend((phi,))) is not None else None


def _assert_canonical(r):
    assert r.canonical() is r
    assert CNF(r.universe, r.clauses).canonical().clauses == r.clauses


def test_fast_update_is_the_canonical_reference():
    # every output equals the old construction clause for clause and is
    # truly canonical, on canonical and scrambled bases alike
    rng = random.Random(35)
    seen = set()
    for _ in range(600):
        n = rng.randint(3, 12)
        g = random_satisfiable_horn(rng, n, max_clauses=2 * n, unit_bias=0.8)
        # more facts, so that bodies of five entailed variables occur
        for v in rng.sample(range(n), n // 2):
            if horn_sat(g.extend((Clause.from_codes((2 * v,)),))) is not None:
                g = g.extend((Clause.from_codes((2 * v,)),))
        canonical = rng.random() < 0.5
        g = g.canonical() if canonical else _scrambled(rng, g)
        minimal = horn_sat(g)
        entailed_true = [v for v in range(n) if minimal.bit(v)]
        entailed_false = [v for v in range(n) if not minimal.bit(v) and
                          horn_sat(g.extend((Clause.from_codes((2 * v,)),))) is None]
        shape = rng.choice(("no head", "no body", "body and head",
                            "subsumes", "subsumed", "random"))
        if shape in ("subsumes", "subsumed", "random"):
            phi = _consistent_clause(rng, g, shape)
            if phi is None:
                continue
            size = None
        elif shape == "no body":
            if not entailed_false:
                continue
            phi = Clause.from_codes((2 * rng.choice(entailed_false),))
            size = 0
        else:
            if not entailed_true or (shape == "body and head" and not entailed_false):
                continue
            size = rng.randint(1, min(5, len(entailed_true)))
            codes = [2 * v + 1 for v in rng.sample(entailed_true, size)]
            if shape == "body and head":
                codes.append(2 * rng.choice(entailed_false))
            phi = Clause.from_codes(codes)
        seen.add((shape, size, canonical))
        want_envelope, want_cores = _reference_fast_update(g, phi)
        for tag in TAGS:
            if size is None and tag is FormalismTag.WINSLETT:
                with pytest.raises(NeedsSemanticFallback):
                    fast_update(g, phi, tag)
                continue
            envelope, cores = fast_update(g, phi, tag)
            assert envelope.clauses == want_envelope.clauses
            assert [c.clauses for c in cores] == [c.clauses for c in want_cores]
            for r in [envelope] + cores:
                _assert_canonical(r)
            for k, want in enumerate(want_cores, start=1):
                assert fast_update_pick(g, phi, tag, k)[1].clauses == want.clauses
    assert {shape for shape, _, _ in seen} == {
        "no head", "no body", "body and head", "subsumes", "subsumed", "random"}
    for shape in ("no head", "body and head"):
        assert {size for s, size, _ in seen if s == shape} == {1, 2, 3, 4, 5}
    assert {canonical for _, _, canonical in seen} == {True, False}
