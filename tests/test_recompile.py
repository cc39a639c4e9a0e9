import os
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornkit import (
    CNF,
    BadIndex,
    FormalismTag,
    NeedsSemanticFallback,
    NotHorn,
    QueryVerdict,
    UniverseTooLarge,
    UnsatisfiableBase,
    UnsatisfiableUpdate,
    VarUniverse,
    check_bracket,
    enumerate_models,
    fast_update,
    init_compile,
    init_horn,
    parse_clause,
    query,
    session_from_json,
    session_to_json,
    step,
    update_models,
    write_session,
)
from hornkit import recompile
from hornkit.change import MODEL_BASED
from hornkit.generators import (
    contradicting_horn_clause,
    random_clause,
    random_satisfiable_horn,
    universe_of,
)

from oracle import models_brute

XYZ = VarUniverse(("x", "y", "z"))
TAGS = sorted(MODEL_BASED, key=lambda t: t.value)
NON_ADDITIVE = (FormalismTag.DALAL, FormalismTag.SATOH,
                FormalismTag.BORGIDA, FormalismTag.FORBUS)


def cnf(universe, *texts):
    return CNF(universe, tuple(parse_clause(t, universe) for t in texts))


def gamma0():
    return cnf(XYZ, "x y", "x z", "y -z", "-y z")


def test_init_horn():
    state = init_horn(cnf(XYZ, "x", "y"), FormalismTag.DALAL)
    assert state.lower == state.upper == cnf(XYZ, "x", "y").canonical()
    assert state.log == ()
    assert check_bracket(state)


def test_init_horn_top():
    state = init_horn(CNF(XYZ), FormalismTag.DALAL)
    assert state.lower.is_true() and state.upper.is_true()


def test_init_horn_rejects():
    with pytest.raises(UnsatisfiableBase):
        init_horn(cnf(XYZ, "x", "-x"), FormalismTag.DALAL)
    with pytest.raises(NotHorn):
        init_horn(cnf(XYZ, "x y"), FormalismTag.DALAL)
    with pytest.raises(ValueError):
        init_horn(cnf(XYZ, "x"), FormalismTag.FUV)


def test_init_compile_example():
    state = init_compile(gamma0(), FormalismTag.DALAL)
    assert models_brute(state.lower) == models_brute(cnf(XYZ, "y", "z"))
    assert models_brute(state.upper) == models_brute(cnf(XYZ, "y -z", "-y z"))
    assert check_bracket(state)


def test_init_compile_horn_fixed_point():
    g = cnf(XYZ, "-x y", "z")
    state = init_compile(g, FormalismTag.DALAL)
    assert models_brute(state.lower) == models_brute(g)
    assert models_brute(state.upper) == models_brute(g)


def test_init_compile_brackets_random_inputs():
    rng = random.Random(41)
    from hornkit.generators import random_cnf
    done = 0
    while done < 150:
        g = random_cnf(rng, rng.randint(2, 8), max_clauses=6)
        gm = models_brute(g)
        if not gm or len(gm) > 20:
            continue
        done += 1
        state = init_compile(g, FormalismTag.DALAL)
        lower = models_brute(state.lower)
        upper = models_brute(state.upper)
        assert lower <= gm <= upper
        from oracle import closure_brute
        assert upper == closure_brute(gm)


def test_breakdown_sequence_non_additive():
    phi = cnf(XYZ, "-x", "-y")
    for tag in NON_ADDITIVE:
        state = init_compile(gamma0(), tag)
        stepped = step(state, phi)
        assert models_brute(stepped.lower) == models_brute(cnf(XYZ, "-x", "-y", "z"))
        assert models_brute(stepped.upper) == models_brute(cnf(XYZ, "-x", "-y", "-z"))
        assert not check_bracket(stepped)
        assert stepped.log[-1].path == "semantic"


def test_breakdown_sequence_winslett_keeps_bracket():
    state = init_compile(gamma0(), FormalismTag.WINSLETT)
    stepped = step(state, cnf(XYZ, "-x", "-y"))
    assert models_brute(stepped.lower) == models_brute(cnf(XYZ, "-x", "-y", "z"))
    assert models_brute(stepped.upper) == {0b000, 0b100}  # exactly not-x and not-y
    assert check_bracket(stepped)


def test_fast_step_conjunction():
    state = init_horn(cnf(XYZ, "x"), FormalismTag.DALAL)
    stepped = step(state, cnf(XYZ, "-x y"))
    assert stepped.log[-1].path == "fast"
    assert stepped.lower == stepped.upper == cnf(XYZ, "x", "-x y").canonical()
    assert models_brute(stepped.lower) == models_brute(cnf(XYZ, "x", "y"))


def test_step_records_gap():
    state = init_compile(gamma0(), FormalismTag.DALAL)
    stepped = step(state, cnf(XYZ, "-x", "-y"))
    # the broken bracket shows up as an upper model outside the lower bound
    assert stepped.log[-1].gap == 1
    agreeing = step(init_horn(cnf(XYZ, "x"), FormalismTag.DALAL), cnf(XYZ, "y"))
    assert agreeing.log[-1].gap == 0


def test_step_rejects_unsat_update():
    state = init_horn(cnf(XYZ, "x"), FormalismTag.DALAL)
    with pytest.raises(UnsatisfiableUpdate):
        step(state, cnf(XYZ, "y", "-y"))


def test_query_verdicts():
    state = init_horn(cnf(XYZ, "x", "-x y"), FormalismTag.DALAL)
    assert query(state, parse_clause("y", XYZ)) is QueryVerdict.YES
    assert query(state, parse_clause("z", XYZ)) is QueryVerdict.NO

    broken = step(init_compile(gamma0(), FormalismTag.DALAL), cnf(XYZ, "-x", "-y"))
    assert query(broken, parse_clause("-z", XYZ)) is QueryVerdict.CONTRADICTORY_BOUNDS
    assert query(broken, parse_clause("z", XYZ)) is QueryVerdict.UNKNOWN
    assert query(broken, parse_clause("-x", XYZ)) is QueryVerdict.YES


def test_fast_and_semantic_paths_agree():
    rng = random.Random(42)
    done = 0
    while done < 150:
        n = rng.randint(3, 8)
        g = random_satisfiable_horn(rng, n)
        clause = random_clause(rng, n, horn=True)
        phi = CNF(g.universe, (clause,))
        tag = rng.choice(NON_ADDITIVE)
        state = init_horn(g, tag)
        fast = step(state, phi)
        exact = update_models(enumerate_models(state.upper),
                              enumerate_models(phi), tag)
        from oracle import closure_brute
        assert models_brute(fast.upper) == closure_brute(exact.masks)
        lower_masks = frozenset(models_brute(fast.lower))
        assert lower_masks <= exact.masks
        done += 1


def test_session_roundtrip_and_determinism():
    state = init_compile(gamma0(), FormalismTag.DALAL)
    state = step(state, cnf(XYZ, "-x", "-y"))
    text = session_to_json(state)
    again = session_from_json(text)
    assert again.lower == state.lower
    assert again.upper == state.upper
    assert again.formalism == state.formalism
    assert len(again.log) == 1
    assert again.log[0].path == state.log[0].path
    assert session_to_json(again) == text


@settings(max_examples=50, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(3, 8),
       steps=st.integers(1, 4), tag=st.sampled_from(NON_ADDITIVE))
def test_fast_steps_session_round_trip(rng, n, steps, tag):
    # fast steps leave the bounds out of canonical form; a written and
    # reloaded session must step to the same bytes as the in-memory one
    state = init_horn(random_satisfiable_horn(rng, n), tag)
    for _ in range(steps):
        # a clause the lower bound contradicts has one core per body variable
        clause = contradicting_horn_clause(rng, state.lower)
        pick = rng.randint(1, len(clause.neg_vars())) if clause else 1
        clause = clause or random_clause(rng, n, horn=True)
        text = session_to_json(state)
        loaded = session_from_json(text)
        assert session_to_json(loaded) == text
        phi = CNF(state.universe, (clause,))
        state = step(state, phi, pick=pick)
        assert state.log[-1].path == "fast"
        assert session_to_json(step(loaded, phi, pick=pick)) == session_to_json(state)


def _outcome(state, phi, pick):
    try:
        return session_to_json(step(state, phi, pick=pick, core_mode="greedy"))
    except BadIndex as exc:
        return repr(exc)


def test_shared_bounds_step_like_separate_bounds():
    # one factorisation for a pair of equal bounds must give what a step
    # of each bound on its own gives
    rng = random.Random(43)
    seen = set()
    for _ in range(300):
        n = rng.randint(3, 8)
        tag = rng.choice(TAGS)
        state = init_horn(random_satisfiable_horn(rng, n), tag)
        assert state.lower is state.upper
        copies = [
            replace(state, lower=CNF(state.universe, state.upper.clauses)),
            # shuffled, so no longer equal: each bound takes its own fast_update
            replace(state, lower=CNF(state.universe,
                                     rng.sample(state.upper.clauses, len(state.upper.clauses)))),
        ]
        clause = contradicting_horn_clause(rng, state.upper)
        if clause is None or rng.random() < 0.3:
            clause = random_clause(rng, n, horn=True)
        pick = rng.choice((1, 2, 3))
        phi = CNF(state.universe, (clause,))
        want = _outcome(state, phi, pick)
        assert all(_outcome(copy, phi, pick) == want for copy in copies)
        if want.startswith("BadIndex"):
            seen.add("bad index")
        else:
            record = session_from_json(want).log[-1]
            seen.add((record.path, record.core_pick))
            if record.path == "semantic":
                assert tag is FormalismTag.WINSLETT
    assert seen >= {"bad index", ("fast", 1), ("fast", 2), ("semantic", 0)}


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(3, 8),
       tag=st.sampled_from(TAGS))
def test_flagged_bounds_are_canonical(rng, n, tag):
    # every CNF that comes back flagged as canonical is so from scratch
    def check(r):
        if r.canonical() is r:
            assert CNF(r.universe, r.clauses).canonical().clauses == r.clauses
            return True
        return False

    g = random_satisfiable_horn(rng, n)
    doubled = g.clauses + g.clauses[:2]
    g = CNF(g.universe, rng.sample(doubled, len(doubled)))
    state = init_horn(g, tag)
    assert check(state.lower) and state.lower is state.upper
    for _ in range(3):
        clause = contradicting_horn_clause(rng, state.lower) or random_clause(rng, n, horn=True)
        try:
            envelope, cores = fast_update(state.upper, clause, tag)
            assert all(check(r) for r in [envelope] + cores)
        except NeedsSemanticFallback:
            pass
        state = step(state, CNF(state.universe, (clause,)), core_mode="greedy")
        fast = state.log[-1].path == "fast"
        assert check(state.lower) or not fast
        assert check(state.upper) or not fast


def test_refusals_come_before_enumeration(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("update_cnf ran before the refusal")

    monkeypatch.setattr(recompile, "update_cnf", fail)
    u13 = universe_of(13)
    # winslett takes the semantic path when the bounds agree with the clause
    state = init_horn(cnf(u13, "x1"), FormalismTag.WINSLETT)
    with pytest.raises(UniverseTooLarge, match="13 variables exceeds envelope limit 12"):
        step(state, cnf(u13, "-x1 x2"))
    state = init_horn(cnf(XYZ, "x"), FormalismTag.DALAL)
    for phi in (cnf(XYZ, "-x", "-y"), cnf(XYZ, "x y")):
        with pytest.raises(NeedsSemanticFallback, match="not one Horn clause"):
            step(state, phi, allow_fallback=False)


def test_bounds_are_not_rechecked_horn(monkeypatch):
    # bounds are Horn where they enter and stay so; only the propagation
    # on the way checks them, never a separate CNF.horn pass
    rng = random.Random(29)
    cases = []
    for _ in range(20):
        g = random_satisfiable_horn(rng, 8)
        state = init_horn(g, FormalismTag.DALAL)
        clause = contradicting_horn_clause(rng, state.lower) or random_clause(rng, 8, horn=True)
        # the last core: a pick past the first whenever there are several
        pick = len(fast_update(state.lower, clause, FormalismTag.DALAL)[1])
        stepped = step(state, CNF(state.universe, (clause,)), pick=pick)
        cases.append((g, stepped, clause, session_to_json(stepped)))

    def fail(self):
        raise AssertionError("CNF.horn walked a formula")

    monkeypatch.setattr(CNF, "horn", fail)
    for g, stepped, clause, text in cases:
        init_horn(g, FormalismTag.DALAL)
        query(stepped, clause)
        check_bracket(stepped)
        fast_update(stepped.upper, clause, FormalismTag.DALAL)
        fast_update(stepped.lower, clause, FormalismTag.SATOH)
        assert session_to_json(session_from_json(text)) == text


def test_session_log_contents():
    state = init_horn(cnf(XYZ, "x"), FormalismTag.BORGIDA)
    state = step(state, cnf(XYZ, "-x y"))
    rec = state.log[0]
    assert rec.phi == cnf(XYZ, "-x y").canonical()
    assert rec.core_pick == 1
    assert rec.path == "fast"


def test_write_session_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "s.json"
    state = init_horn(cnf(XYZ, "x"), FormalismTag.DALAL)
    write_session(state, path)
    before = path.read_bytes()
    stepped = step(state, cnf(XYZ, "-x y"))

    def fail(*args):
        raise RuntimeError("write failed")

    # fail before the temporary file exists, then after it is written
    for module, name in ((recompile, "session_to_json"), (os, "replace")):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, fail)
            with pytest.raises(RuntimeError):
                write_session(stepped, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.json"]
    write_session(stepped, path)
    assert path.read_text() == session_to_json(stepped)
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]
