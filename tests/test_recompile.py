import json
import os
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornkit import (
    CNF,
    BadIndex,
    BeliefState,
    Clause,
    FormalismTag,
    NeedsSemanticFallback,
    NotHorn,
    QueryVerdict,
    StepRecord,
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
    parse_formula,
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

from oracle import models_brute, session_from_json_reference, session_to_json_reference

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


# Names a session file must escape (non-ASCII, one outside the BMP, a
# quote, a backslash, a control character) or keep as they are.
ODD_NAMES = ("x", "é", "变量", "\U0001F600", 'q"', "b\\s", "t\x01", "a/b", "ok#")


def _odd_names(rng, n):
    pool = list(ODD_NAMES) + [f"v{i}" for i in range(n)]
    rng.shuffle(pool)
    return tuple(pool[:n])


def _random_clauses(rng, n, count, empty=False):
    clauses = [Clause.from_codes(2 * v + rng.randint(0, 1)
                                 for v in rng.sample(range(n), rng.randint(1, n)))
               for _ in range(count)]
    if empty:
        clauses.insert(rng.randrange(len(clauses) + 1), Clause.from_codes(()))
    return tuple(clauses)


name_text = st.text(st.characters(), min_size=1, max_size=4).filter(
    lambda s: not s.startswith(("-", "#")) and not any(ch.isspace() for ch in s))


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False),
       names=st.lists(name_text, min_size=1, max_size=6, unique=True),
       shared=st.booleans(), records=st.integers(0, 3))
def test_session_writer_matches_json_dumps(rng, names, shared, records):
    universe = VarUniverse(names)
    n = len(names)
    lower = CNF(universe, _random_clauses(rng, n, rng.randint(0, 6), rng.random() < 0.1))
    upper = lower if shared else CNF(universe, _random_clauses(rng, n, rng.randint(0, 6)))
    log = tuple(StepRecord(CNF(universe, _random_clauses(rng, n, rng.randint(1, 3))),
                           rng.choice(("fast", "semantic")), rng.randint(0, 3),
                           rng.choice((None, 0, rng.randint(1, 1000))))
                for _ in range(records))
    state = BeliefState(universe, lower, upper, rng.choice(TAGS), log)
    want = session_to_json_reference(state)
    assert session_to_json(state) == want
    # again, now from the clause texts the first write kept
    assert session_to_json(state) == want


def test_session_writer_examples_match_json_dumps():
    rng = random.Random(5)
    # past the envelope limit, so a step logs no gap
    universe = VarUniverse(ODD_NAMES + tuple(f"v{i}" for i in range(13 - len(ODD_NAMES))))
    n = len(universe)
    empty = init_horn(parse_formula("p cnf 3 0\n"), FormalismTag.DALAL)
    states = [empty, step(empty, cnf(empty.universe, "v1", "-v2 v3"))]
    base = init_horn(random_satisfiable_horn(rng, n), FormalismTag.SATOH)
    base = BeliefState(universe, CNF(universe, base.lower.clauses),
                       CNF(universe, base.upper.clauses), base.formalism)
    states.append(base)
    for _ in range(4):
        clause = contradicting_horn_clause(rng, states[-1].lower) \
            or random_clause(rng, n, horn=True)
        states.append(step(states[-1], CNF(universe, (clause,))))
    assert [rec.path for rec in states[1].log] == ["semantic"]
    assert states[1].log[0].core_pick == 0 and states[1].log[0].gap is not None
    assert states[-1].log[-1].gap is None and states[-1].log[-1].core_pick >= 1
    for state in states:
        assert session_to_json(state) == session_to_json_reference(state)


def test_clause_json_kept_per_universe():
    # one clause object written under two universes, in a bound and in a
    # logged phi: each write must spell that universe's names at its depth
    first, second = VarUniverse(("a", "b")), VarUniverse(("é", 'q"'))
    clause = parse_clause("-a b", first)
    for universe in (first, second, first):
        # a flagged CNF keeps its clause objects; canonical() would copy them
        bound = CNF._from_canonical(universe, (clause,))
        state = BeliefState(universe, bound, bound, FormalismTag.DALAL,
                            (StepRecord(bound, "fast", 1, 0),))
        assert session_to_json(state) == session_to_json_reference(state)
        assert clause._json_universe is universe


def _loaded(reader, text):
    try:
        return reader(text)
    except Exception as exc:  # the two readers must fail alike
        return type(exc), str(exc)


def _mutations(rng, doc):
    """Copies of a session document, each broken or bent in one place."""
    names = doc["vars"]
    bad_tokens = [names[0] + "?", "--" + names[0], "-", "", " ", 7, None, True,
                  [names[0]], {"x": 1}, f"{names[0]} {names[-1]}", "-" + names[0] + "\n"]
    out = []
    for _ in range(12):
        mutated = json.loads(json.dumps(doc))
        where = rng.choice(["lower", "upper"] + ["log"] * bool(mutated["log"]))
        cnf = mutated[where] if where != "log" else rng.choice(mutated["log"])["phi"]
        kind = rng.randrange(9)
        if kind == 0 and cnf and cnf[0]:
            cnf[rng.randrange(len(cnf))][0] = rng.choice(bad_tokens)
        elif kind == 1 and cnf:
            cnf[-1] = rng.choice(("x", 3, None, {}, [[names[0]]]))
        elif kind == 2:
            # both signs of one variable, or a repeated literal, perhaps
            # before a bad token: the bad type is reported first
            cnf.insert(rng.randrange(len(cnf) + 1),
                       rng.choice(([names[0], "-" + names[0]], [names[0], names[0]])))
            cnf.extend(rng.choice(([], [[rng.choice(bad_tokens)]])))
        elif kind == 3:
            cnf.append([rng.choice(names) for _ in range(2)])  # maybe not Horn
        elif kind == 4:
            cnf.insert(0, list(reversed(cnf[0])) if cnf else [])
        elif kind == 5:
            mutated[rng.choice(("vars", "formalism", "lower", "upper", "log"))] = \
                rng.choice(("xy", 1, None, [], ["x", "x"], "fuv", [["x"]]))
        elif kind == 6:
            del mutated[rng.choice(("vars", "formalism", "lower", "upper", "log"))]
        elif kind == 7 and mutated["log"]:
            rec = rng.choice(mutated["log"])
            rec[rng.choice(("path", "core_pick", "gap", "phi"))] = \
                rng.choice(("warp", -1, True, "2", None, 2.0, [], [[]]))
        else:
            # a clause of the other bound, perhaps followed by a bad one
            other = mutated["upper" if where == "lower" else "lower"]
            cnf.extend(other[:1] + rng.choice(([], [[rng.choice(bad_tokens)]])))
        out.append(mutated)
    return out


def test_session_reader_matches_reference():
    rng = random.Random(11)
    checked = failed = 0
    for _ in range(60):
        n = rng.randint(3, 9)
        universe = VarUniverse(_odd_names(rng, n))
        g = random_satisfiable_horn(rng, n)
        state = init_horn(CNF(universe, g.clauses), rng.choice(TAGS))
        for _ in range(rng.randint(0, 4)):
            clause = contradicting_horn_clause(rng, state.lower) \
                or random_clause(rng, n, horn=True)
            phi = CNF(universe, (clause,) if rng.random() < 0.7
                      else _random_clauses(rng, n, 2))
            try:
                state = step(state, phi, core_mode="greedy")
            except (BadIndex, UnsatisfiableUpdate, UniverseTooLarge):
                pass
        doc = json.loads(session_to_json(state))
        for variant in [doc] + _mutations(rng, doc):
            text = json.dumps(variant, indent=rng.choice((None, 2)))
            got = _loaded(session_from_json, text)
            assert got == _loaded(session_from_json_reference, text)
            checked += 1
            failed += isinstance(got, tuple)
        loaded = session_from_json(session_to_json(state))
        assert loaded == state
        # a token list in both bounds is read into one clause
        lower_ids = {cl.codes: id(cl) for cl in loaded.lower.clauses}
        assert all(lower_ids.get(cl.codes, id(cl)) == id(cl) for cl in loaded.upper.clauses)
    assert checked - failed > 100 and failed > 300
