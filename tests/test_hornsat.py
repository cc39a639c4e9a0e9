import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornkit import (
    CNF,
    Clause,
    NotHorn,
    VarUniverse,
    entails,
    entails_cnf,
    horn_sat,
    parse_clause,
)
from hornkit.generators import random_clause, random_cnf, universe_of

from oracle import clause_satisfied, models_brute

XY = VarUniverse(("x", "y"))
XYZ = VarUniverse(("x", "y", "z"))


def cnf(universe, *texts):
    return CNF(universe, tuple(parse_clause(t, universe) for t in texts))


def test_propagation_chain():
    model = horn_sat(cnf(XY, "x", "-x y"))
    assert model is not None
    assert model.text() == "11"


def test_unsat_pair():
    assert horn_sat(cnf(XY, "x", "-x")) is None


def test_empty_clause_is_unsat():
    assert horn_sat(CNF(XY, (Clause(),))) is None


def test_top_has_all_zero_minimal_model():
    model = horn_sat(CNF(XYZ))
    assert model.text() == "000"


def test_rejects_non_horn():
    with pytest.raises(NotHorn):
        horn_sat(cnf(XY, "x y"))
    with pytest.raises(NotHorn):
        entails(cnf(XY, "x y"), parse_clause("x", XY))


@pytest.mark.parametrize("texts, least", [
    (("x", "-x y"), "11"),
    (("x", "-x"), None),
    (("x y",), NotHorn),
], ids=["horn", "unsat", "not-horn"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_propagation_restores_gc_state(texts, least, enabled):
    # propagation pauses the cyclic collector; it must hand back the
    # caller's setting, also when it raises
    base = cnf(XY, *texts)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for run in (lambda: horn_sat(base), lambda: entails(base, parse_clause("y", XY))):
            if least is NotHorn:
                with pytest.raises(NotHorn):
                    run()
            else:
                run()
            assert gc.isenabled() is enabled
        if least is not NotHorn:
            model = horn_sat(base)
            assert (model and model.text()) == least
    finally:
        (gc.enable if was else gc.disable)()


def test_horn_sat_agrees_with_enumeration():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(2, 12)
        f = random_cnf(rng, n, max_clauses=10, horn=True)
        brute = models_brute(f)
        model = horn_sat(f)
        if model is None:
            assert not brute
        else:
            assert model.mask in brute
            # minimality: pointwise below every model
            for m in brute:
                assert model.mask & m == model.mask


def test_entails_examples():
    assert entails(cnf(XY, "x", "-x y"), parse_clause("y", XY))
    assert not entails(cnf(XY, "-x y"), parse_clause("y", XY))


def test_entails_agrees_with_enumeration():
    rng = random.Random(12)
    for _ in range(500):
        n = rng.randint(2, 12)
        f = random_cnf(rng, n, max_clauses=8, horn=True)
        c = random_clause(rng, n, max_width=3, horn=False)
        expected = all(clause_satisfied(c, m) for m in models_brute(f))
        assert entails(f, c) == expected


def test_entails_non_horn_query_allowed():
    f = cnf(XYZ, "x", "y")
    assert entails(f, parse_clause("x z", XYZ))


def test_entails_empty_clause_means_unsat_base():
    assert not entails(cnf(XY, "x"), Clause())
    assert entails(cnf(XY, "x", "-x"), Clause())


def test_entails_monotone_under_clause_addition():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(2, 8)
        f = random_cnf(rng, n, max_clauses=6, horn=True)
        c = random_clause(rng, n, horn=False)
        if not entails(f, c):
            continue
        extended = f.extend((random_clause(rng, n, horn=True),))
        assert entails(extended, c)


def test_entails_cnf_reflexive_and_examples():
    f = cnf(XYZ, "-x -y", "z")
    assert entails_cnf(f, f)

    units = cnf(XYZ, "-x", "-y", "z")
    assert entails_cnf(units, cnf(XYZ, "-x -y"))

    lower = cnf(XYZ, "-x", "-y", "z")
    upper = cnf(XYZ, "-x", "-y", "-z")
    assert not entails_cnf(lower, upper)


@settings(max_examples=300, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(1, 8),
       kinds=st.lists(st.sampled_from(("horn", "any", "empty", "contradiction")),
                      max_size=8))
def test_propagation_horn_check_matches_cnf_horn(rng, n, kinds):
    # the propagation's setup pass is the only Horn check: it refuses
    # exactly what CNF.horn refuses, in whatever order the clauses come and
    # whether or not the CNF is also unsatisfiable
    clauses = []
    for kind in kinds:
        if kind == "empty":
            clauses.append(Clause())
        elif kind == "contradiction":
            v = rng.randrange(n)
            clauses += [Clause.from_codes((2 * v,)), Clause.from_codes((2 * v + 1,))]
        else:
            clauses.append(random_clause(rng, n, max_width=4, horn=kind == "horn"))
    rng.shuffle(clauses)
    f = CNF(universe_of(n), clauses)
    query = Clause() if rng.random() < 0.1 else random_clause(rng, n)
    if not f.horn():
        with pytest.raises(NotHorn):
            horn_sat(f)
        with pytest.raises(NotHorn):
            entails(f, query)
        return
    brute = models_brute(f)
    model = horn_sat(f)
    assert (model is None) == (not brute)
    if model is not None:
        assert model.mask in brute
        assert all(model.mask & m == model.mask for m in brute)
    assert entails(f, query) == all(clause_satisfied(query, m) for m in brute)
