import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hornkit import (
    CNF,
    Clause,
    EmptyClause,
    KnowledgeBase,
    ParseError,
    TautologicalClause,
    UnknownVariable,
    VarUniverse,
    condition,
    format_symbolic,
    negate_clause,
    parse_clause,
    parse_dimacs,
    parse_formula,
    parse_symbolic,
)
from hornkit.generators import random_cnf
from hornkit.semantics import enumerate_models

from oracle import condition_in_order, models_brute

XYZ = VarUniverse(("x", "y", "z"))


def cl(text, universe=XYZ):
    return parse_clause(text, universe)


def test_parse_clause_basic():
    c = cl("-x -y z")
    assert c.neg_vars() == (0, 1)
    assert c.pos_vars() == (2,)
    assert c.horn()


def test_parse_unit():
    u = VarUniverse(("x",))
    c = parse_clause("x", u)
    assert c.codes == (0,)


def test_parse_rejects_tautology():
    with pytest.raises(TautologicalClause):
        cl("x -x")


def test_parse_rejects_unknown_variable():
    with pytest.raises(UnknownVariable):
        cl("x w")


def test_parse_deduplicates():
    assert cl("x x -y") == cl("x -y")


def test_clause_classification():
    assert cl("-x -y").negative()
    assert cl("-x -y").horn()
    assert not cl("x y").horn()
    assert Clause().is_empty()
    assert Clause().horn()


def test_canonical_clause_text_roundtrip():
    for text in ("-x -y z", "x", "-z", "-x -z", "-y z"):
        c = cl(text)
        assert c.text(XYZ) == text
        assert cl(c.text(XYZ)) == c


def test_clause_text_is_body_first():
    # negative literals precede the positive head regardless of index order
    assert cl("y -z").text(XYZ) == "-z y"


def test_cnf_canonical_sorts_and_subsumes():
    f = CNF(XYZ, (cl("-x -y z"), cl("-x z"), cl("-x -y z"), cl("y")))
    canon = f.canonical()
    assert [c.text(XYZ) for c in canon.clauses] == ["y", "-x z"]


def test_cnf_canonical_empty_clause_wins():
    f = CNF(XYZ, (cl("x"), Clause()))
    assert f.canonical().clauses == (Clause(),)


def test_canonical_flag():
    # canonical(), conjoin and condition return a flagged CNF, and a
    # flagged CNF is its own canonical form; every other construction
    # leaves the flag unset
    fresh = CNF(XYZ, (cl("y"), cl("-x z")))
    canon = fresh.canonical()
    assert canon.clauses == fresh.clauses and canon is not fresh
    assert canon.canonical() is canon
    assert CNF(XYZ, (cl("x"), Clause())).canonical().canonical().clauses == (Clause(),)
    for unflagged in (CNF(XYZ, canon.clauses), canon.extend(())):
        assert unflagged.canonical() is not unflagged
        assert unflagged.canonical() == unflagged.canonical().canonical()
    for flagged in (condition(canon, {1: 0}), condition(canon, {}), fresh.conjoin(())):
        _assert_canonical(flagged)
    # equality and hashing ignore the flag
    copy = CNF(XYZ, canon.clauses)
    assert copy == canon and hash(copy) == hash(canon)
    assert len({copy, canon}) == 1


def test_cnf_one_line_units_bare():
    f = CNF(XYZ, (cl("y"), cl("z"), cl("-x -y")))
    assert f.canonical().one_line() == "y z (-x -y)"
    assert CNF(XYZ).one_line() == "true"


def test_condition_examples():
    f = CNF(XYZ, (cl("x y"), cl("-x z")))
    assert condition(f, {0: 1}) == CNF(XYZ, (cl("z"),))

    g = CNF(XYZ, (cl("x"),))
    assert condition(g, {0: 0}).has_empty_clause()

    u = VarUniverse(("x", "y", "z", "w", "v"))
    gamma = CNF(u, (parse_clause("x", u), parse_clause("y", u),
                    parse_clause("-z", u), parse_clause("-w v", u)))
    assert condition(gamma, {0: 1, 1: 1, 2: 0}) == CNF(u, (parse_clause("-w v", u),))


def test_condition_model_correspondence():
    # conditioned formula has a model iff the original has one extending it
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 6)
        f = random_cnf(rng, n, max_clauses=6)
        fixed = {v: rng.randint(0, 1) for v in rng.sample(range(n), rng.randint(1, n))}
        conditioned = condition(f, fixed)
        extending = {
            m for m in models_brute(f)
            if all((m >> v) & 1 == b for v, b in fixed.items())
        }
        assert bool(models_brute(conditioned)) == bool(extending)
        for clause in conditioned.clauses:
            assert not (set(clause.pos_vars()) | set(clause.neg_vars())) & set(fixed)


def clauses(n):
    """Clauses of at most four literals over variables 0..n-1."""
    return st.dictionaries(st.integers(0, n - 1), st.booleans(), max_size=min(n, 4)).map(
        lambda signs: Clause.from_codes(2 * v + (0 if s else 1) for v, s in signs.items()))


@st.composite
def cnfs(draw):
    """A CNF of up to eight such clauses over 1..8 variables."""
    n = draw(st.integers(1, 8))
    return CNF(VarUniverse(tuple(f"v{i}" for i in range(n))),
               draw(st.lists(clauses(n), max_size=8)))


def _assert_canonical(r):
    assert r.canonical() is r
    assert CNF(r.universe, r.clauses).canonical().clauses == r.clauses


@st.composite
def bases_and_added(draw):
    """A base CNF and clauses to conjoin to it: copies of base clauses,
    clauses that properly subsume or are subsumed by one, random ones,
    and sometimes the empty clause."""
    g = draw(cnfs())
    n = len(g.universe)
    added = []
    for kind in draw(st.lists(st.sampled_from(
            ("duplicate", "subsuming", "subsumed", "random")), max_size=4)):
        codes = list(draw(st.sampled_from(g.clauses)).codes) if g.clauses else []
        if kind == "subsuming" and codes:
            codes.pop(draw(st.integers(0, len(codes) - 1)))
        elif kind == "subsumed":
            free = [v for v in range(n) if v not in {c >> 1 for c in codes}]
            if free:
                codes.append(2 * draw(st.sampled_from(free)) + draw(st.integers(0, 1)))
        elif kind == "random":
            codes = draw(clauses(n)).codes
        added.append(Clause.from_codes(codes))
    if draw(st.integers(0, 9)) == 0:
        added.insert(draw(st.integers(0, len(added))), Clause())
    return g, added


@settings(max_examples=300, deadline=None)
@given(case=bases_and_added())
def test_conjoin_is_canonical_extend(case):
    g, added = case
    want = g.extend(added).canonical()
    for base in (g.canonical(), g):
        got = base.conjoin(added)
        assert got.clauses == want.clauses
        _assert_canonical(got)


@st.composite
def cnfs_and_assignments(draw):
    g = draw(cnfs())
    n = len(g.universe)
    return g, draw(st.dictionaries(st.integers(0, n - 1), st.booleans()))


@settings(max_examples=300, deadline=None)
@given(case=cnfs_and_assignments())
@example(case=(CNF(XYZ, (cl("x y"), cl("-x z"), cl("z"))), {0: False, 1: False}))
def test_condition_is_canonical_in_order_condition(case):
    g, assignment = case
    want = condition_in_order(g, assignment).canonical()
    for base in (g.canonical(), g):
        got = condition(base, assignment)
        assert got.clauses == want.clauses
        _assert_canonical(got)


def test_negate_clause():
    assert negate_clause(cl("-x z")) == [cl("x"), cl("-z")]
    assert negate_clause(cl("x")) == [cl("-x")]
    u = VarUniverse(("a", "b", "c"))
    assert negate_clause(parse_clause("-a -b -c", u)) == \
        [parse_clause("a", u), parse_clause("b", u), parse_clause("c", u)]
    with pytest.raises(EmptyClause):
        negate_clause(Clause())


def test_symbolic_file_roundtrip():
    f = CNF(XYZ, (cl("-x -y z"), cl("y"))).canonical()
    text = format_symbolic(f)
    assert parse_symbolic(text) == f


def test_symbolic_comments_and_blank_lines():
    text = "# header comment\nvars x y z\n\n-x y  # implication\n"
    f = parse_symbolic(text)
    assert f.clauses == (cl("-x y"),)


def test_symbolic_missing_header():
    with pytest.raises(ParseError):
        parse_symbolic("-x y\n")


def test_dimacs_parse():
    f = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n3 0\n")
    u = f.universe
    assert u.names == ("v1", "v2", "v3")
    assert f.clauses == (parse_clause("v1 -v2", u), parse_clause("v3", u))


def test_dimacs_bad_literal():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n3 0\n")


def test_parse_formula_autodetect():
    sym = parse_formula("vars x y\n-x y\n")
    dim = parse_formula("p cnf 2 1\n-1 2 0\n")
    assert sym.clauses[0].codes == dim.clauses[0].codes


def test_knowledge_base_positional_identity():
    u = VarUniverse(("x", "y"))
    unit = CNF(u, (parse_clause("x", u),))
    kb = KnowledgeBase(u, (("a", unit), ("b", unit)))
    assert len(kb) == 2
    assert kb.restricted([1]).names() == ("b",)
    with pytest.raises(ValueError):
        KnowledgeBase(u, (("a", unit), ("a", unit)))


def test_universe_validation():
    with pytest.raises(ValueError):
        VarUniverse(())
    with pytest.raises(ValueError):
        VarUniverse(("x", "x"))
    with pytest.raises(ValueError):
        VarUniverse(("-bad",))
    with pytest.raises(ValueError):
        VarUniverse(("x", 1))


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(1, 8))
def test_symbolic_round_trip(rng, n):
    c = random_cnf(rng, n)
    if enumerate_models(c):
        assert parse_symbolic(format_symbolic(c)) == c.canonical()


TOKENS = st.sampled_from(["vars", "p", "cnf", "x", "-x", "y", "-y", "x y", "-", "--x",
                          "0", "1", "-1", "2", "-3", "c", "%", "#", "v1"])
TEXTS = (st.lists(st.lists(TOKENS, max_size=6).map(" ".join), max_size=6).map("\n".join)
         | st.text(max_size=40))


@settings(max_examples=200, deadline=None)
@given(text=TEXTS, fmt=st.sampled_from(["auto", "sym", "dimacs"]))
def test_parse_formula_raises_only_parse_errors(text, fmt):
    try:
        parse_formula(text, fmt)
    except (ParseError, TautologicalClause):
        pass
