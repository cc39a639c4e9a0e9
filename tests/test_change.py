import random

import pytest

from hornkit import (
    CNF,
    EmptyModelSet,
    FormalismTag,
    KnowledgeBase,
    Model,
    ModelSet,
    UnsatisfiableUpdate,
    VarUniverse,
    enumerate_models,
    fuv_update,
    parse_clause,
    update_cnf,
    update_models,
    widtio_update,
)
from hornkit.change import MODEL_BASED
from hornkit.generators import random_cnf, random_model_set

from oracle import models_brute

XY = VarUniverse(("x", "y"))
XYZ = VarUniverse(("x", "y", "z"))
TAGS = sorted(MODEL_BASED, key=lambda t: t.value)


def cnf(universe, *texts):
    return CNF(universe, tuple(parse_clause(t, universe) for t in texts))


def ms(universe, *texts):
    return ModelSet(universe, [Model.from_text(t) for t in texts])


def closest_updates_brute(g, f, tag):
    """Straight restatement of each projection definition."""
    gm, fm = set(g.masks), set(f.masks)
    inter = gm & fm
    if tag is FormalismTag.WINSLETT:
        out = set()
        for a in gm:
            diffs = {a ^ b for b in fm}
            minimal = {d for d in diffs if not any(o != d and o & d == o for o in diffs)}
            out |= {a ^ d for d in minimal}
        return out
    if inter:
        return inter
    pairs = [(a, b, a ^ b) for a in gm for b in fm]
    if tag is FormalismTag.DALAL:
        best = min(d.bit_count() for _, _, d in pairs)
        return {b for _, b, d in pairs if d.bit_count() == best}
    if tag is FormalismTag.SATOH:
        diffs = {d for _, _, d in pairs}
        minimal = {d for d in diffs if not any(o != d and o & d == o for o in diffs)}
        return {b for _, b, d in pairs if d in minimal}
    if tag is FormalismTag.FORBUS:
        out = set()
        for a in gm:
            best = min((a ^ b).bit_count() for b in fm)
            out |= {b for b in fm if (a ^ b).bit_count() == best}
        return out
    out = set()
    for a in gm:
        diffs = {a ^ b for b in fm}
        minimal = {d for d in diffs if not any(o != d and o & d == o for o in diffs)}
        out |= {a ^ d for d in minimal}
    return out


def test_disjoint_update_all_tags_agree_on_paper_pair():
    g = ms(XY, "11")
    f = ms(XY, "00", "01", "10")
    for tag in TAGS:
        assert update_models(g, f, tag).texts() == ["01", "10"]


def test_intersection_shortcut():
    g = ms(XY, "11", "00")
    f = ms(XY, "11", "01")
    for tag in (FormalismTag.DALAL, FormalismTag.SATOH,
                FormalismTag.BORGIDA, FormalismTag.FORBUS):
        assert update_models(g, f, tag).texts() == ["11"]


def test_winslett_keeps_projection_over_intersection():
    g = ms(XY, "11", "00")
    f = ms(XY, "10", "11")
    assert update_models(g, f, FormalismTag.WINSLETT).texts() == ["10", "11"]
    assert update_models(g, f, FormalismTag.BORGIDA).texts() == ["11"]


def test_update_models_against_definitions():
    rng = random.Random(21)
    for _ in range(400):
        n = rng.randint(2, 6)
        g = random_model_set(rng, n, max_size=6)
        f = random_model_set(rng, n, max_size=6)
        for tag in TAGS:
            assert update_models(g, f, tag).masks == \
                frozenset(closest_updates_brute(g, f, tag))
    # small sets in wide tables, some sharing a model with the base
    for n in (11, 12, 13):
        for _ in range(20):
            g = random_model_set(rng, n, max_size=6)
            f = random_model_set(rng, n, max_size=6)
            if rng.random() < 0.3:
                f = ModelSet(f.universe, f.masks | {rng.choice(sorted(g.masks))})
            for tag in TAGS:
                assert update_models(g, f, tag).masks == \
                    frozenset(closest_updates_brute(g, f, tag))


def test_update_results_stay_inside_update_models():
    rng = random.Random(22)
    for _ in range(300):
        n = rng.randint(2, 6)
        g = random_model_set(rng, n, max_size=6)
        f = random_model_set(rng, n, max_size=6)
        for tag in TAGS:
            result = update_models(g, f, tag)
            assert result.masks and result.masks <= f.masks
            if g.masks & f.masks:
                inter = g.masks & f.masks
                if tag is FormalismTag.WINSLETT:
                    assert inter <= result.masks
                else:
                    assert result.masks == inter


def test_single_clause_collapse():
    # when the update is one clause and the base contradicts it, all five
    # projections coincide
    rng = random.Random(23)
    from hornkit.generators import contradicting_horn_clause, random_satisfiable_horn
    done = 0
    while done < 1000:
        g = random_satisfiable_horn(rng, rng.randint(2, 10))
        phi = contradicting_horn_clause(rng, g)
        if phi is None:
            continue
        done += 1
        gm = enumerate_models(g)
        fm = enumerate_models(CNF(g.universe, (phi,)))
        results = {update_models(gm, fm, tag).masks for tag in TAGS}
        assert len(results) == 1


def test_update_models_errors():
    with pytest.raises(EmptyModelSet):
        update_models(ms(XY, "11"), ModelSet(XY, []), FormalismTag.DALAL)
    with pytest.raises(ValueError):
        update_models(ms(XY, "11"), ms(XY, "00"), FormalismTag.FUV)


def test_update_cnf_paper_examples():
    assert update_cnf(cnf(XY, "x", "y"), cnf(XY, "-x -y"),
                      FormalismTag.DALAL).texts() == ["01", "10"]
    assert update_cnf(cnf(XYZ, "y", "z"), cnf(XYZ, "-x", "-y"),
                      FormalismTag.DALAL).texts() == ["001"]
    assert update_cnf(cnf(XYZ, "-y z", "-z y"), cnf(XYZ, "-x", "-y"),
                      FormalismTag.DALAL).texts() == ["000"]


def test_update_cnf_unsat_errors():
    with pytest.raises(UnsatisfiableUpdate):
        update_cnf(cnf(XY, "x"), cnf(XY, "y", "-y"), FormalismTag.DALAL)
    from hornkit import UnsatisfiableBase
    with pytest.raises(UnsatisfiableBase):
        update_cnf(cnf(XY, "x", "-x"), cnf(XY, "y"), FormalismTag.DALAL)


# ---------------------------------------------------------------------------
# syntactic formalisms


def unit_kb(universe, *names):
    items = [(name, CNF(universe, (parse_clause(name, universe),)))
             for name in names]
    return KnowledgeBase(universe, items)


def test_fuv_maximal_subsets_example():
    u = VarUniverse(("x1", "x2", "x3"))
    kb = unit_kb(u, "x1", "x2", "x3")
    f = cnf(u, "-x1 -x2", "-x2 -x3")
    bases = fuv_update(kb, f)
    survivors = {frozenset(b.names()) - {"phi"} for b in bases}
    assert survivors == {frozenset({"x1", "x3"}), frozenset({"x2"})}
    for b in bases:
        assert b.names()[-1] == "phi"


def test_fuv_consistent_base_untouched():
    u = VarUniverse(("x1", "x2"))
    kb = unit_kb(u, "x1", "x2")
    f = cnf(u, "x1 x2")
    bases = fuv_update(kb, f)
    assert len(bases) == 1
    assert bases[0].names() == ("x1", "x2", "phi")


def test_fuv_total_contradiction_keeps_only_update():
    u = VarUniverse(("x",))
    kb = unit_kb(u, "x")
    f = cnf(u, "-x")
    bases = fuv_update(kb, f)
    assert len(bases) == 1
    assert bases[0].names() == ("phi",)


def test_fuv_subsets_match_bruteforce():
    rng = random.Random(24)
    from hornkit.change import maximal_consistent_subsets
    from itertools import combinations
    for _ in range(100):
        n = rng.randint(1, 4)
        u = VarUniverse(tuple(f"x{i}" for i in range(1, n + 1)))
        kb = KnowledgeBase(u, [(f"g{i}", random_cnf(rng, n, max_clauses=2))
                               for i in range(rng.randint(1, 4))])
        kb = KnowledgeBase(u, [(name, CNF(u, c.clauses)) for name, c in kb.items])
        f = random_cnf(rng, n, max_clauses=2)
        if not models_brute(f):
            continue
        got = {frozenset(s) for s in maximal_consistent_subsets(kb, f)}
        consistent = []
        for size in range(len(kb.items), -1, -1):
            for subset in combinations(range(len(kb.items)), size):
                clauses = [cl for i in subset for cl in kb.items[i][1].clauses]
                clauses += list(f.clauses)
                if models_brute(CNF(u, tuple(clauses))):
                    consistent.append(frozenset(subset))
        expected = {s for s in consistent
                    if not any(s < o for o in consistent)}
        assert got == expected


def test_widtio_intersection_example():
    u = VarUniverse(("x1", "x2", "x3"))
    kb = unit_kb(u, "x1", "x2", "x3")
    f = cnf(u, "-x1 -x2", "-x2 -x3")
    result = widtio_update(kb, f)
    assert result.names() == ("phi",)


def test_widtio_consistent_base():
    u = VarUniverse(("x1", "x2"))
    kb = unit_kb(u, "x1", "x2")
    result = widtio_update(kb, cnf(u, "x1"))
    assert result.names() == ("x1", "x2", "phi")


def test_widtio_unsat_update_rejected():
    u = VarUniverse(("x",))
    with pytest.raises(UnsatisfiableUpdate):
        widtio_update(unit_kb(u, "x"), cnf(u, "x", "-x"))


# ---------------------------------------------------------------------------
# additivity


def _split_update(masks, f, tag, universe, rng):
    masks = sorted(masks)
    cut = rng.randint(1, len(masks) - 1)
    g1 = ModelSet(universe, masks[:cut])
    g2 = ModelSet(universe, masks[cut:])
    return update_models(g1, f, tag).masks | update_models(g2, f, tag).masks


def test_winslett_is_additive():
    rng = random.Random(25)
    for _ in range(300):
        n = rng.randint(2, 6)
        g = random_model_set(rng, n, max_size=8)
        f = random_model_set(rng, n, max_size=8)
        if len(g) < 2:
            continue
        whole = update_models(g, f, FormalismTag.WINSLETT).masks
        split = _split_update(g.masks, f, FormalismTag.WINSLETT, g.universe, rng)
        assert whole == split


def test_other_tags_break_additivity():
    # one witness per run suffices: the property fails somewhere for each
    rng = random.Random(26)
    for tag in (FormalismTag.DALAL, FormalismTag.SATOH,
                FormalismTag.BORGIDA, FormalismTag.FORBUS):
        found = False
        for _ in range(500):
            n = rng.randint(2, 6)
            g = random_model_set(rng, n, max_size=8)
            f = random_model_set(rng, n, max_size=8)
            if len(g) < 2:
                continue
            whole = update_models(g, f, tag).masks
            split = _split_update(g.masks, f, tag, g.universe, rng)
            if whole != split:
                found = True
                break
        assert found, f"no additivity counterexample found for {tag.value}"
