import random
from itertools import chain, combinations

import pytest

from hornkit import (
    CNF,
    Clause,
    Model,
    ModelSet,
    NotClosed,
    SetTooLarge,
    UniverseTooLarge,
    VarUniverse,
    and_closure,
    characteristic_models,
    cores_from_models,
    enumerate_models,
    envelope_from_models,
    format_models,
    is_horn_representable,
    parse_clause,
    parse_models,
)
from hornkit.config import Limits
from hornkit.generators import random_model_set
from hornkit.semantics import close_masks

from oracle import closure_brute, is_closed_brute, models_brute

XY = VarUniverse(("x", "y"))
XYZ = VarUniverse(("x", "y", "z"))


def cnf(universe, *texts):
    return CNF(universe, tuple(parse_clause(t, universe) for t in texts))


def test_model_text_roundtrip():
    m = Model.from_text("011")
    assert m.bit(0) == 0 and m.bit(1) == 1 and m.bit(2) == 1
    assert m.text() == "011"
    assert m.popcount() == 2


def test_model_distance_and_diff():
    a = Model.from_text("110")
    b = Model.from_text("011")
    assert a.hamming(b) == 2
    assert a.diff_vars(b) == {0, 2}
    assert (a & b).text() == "010"


def test_enumerate_paper_pairs():
    assert enumerate_models(cnf(XY, "x", "y")).texts() == ["11"]
    assert enumerate_models(cnf(XY, "-x -y")).texts() == ["00", "01", "10"]
    assert enumerate_models(CNF(VarUniverse(("x",)))).texts() == ["0", "1"]


def test_enumerate_matches_oracle():
    rng = random.Random(3)
    from hornkit.generators import random_cnf
    for _ in range(300):
        f = random_cnf(rng, rng.randint(1, 8), max_clauses=8)
        assert enumerate_models(f).masks == frozenset(models_brute(f))
    for n in (12, 13, 14):
        for _ in range(3):
            f = random_cnf(rng, n, max_clauses=8)
            assert enumerate_models(f).masks == frozenset(models_brute(f))


def test_enumerate_limit():
    wide = VarUniverse(tuple(f"x{i}" for i in range(25)))
    with pytest.raises(UniverseTooLarge):
        enumerate_models(CNF(wide))
    # at the limit itself the count is exact: k unit clauses leave 2**(20-k)
    at_limit = VarUniverse(tuple(f"x{i}" for i in range(20)))
    for k in (0, 1, 7, 20):
        units = tuple(Clause.from_codes((2 * v + v % 2,)) for v in range(k))
        assert len(enumerate_models(CNF(at_limit, units))) == 1 << (20 - k)


def test_sparse_model_set_views():
    universe = VarUniverse(tuple(f"x{i}" for i in range(20)))
    masks = [0, 5, 1 << 19, (1 << 20) - 1, 0b1010 << 12]
    ms = ModelSet(universe, masks)
    assert ms.masks == frozenset(masks)
    assert len(ms) == len(masks)
    assert ms.texts() == sorted(Model(m, 20).text() for m in masks)
    assert [m.mask for m in ms.models] == ms.sorted_masks()
    assert all(m in ms for m in masks) and 6 not in ms


def test_and_closure_examples():
    ms = ModelSet(XY, [Model.from_text("01"), Model.from_text("10")])
    assert and_closure(ms).texts() == ["00", "01", "10"]
    singleton = ModelSet(XYZ, [Model.from_text("111")])
    assert and_closure(singleton) == singleton
    # 21 models whose closure holds 2**21 - 1: more than 2**20, yet one table
    wide = VarUniverse(tuple(f"x{i}" for i in range(21)))
    top = (1 << 21) - 1
    assert len(and_closure(ModelSet(wide, [top ^ 1 << v for v in range(21)]))) == top


def test_and_closure_idempotent_on_random_sets():
    rng = random.Random(4)
    for _ in range(1000):
        ms = random_model_set(rng, rng.randint(1, 10))
        closed = and_closure(ms)
        assert and_closure(closed) == closed
        assert closed.masks == frozenset(closure_brute(ms.masks))
    for n in (12, 13, 14):
        for _ in range(20):
            ms = random_model_set(rng, n, max_size=8)
            assert and_closure(ms).masks == frozenset(closure_brute(ms.masks))
            assert close_masks(ms.masks) == closure_brute(ms.masks)


def test_is_horn_representable():
    assert not is_horn_representable(ModelSet(XY, [1, 2]))
    assert is_horn_representable(ModelSet(XY, [0, 1, 2]))
    assert is_horn_representable(ModelSet(XY, []))


def test_horn_representable_iff_exists_horn_cnf_exhaustive_n2():
    # every model set over two variables, against every Horn CNF over them
    from hornkit import TautologicalClause
    all_horn_clauses = []
    for codes in chain.from_iterable(
            combinations(range(4), w) for w in range(3)):
        try:
            all_horn_clauses.append(Clause.from_codes(codes))
        except TautologicalClause:
            continue
    all_horn_clauses = [c for c in all_horn_clauses if c.horn()]
    horn_model_sets = set()
    for size in range(len(all_horn_clauses) + 1):
        for chosen in combinations(all_horn_clauses, size):
            horn_model_sets.add(frozenset(models_brute(CNF(XY, chosen))))
    for masks in chain.from_iterable(combinations(range(4), k) for k in range(5)):
        ms = ModelSet(XY, masks)
        assert is_horn_representable(ms) == (frozenset(masks) in horn_model_sets)


def test_horn_representable_matches_closedness_oracle():
    rng = random.Random(5)
    for _ in range(400):
        ms = random_model_set(rng, rng.randint(1, 8))
        assert is_horn_representable(ms) == is_closed_brute(ms.masks)


def test_envelope_examples():
    env = envelope_from_models(ModelSet(XY, [1, 2]))
    assert env.one_line() == "(-x -y)"
    assert envelope_from_models(ModelSet(XY, [0, 1, 2, 3])).is_true()
    assert envelope_from_models(ModelSet(XY, [])).has_empty_clause()


def test_envelope_models_equal_closure():
    rng = random.Random(6)
    for _ in range(300):
        ms = random_model_set(rng, rng.randint(1, 10))
        env = envelope_from_models(ms)
        assert models_brute(env) == closure_brute(ms.masks)


def test_envelope_is_irredundant():
    rng = random.Random(61)
    for _ in range(150):
        ms = random_model_set(rng, rng.randint(1, 8))
        env = envelope_from_models(ms)
        target = closure_brute(ms.masks)
        for i in range(len(env.clauses)):
            weakened = CNF(env.universe, env.clauses[:i] + env.clauses[i + 1:])
            assert models_brute(weakened) != target


def test_envelope_limit():
    wide = VarUniverse(tuple(f"x{i}" for i in range(13)))
    with pytest.raises(UniverseTooLarge):
        envelope_from_models(ModelSet(wide, [0]))


def test_cores_of_non_horn_pair():
    cores = cores_from_models(ModelSet(XY, [1, 2]), "all-exact")
    rendered = sorted(c.one_line() for c in cores)
    assert rendered == ["-x y", "x -y"]


def test_core_of_closed_set_is_itself():
    ms = ModelSet(XY, [0, 1, 3])
    (core,) = cores_from_models(ms, "exact-max")
    assert models_brute(core) == set(ms.masks)


def test_cores_are_maximal_closed_subsets():
    rng = random.Random(8)
    for _ in range(150):
        ms = random_model_set(rng, rng.randint(1, 8), max_size=10)
        for core in cores_from_models(ms, "all-exact"):
            core_masks = frozenset(models_brute(core))
            assert core_masks <= ms.masks
            assert is_closed_brute(core_masks)
            for extra in ms.masks - core_masks:
                assert not closure_brute(core_masks | {extra}) <= ms.masks


def test_exact_max_beats_greedy():
    rng = random.Random(9)
    for _ in range(150):
        ms = random_model_set(rng, rng.randint(1, 8), max_size=10)
        (best,) = cores_from_models(ms, "exact-max")
        (greedy,) = cores_from_models(ms, "greedy")
        assert len(models_brute(best)) >= len(models_brute(greedy))


def test_greedy_core_is_maximal():
    rng = random.Random(91)
    for _ in range(150):
        ms = random_model_set(rng, rng.randint(1, 8), max_size=14)
        (greedy,) = cores_from_models(ms, "greedy")
        core_masks = frozenset(models_brute(greedy))
        assert core_masks <= ms.masks and is_closed_brute(core_masks)
        for extra in ms.masks - core_masks:
            assert not closure_brute(core_masks | {extra}) <= ms.masks


def test_exact_core_limit():
    ms = ModelSet(VarUniverse(tuple(f"x{i}" for i in range(6))), range(30))
    with pytest.raises(SetTooLarge):
        cores_from_models(ms, "exact-max", Limits(core_models=20))
    cores_from_models(ms, "greedy")  # greedy mode is not size-limited


def test_envelope_unique_core_not():
    # the same two-model set admits one envelope but two incomparable cores
    ms = ModelSet(XY, [1, 2])
    env1 = envelope_from_models(ms)
    env2 = envelope_from_models(ModelSet(XY, [2, 1]))
    assert env1 == env2
    cores = cores_from_models(ms, "all-exact")
    assert len(cores) == 2
    sets = [frozenset(models_brute(c)) for c in cores]
    assert not sets[0] <= sets[1] and not sets[1] <= sets[0]


def test_characteristic_models_example():
    ms = ModelSet(XY, [0, 1, 2, 3])
    chars = characteristic_models(ms)
    assert chars.texts() == ["01", "10", "11"]


def test_characteristic_models_requires_closed():
    with pytest.raises(NotClosed):
        characteristic_models(ModelSet(XY, [1, 2]))


def test_characteristic_models_fixed_point():
    ms = ModelSet(XYZ, [Model.from_text("111")])
    assert characteristic_models(ms) == ms


def test_characteristic_models_against_reclose_oracle():
    rng = random.Random(10)
    for _ in range(300):
        ms = random_model_set(rng, rng.randint(1, 10))
        closed = and_closure(ms)
        chars = characteristic_models(closed)
        # oracle: drop each element and re-close
        expected = {
            m for m in closed.masks
            if m not in closure_brute(closed.masks - {m})
        }
        assert chars.masks == frozenset(expected)
        # minimal generator: re-closing the characteristic models restores the set
        assert closure_brute(chars.masks) == set(closed.masks)
        assert chars.masks <= ms.masks


def test_model_set_file_roundtrip():
    ms = ModelSet(XYZ, [Model.from_text("011"), Model.from_text("100")])
    text = format_models(ms)
    assert text == "011\n100\n"
    assert parse_models(text, XYZ) == ms


def test_close_masks_cap():
    assert close_masks([1, 2, 4], cap=2) is None
