"""Tests of the benchmark itself: its references, generators and pipeline.

    python3 -m pytest -q bench/test_bench.py

The pipeline tests run every workload at the smoke size for about a
second each, traced and untraced.
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import gen
import reference
import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# references against definitions written out pair by pair


def _naive_update(g, f, formalism):
    inter = g & f
    if formalism != "winslett" and inter:
        return inter

    def minimal(diffs):
        return {d for d in diffs if not any(o != d and o & d == o for o in diffs)}

    if formalism == "dalal":
        best = min((a ^ b).bit_count() for a in g for b in f)
        return {b for b in f if any((a ^ b).bit_count() == best for a in g)}
    if formalism == "satoh":
        least = minimal({a ^ b for a in g for b in f})
        return {b for b in f if any(a ^ b in least for a in g)}
    out = set()
    for a in g:
        if formalism == "winslett" and a in f:
            out.add(a)
        elif formalism == "forbus":
            best = min((a ^ b).bit_count() for b in f)
            out |= {b for b in f if (a ^ b).bit_count() == best}
        else:
            out |= {a ^ d for d in minimal({a ^ b for b in f})}
    return out


def _naive_closure(masks):
    closed = set(masks)
    while True:
        extra = {a & b for a in closed for b in closed} - closed
        if not extra:
            return closed
        closed |= extra


def _table(masks):
    return sum(1 << m for m in masks)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_truth_table_update_and_closure(n):
    rng = random.Random(n)
    tables = reference.Tables(n)
    for _ in range(150):
        g = {rng.randrange(1 << n) for _ in range(rng.randint(1, 6))}
        f = {rng.randrange(1 << n) for _ in range(rng.randint(1, 6))}
        assert tables.closure(_table(g)) == _table(_naive_closure(g))
        for formalism in gen.FORMALISMS:
            got = tables.update(_table(g), _table(f), formalism)
            assert got == _table(_naive_update(g, f, formalism)), (formalism, g, f)


def test_cnf_table_counts_models():
    tables = reference.Tables(3)
    clauses = [(1, 2), (-1, 3)]
    models = [m for m in range(8)
              if reference.satisfies(clauses, {v for v in range(3) if m >> v & 1})]
    assert tables.cnf(clauses) == _table(models)


def test_horn_checker_matches_brute_force():
    rng = random.Random(7)
    n = 6
    for _ in range(200):
        clauses = []
        for _ in range(rng.randint(1, 8)):
            vs = rng.sample(range(n), rng.randint(1, 3))
            head = rng.random() < 0.6
            clauses.append(tuple(sorted(((v + 1) if head and i == 0 else -(v + 1)
                                         for i, v in enumerate(vs)), key=abs)))
        models = [{v for v in range(n) if m >> v & 1} for m in range(1 << n)]
        models = [m for m in models if reference.satisfies(clauses, m)]
        checker = reference.HornChecker(n, clauses)
        for width in (1, 2):
            for vs in combinations(range(n), width):
                query = tuple(-(v + 1) if rng.random() < 0.5 else v + 1 for v in vs)
                expected = all(reference.satisfies([query], m) for m in models)
                assert checker.entails(query) == expected


def test_parse_one_line():
    index = {"x": 0, "y": 1, "z": 2}
    assert reference.parse_one_line("x (-x y) (-y -z)", index) == [(1,), (-1, 2), (-2, -3)]
    assert reference.parse_one_line("true", index) == []
    assert reference.parse_one_line("false", index) == [()]


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(list(range(1, 101))) == (90, 90, 100)
    assert run.tail(list(range(1, 41))) == (30, 75, 40)
    assert run.tail(list(range(1, 40))) == (20, 50, 39)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50, 3)


# ---------------------------------------------------------------------------
# generators


def test_horn_episode_updates_contradict_or_agree():
    base = gen.HornBase(random.Random(3), 60, 5)
    assert reference.satisfies(base.clauses, base.model)
    for phi, kind, queries, witness, spent in base.episode(random.Random(4), 3, 2):
        if kind == "consistent":
            assert reference.satisfies([phi], base.model)
        else:
            assert not reference.satisfies([phi], base.model)
            assert {abs(lit) - 1 for lit in phi} <= spent


def test_desk_updates_contradict_the_envelope():
    rng = random.Random(5)
    base = gen.DeskBase(rng, reference.Tables(7), 4, 8, (1, 128), (1, 8))
    assert 4 <= base.tables.cnf(base.clauses).bit_count() <= 8
    for kind in ("multi", "nonhorn"):
        assert not base.upper & base.tables.cnf(base.update(rng, kind))
    consistent = base.tables.cnf(base.update(rng, "consistent"))
    assert base.upper & consistent and base.upper & ~consistent


def test_same_seed_same_inputs():
    a = gen.HornBase(random.Random(9), 40, 5)
    b = gen.HornBase(random.Random(9), 40, 5)
    assert a.text() == b.text()


# ---------------------------------------------------------------------------
# the pipeline


def _bench(*args, cwd=BENCH.parent):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace, tmp_path):
    out = tmp_path / "results.jsonl"
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace",
                  str(trace), "--size", "smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    record = json.loads(out.read_text())
    assert record["seed"] == 3 and record["sizes"] == run.SIZES["smoke"][workload]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_compare_reads_two_result_files(tmp_path):
    out = tmp_path / "results.jsonl"
    for seed in ("1", "2"):
        proc = _bench("--workload", "desk-exact", "--seed", seed, "--seconds", "1",
                      "--size", "smoke", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    proc = _bench("--compare", str(out), str(out))
    assert proc.returncode == 0, proc.stderr
    assert "update_ms" in proc.stdout and "head/base = 1.000" in proc.stdout


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "cli-session", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
