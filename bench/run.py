"""hornkit benchmark: three workloads, end-to-end metrics, per-layer tracing.

    python3 bench/run.py --workload cli-session --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload desk-exact --seed 1 --seconds 2 --size smoke
    python3 bench/run.py --compare base.jsonl [head.jsonl]

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
`--out FILE` appends the full record (every metric, tail percentiles and
sample counts, compile figures, failures, Python version, commit, nproc,
seed and sizes) to a JSON-lines file that `--compare` reads.

The load is one closed-loop client with no threads: the next operation
starts when the last one has finished.  CLI workloads start one
`python -m hornkit.cli` child per command, one at a time, so start-up and
import are paid as users pay them.  Each workload is a sequence of
episodes that all start from the session set up before timing.  A run
starts episodes until `--seconds` have passed and finishes the last one,
so every run holds the same mix of operations.

* cli-session: `session new`, then single-Horn-clause `update`s (without
  a head, with a head, consistent), each followed by `query`s, on a
  planted-model Horn base of about 200 variables, formalism dalal.  What
  a CLI user runs; `check_bracket` and start-up dominate it today.
* horn-bulk: the library in one process on a 5k-variable Horn base.
  Updates are `step` plus `session_to_json`, queries `recompile.query`.
  Tests the linear-time claim at scale; no bracket check, no start-up
  and no enumeration.
* desk-exact: CLI updates on universes of 10..12 variables that take the
  semantic path (multi-clause, non-Horn, winslett-consistent) under all
  five model-based formalisms, plus `compile` at 12..14 variables.
  `semantics` and `change` do nearly all of the work.

Outputs are checked after the timed loop by code that does not import
hornkit (reference.py); a wrong output or exit code counts as failed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import reference
import tracer
from gen import clause_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# hornkit's documented exit codes (hornkit/cli.py)
EXIT_OK = 0
QUERY_EXITS = {"Yes": 0, "No": 10, "Unknown": 11, "ContradictoryBounds": 12}

CHILD_TIMEOUT = 150
EPISODES = 64

SIZES = {
    "full": {
        "cli-session": {"vars": 200, "per_var": 5, "updates": 6, "queries": 3, "setups": 5},
        "horn-bulk": {"vars": 5000, "per_var": 5, "updates": 3, "queries": 3, "setups": 3},
        "desk-exact": {"update_vars": [10, 11, 12], "compile_vars": [12, 13, 14],
                       "compile_band": [200, 350], "queries": 1, "setups": 3,
                       "bases": 6},
    },
    "smoke": {
        "cli-session": {"vars": 60, "per_var": 5, "updates": 3, "queries": 2, "setups": 2},
        "horn-bulk": {"vars": 300, "per_var": 5, "updates": 3, "queries": 2, "setups": 2},
        "desk-exact": {"update_vars": [6, 7], "compile_vars": [7, 8],
                       "compile_band": [10, 60], "queries": 1, "setups": 2,
                       "bases": 2},
    },
}


class BenchError(Exception):
    """The run cannot produce a result."""


class SessionView:
    """A session file as the reference reads it, with Horn checkers per bound."""

    def __init__(self, text):
        self.text = text
        self.names, self.formalism, self.lower, self.upper, self.log = \
            reference.read_session(text)
        self._checkers = None

    @property
    def checkers(self):
        if self._checkers is None:
            n = len(self.names)
            self._checkers = (reference.HornChecker(n, self.upper),
                              reference.HornChecker(n, self.lower))
        return self._checkers


class Run:
    """Operations, timings and pending checks of one benchmark run."""

    def __init__(self, work, seconds, trace):
        self.work = work
        self.seconds = seconds
        self.trace = trace
        self.ops = []
        self.checks = []
        self.failures = []
        self.setup_s = []
        self.loop_s = None
        self.session_sizes = []
        self.trace_files = []
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def child(self, cmd, timeout=CHILD_TIMEOUT, env=None):
        """Run one child to completion; (exit code or None on timeout, stdout, ms)."""
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=env or self.env, cwd=self.work, timeout=timeout,
                                  stdin=subprocess.DEVNULL, capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            return None, "", (time.perf_counter() - start) * 1e3
        ms = (time.perf_counter() - start) * 1e3
        return proc.returncode, proc.stdout, ms

    def cli(self, *args):
        if not self.trace:
            return self.child([sys.executable, "-m", "hornkit.cli", *args])
        spans = self.work / f"trace-{len(self.trace_files)}.json"
        self.trace_files.append(spans)
        env = dict(self.env, BENCH_TRACE_FILE=str(spans), BENCH_OP=str(len(self.ops)))
        return self.child([sys.executable, str(BENCH / "tracer.py"), *args], env=env)

    def warm_up(self):
        """Import hornkit once, untimed, so that byte-code and file caches are
        warm before set-up is timed."""
        code, _, _ = self.child([sys.executable, "-c", "import hornkit.cli"])
        if code != 0:
            raise BenchError("cannot import hornkit.cli")

    def op(self, kind, ms):
        self.ops.append({"kind": kind, "ms": ms, "ok": True})
        return len(self.ops) - 1

    def check(self, index, fn, *args):
        self.checks.append((index, fn, args))

    def fail(self, index, problem):
        self.ops[index]["ok"] = False
        self.failures.append(f"op {index} ({self.ops[index]['kind']}): {problem}")

    def run_checks(self):
        for index, fn, args in self.checks:
            try:
                problem = fn(*args)
            except Exception as exc:  # a malformed output is a failed operation
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                self.fail(index, problem)
        self.checks = []

    def keep_size(self, view):
        self.session_sizes.append(len(view.text.encode()) / 1024)


# ---------------------------------------------------------------------------
# checks


def check_query(view, psi, code, answer):
    expected = reference.verdict(*view.checkers, psi)
    if answer != expected:
        return f"verdict {answer!r}, expected {expected!r}"
    if code is not None and code != QUERY_EXITS[expected]:
        return f"exit code {code}, expected {QUERY_EXITS[expected]}"
    return None


def check_horn_initial(base, view):
    upper = view.checkers[0]
    if view.upper != view.lower:
        return "init_horn bounds differ"
    if not reference.satisfies(view.upper, base.model):
        return "planted model is not a model of the initial session"
    if not set(base.true_facts) <= upper.true:
        return "initial session lost a fact"
    return None


def check_horn_update(base, view, phi, witness, spent, code=EXIT_OK, out=None):
    """A single-Horn-clause update on the fast path.

    Both bounds entail the update, the upper bound keeps the planted
    witness, and every fact the episode has not used is still entailed.
    """
    if code != EXIT_OK:
        return f"exit code {code}"
    if out is not None and out.split() != ["path=fast", "bracket=OK"]:
        return f"output {out!r}"
    if view.log[-1]["path"] != "fast":
        return f"path {view.log[-1]['path']!r}"
    upper, lower = view.checkers
    if not (upper.entails(phi) and lower.entails(phi)):
        return "a bound does not entail the update"
    if not reference.satisfies(view.upper, witness):
        return "upper bound lost the planted witness"
    kept = set(base.true_facts) - spent
    if not (kept <= upper.true and kept <= lower.true):
        return "a bound lost an unused fact"
    return None


def check_desk_update(tables, initial, formalism, f, view, code, out):
    """Upper bound = closure of the brute-force update of the previous upper
    models; lower bound = AND-closed, nonempty subset of the brute-force
    update of the previous lower models."""
    if code != EXIT_OK:
        return f"exit code {code}"
    upper = tables.cnf(view.upper)
    lower = tables.cnf(view.lower)
    bracket = "OK" if not lower & ~upper else "BROKEN"
    if out.split() != ["path=semantic", f"bracket={bracket}"]:
        return f"output {out!r}, expected path=semantic bracket={bracket}"
    if view.formalism != formalism or view.log[-1]["path"] != "semantic":
        return "session log does not record the semantic update"
    f_models = tables.cnf(f)
    if upper != tables.closure(tables.update(tables.cnf(initial.upper), f_models, formalism)):
        return "upper bound is not the envelope of the update"
    allowed = tables.update(tables.cnf(initial.lower), f_models, formalism)
    if not lower or lower & ~allowed or not tables.is_closed(lower):
        return "lower bound is not a closed subset of the update"
    return None


def check_compile(tables, var_names, clauses, code, out):
    if code != EXIT_OK:
        return f"exit code {code}"
    index = {name: i for i, name in enumerate(var_names)}
    lines = out.splitlines()
    if len(lines) != 2 or not lines[0].startswith("core: ") \
            or not lines[1].startswith("envelope: "):
        return f"output {out!r}"
    models = tables.cnf(clauses)
    core = tables.cnf(reference.parse_one_line(lines[0][6:], index))
    envelope = tables.cnf(reference.parse_one_line(lines[1][10:], index))
    if envelope != tables.closure(models):
        return "envelope is not the closure of the models"
    if not core or core & ~models or not tables.is_closed(core):
        return "core is not a closed subset of the models"
    return None


def check_desk_initial(base, view):
    tables = base.tables
    lower = tables.cnf(view.lower)
    if tables.cnf(view.upper) != base.upper:
        return "initial upper bound is not the envelope of the base"
    if not lower or lower & ~tables.cnf(base.clauses):
        return "initial lower bound is not a subset of the base"
    return None


# ---------------------------------------------------------------------------
# workloads


def _setup_check(problem):
    if problem:
        raise BenchError(f"set-up output is wrong: {problem}")


def cli_session(run, rng, size):
    base = gen.HornBase(rng, size["vars"], size["per_var"])
    episodes = [base.episode(rng, size["updates"], size["queries"]) for _ in range(EPISODES)]
    formula = run.work / "base.cnf"
    formula.write_text(base.text())
    run.warm_up()
    for r in range(size["setups"]):
        code, _, ms = run.cli("session", "new", f"setup-{r}.json", "--formula", str(formula),
                              "--formalism", "dalal")
        if code != EXIT_OK:
            raise BenchError(f"session new exited {code}")
        run.setup_s.append(ms / 1e3)
    initial = (run.work / "setup-0.json").read_text()
    _setup_check(check_horn_initial(base, SessionView(initial)))

    state = run.work / "session.json"
    start = time.perf_counter()
    deadline = start + run.seconds
    e = 0
    while time.perf_counter() < deadline:
        state.write_text(initial)
        for phi, kind, queries, witness, spent in episodes[e % len(episodes)]:
            code, out, ms = run.cli("update", str(state),
                                    "--clause=" + clause_text(phi, base.names))
            view = SessionView(state.read_text())
            run.check(run.op("update", ms), check_horn_update, base, view, phi,
                      witness, spent, code, out)
            for psi in queries:
                code, out, ms = run.cli("query", str(state),
                                        "--clause=" + clause_text(psi, base.names))
                run.check(run.op("query", ms), check_query, view, psi, code, out.strip())
        run.keep_size(view)
        e += 1
    run.loop_s = time.perf_counter() - start


def horn_bulk(run, rng, size):
    base = gen.HornBase(rng, size["vars"], size["per_var"])
    episodes = [base.episode(rng, size["updates"], size["queries"]) for _ in range(EPISODES)]
    formula = run.work / "base.cnf"
    formula.write_text(base.text())
    ops = run.work / "ops.json"
    ops.write_text(json.dumps([
        [(clause_text(phi, base.names), [clause_text(q, base.names) for q in queries])
         for phi, kind, queries, witness, spent in episode]
        for episode in episodes]))
    run.warm_up()
    cmd = [sys.executable, str(BENCH / "bulk.py"), str(formula), str(ops), str(run.work),
           str(run.seconds), str(size["setups"])]
    if run.trace:
        run.trace_files.append(run.work / "trace-bulk.json")
        cmd.append(str(run.trace_files[-1]))
    code, _, _ = run.child(cmd, timeout=run.seconds + CHILD_TIMEOUT)
    if code != 0:
        raise BenchError(f"bulk client exited {code}")
    doc = json.loads((run.work / "bulk.json").read_text())
    run.setup_s = doc["setup_s"]
    run.loop_s = doc["loop_s"]
    _setup_check(check_horn_initial(base, SessionView((run.work / "initial.json").read_text())))

    view = None
    for rec in doc["records"]:
        episode = episodes[rec["episode"] % EPISODES]
        phi, kind, queries, witness, spent = episode[rec["step"]]
        index = run.op(rec["kind"], rec["ms"])
        if rec["kind"] == "update":
            # a view holds a whole session: check it before reading the next
            run.run_checks()
            view = None
            if rec["error"]:
                run.fail(index, rec["error"])
                continue
            view = SessionView(Path(rec["file"]).read_text())
            run.check(index, check_horn_update, base, view, phi, witness, spent)
            if rec["step"] == len(episode) - 1:
                run.keep_size(view)
        elif view is None or rec["error"]:
            run.fail(index, rec["error"] or "no state to query")
        else:
            run.check(index, check_query, view, queries[rec["index"]], None, rec["verdict"])


def desk_exact(run, rng, size):
    """Each episode updates, under each formalism, a session of every
    universe size, each update followed by queries, then compiles one
    formula of each compile size.

    Bases and compile formulas are drawn in narrow model-count bands, and
    each size has more bases than there are formalisms, used in turn, so
    that no single input dominates a run.
    """
    tables = {n: reference.Tables(n) for n in size["update_vars"] + size["compile_vars"]}
    bases = {}
    for n in size["update_vars"]:
        closed = (1 << n) / 15
        for b in range(size["bases"]):
            bases[n, b] = gen.DeskBase(rng, tables[n], (1 << n) // 32, (1 << n) // 16,
                                       (0.85 * closed, 1.15 * closed),
                                       (int(0.25 * closed), math.ceil(0.45 * closed)))
            (run.work / f"base-{n}-{b}.cnf").write_text(bases[n, b].text())
    lo, hi = size["compile_band"]

    episodes = []
    for e in range(EPISODES):
        updates = []
        for i, n in enumerate(size["update_vars"]):
            for j, formalism in enumerate(gen.FORMALISMS):
                key = (n, (e + j) % size["bases"])
                base = bases[key]
                kinds = gen.desk_kinds(formalism)
                # a fixed kind per size and formalism keeps every episode's mix alike
                f = base.update(rng, kinds[(i + j) % len(kinds)])
                if len(f) > 1:
                    path = run.work / f"update-{e}-{n}-{formalism}.cnf"
                    path.write_text("\n".join(clause_text(c, base.names) for c in f) + "\n")
                    args = ["--clause-file", str(path)]
                else:
                    args = ["--clause=" + clause_text(f[0], base.names)]
                updates.append((key, formalism, f, args, base.queries(rng, size["queries"])))
        compiles = []
        for n in size["compile_vars"]:
            clauses = gen.band_formula(rng, n, lo, hi, tables[n])
            path = run.work / f"compile-{e}-{n}.cnf"
            path.write_text(gen.formula_text(gen.names(n), clauses))
            compiles.append((n, clauses, path))
        episodes.append((updates, compiles))

    run.warm_up()
    for r in range(size["setups"]):
        total = 0.0
        for n, b in bases:
            code, _, ms = run.cli("session", "new", f"setup-{r}-{n}-{b}.json",
                                  "--formula", f"base-{n}-{b}.cnf", "--formalism", "dalal",
                                  "--core-mode", "greedy")
            if code != EXIT_OK:
                raise BenchError(f"session new exited {code}")
            total += ms
        run.setup_s.append(total / 1e3)
    initial = {}
    for (n, b), base in bases.items():
        initial[n, b] = SessionView((run.work / f"setup-0-{n}-{b}.json").read_text())
        _setup_check(check_desk_initial(base, initial[n, b]))

    state = run.work / "session.json"
    start = time.perf_counter()
    deadline = start + run.seconds
    e = 0
    while time.perf_counter() < deadline:
        updates, compiles = episodes[e % len(episodes)]
        for key, formalism, f, args, queries in updates:
            state.write_text(initial[key].text)
            code, out, ms = run.cli("update", str(state), *args, "--formalism", formalism,
                                    "--core-mode", "greedy")
            view = SessionView(state.read_text())
            run.check(run.op("update", ms), check_desk_update, tables[key[0]], initial[key],
                      formalism, f, view, code, out)
            for psi in queries:
                code, out, ms = run.cli("query", str(state),
                                        "--clause=" + clause_text(psi, bases[key].names))
                run.check(run.op("query", ms), check_query, view, psi, code, out.strip())
            run.keep_size(view)
        for n, clauses, path in compiles:
            code, out, ms = run.cli("compile", str(path), "--core-mode", "greedy",
                                    "--vars-limit", str(max(size["compile_vars"])))
            run.check(run.op("compile", ms), check_compile, tables[n], gen.names(n),
                      clauses, code, out)
        e += 1
    run.loop_s = time.perf_counter() - start


WORKLOADS = {"cli-session": cli_session, "horn-bulk": horn_bulk, "desk-exact": desk_exact}


# ---------------------------------------------------------------------------
# metrics


TAIL_LEVELS = (99.9, 99, 95, 90, 75, 50)


def tail(values):
    """(value, percentile, samples) at the highest of TAIL_LEVELS that has at
    least ten samples beyond it; the median level when none has."""
    ordered = sorted(values)
    n = len(ordered)
    for level in TAIL_LEVELS:
        rank = math.ceil(level * n / 100)
        if n - rank >= 10:
            break
    else:
        level, rank = 50, math.ceil(n / 2)
    return ordered[rank - 1], level, n


def end_to_end(run):
    out = {"setup_s": {"value": statistics.median(run.setup_s), "unit": "s",
                       "samples": len(run.setup_s)}}
    for kind in ("update", "query", "compile"):
        times = [op["ms"] for op in run.ops if op["kind"] == kind]
        if not times:
            continue
        out[f"{kind}_ms"] = {"value": statistics.median(times), "unit": "ms",
                             "samples": len(times)}
        value, pct, n = tail(times)
        out[f"{kind}_tail_ms"] = {"value": value, "unit": "ms", "percentile": pct,
                                  "samples": n}
    out["ops_per_s"] = {"value": len(run.ops) / run.loop_s, "unit": "1/s"}
    out["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                          / 1024, "unit": "MB"}
    failed = sum(1 for op in run.ops if not op["ok"])
    out["failed_ratio"] = {"value": failed / len(run.ops), "unit": "ratio"}
    out["session_kb"] = {"value": statistics.mean(run.session_sizes), "unit": "KB",
                         "samples": len(run.session_sizes)}
    return out


def per_layer(run):
    docs = [json.loads(path.read_text()) for path in run.trace_files]
    out = {name: {"value": value, "unit": unit}
           for name, (value, unit) in tracer.summarize(docs).items()}
    for kind in ("update", "query"):
        times = [op["ms"] for op in run.ops if op["kind"] == kind]
        out[f"traced.{kind}_ms"] = {"value": statistics.median(times), "unit": "ms"}
    out["traced.ops_per_s"] = {"value": len(run.ops) / run.loop_s, "unit": "1/s"}
    return out


def commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(args):
    if not (ROOT / "src" / "hornkit" / "cli.py").is_file():
        raise BenchError(f"no hornkit sources under {ROOT / 'src'}")
    spec = load_spec()
    size = SIZES[args.size][args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(work, args.seconds, args.trace)
    try:
        WORKLOADS[args.workload](run, random.Random(f"{args.workload}:{args.seed}"), size)
        run.run_checks()
        if not run.ops:
            raise BenchError("no operation completed within the time")
        measured = per_layer(run) if args.trace else end_to_end(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    failed = sum(1 for op in run.ops if not op["ok"])
    result = {
        "correct": failed == 0,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "sizes": size,
        "python": platform.python_version(), "commit": commit(), "nproc": os.cpu_count(),
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": measured, "failures": run.failures[:20],
    }
    return result, record


# ---------------------------------------------------------------------------
# compare


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _group(path):
    groups = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def _series(records, name):
    return {rec["seed"]: rec["metrics"][name]["value"] for rec in records
            if name in rec["metrics"]}


def compare(paths):
    """Per workload and metric: medians, ratio, spread and a verdict.

    Verdicts follow the choosing-metrics rule: worse when the head median
    is worse than the base median by more than the metric's bound; better
    when it wins at least nine in ten runs paired by seed and the medians
    differ by more than the base's quartile spread; unresolved when the
    spread is wider than the bound and the runs overlap.
    """
    spec = load_spec()
    rules = {m["name"]: m for m in spec["end_to_end"]}
    for name in ("compile_ms", "compile_tail_ms", "failed_ratio"):
        rules.setdefault(name, {"name": name, "better": "lower", "bound": 0.25})
    base = _group(paths[0])
    head = _group(paths[-1])
    lines = []
    for workload, trace in sorted(base):
        if trace:
            continue
        b_recs = base[(workload, 0)]
        h_recs = head.get((workload, 0), [])
        lines.append(f"== {workload}: base {len(b_recs)} runs, head {len(h_recs)} runs")
        for name, rule in rules.items():
            b = _series(b_recs, name)
            h = _series(h_recs, name)
            if not b or not h:
                continue
            lines.append(_verdict_line(name, rule, b, h, len(paths) > 1))
        traced = base.get((workload, 1), [])
        for kind in ("update", "query"):
            t = _series(traced, f"traced.{kind}_ms")
            u = _series(b_recs, f"{kind}_ms")
            if t and u:
                ratio = statistics.median(t.values()) / statistics.median(u.values())
                lines.append(f"  tracing overhead on {kind}_ms: traced median "
                             f"{statistics.median(t.values()):.4g} / untraced median "
                             f"{statistics.median(u.values()):.4g} = {ratio:.3f}")
    print("\n".join(lines))
    return 0


def _verdict_line(name, rule, b, h, paired):
    lower_is_better = rule["better"] == "lower"
    bq1, bmed, bq3 = _quartiles(list(b.values()))
    hq1, hmed, hq3 = _quartiles(list(h.values()))
    b_spread = (bq3 - bq1) / bmed if bmed else 0.0
    h_spread = (hq3 - hq1) / hmed if hmed else 0.0
    line = (f"  {name}: base {bmed:.4g} (spread {b_spread:.3f})")
    if not paired:
        return line
    ratio = hmed / bmed if bmed else float("inf")
    worse = (ratio - 1) if lower_is_better else (1 - ratio)
    seeds = sorted(set(b) & set(h))
    wins = sum(1 for s in seeds if (h[s] < b[s]) == lower_is_better and h[s] != b[s])
    spread = max(b_spread, h_spread)
    if spread > rule["bound"]:
        if lower_is_better:
            separated = max(h.values()) < min(b.values())
            behind = min(h.values()) > max(b.values())
        else:
            separated = min(h.values()) > max(b.values())
            behind = max(h.values()) < min(b.values())
        verdict = "better" if separated else "worse" if behind else "unresolved"
    elif worse > rule["bound"]:
        verdict = "worse"
    elif -worse > b_spread and seeds and wins >= 0.9 * len(seeds):
        verdict = "better"
    else:
        verdict = "within bound"
    return (f"{line}, head {hmed:.4g} (spread {h_spread:.3f}); head/base = {ratio:.3f} "
            f"(base {bmed:.4g}); wins {wins}/{len(seeds)}; bound {rule['bound']}: {verdict}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    parser.add_argument("--compare", nargs="+", metavar="RESULTS",
                        help="summarise one results file or compare two")
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes one or two files")
        return compare(args.compare)
    if not args.workload:
        parser.error("--workload is required")
    try:
        result, record = run_once(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in record["metrics"].items():
        extra = "".join(f" {k}={m[k]:.4g}" for k in ("percentile", "samples") if k in m)
        print(f"{name}: {m['value']:.6g} {m['unit']}{extra}")
    for failure in record["failures"]:
        print(f"failed: {failure}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fp:
            fp.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
