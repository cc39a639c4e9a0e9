"""In-process client for the horn-bulk workload.

Runs in its own process so that its peak memory is the library's, not
the checker's.  It gets the base formula file and the operation file
written by run.py, builds the initial state, then runs episodes of
updates (`step` then `session_to_json`, as a caller who persists the
state does) and queries (`recompile.query`) in a closed loop, starting
episodes until the time is up.  Each update's session text is written out after its timer
stops, for run.py to check.

    python3 bench/bulk.py BASE OPS OUTDIR SECONDS SETUPS [TRACE_FILE]
"""
from __future__ import annotations

import json
import os
import sys
import time


def main(argv):
    base, ops_path, out_dir, seconds, setups = argv[:5]
    trace_file = argv[5] if len(argv) > 5 else None
    tracer = None
    if trace_file:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from hornkit.change import FormalismTag
    from hornkit.errors import HornkitError
    from hornkit.formula import CNF, parse_clause, parse_formula
    from hornkit.recompile import init_horn, query, session_to_json, step

    setup_s = []
    for _ in range(int(setups)):
        start = time.perf_counter()
        with open(base, encoding="utf-8") as fp:
            g = parse_formula(fp.read())
        initial = init_horn(g, FormalismTag.DALAL)
        text = session_to_json(initial)
        with open(os.path.join(out_dir, "initial.json"), "w", encoding="utf-8") as fp:
            fp.write(text)
        setup_s.append(time.perf_counter() - start)

    universe = initial.universe
    with open(ops_path, encoding="utf-8") as fp:
        episodes = [
            [(CNF(universe, (parse_clause(update, universe),)),
              [parse_clause(q, universe) for q in queries])
             for update, queries in episode]
            for episode in json.load(fp)
        ]

    records = []
    op = 0
    start = time.perf_counter()
    deadline = start + float(seconds)
    e = 0
    while time.perf_counter() < deadline:
        state = initial
        for j, (phi, queries) in enumerate(episodes[e % len(episodes)]):
            if tracer:
                tracer.op = op
            op += 1
            name = os.path.join(out_dir, f"u{op}.json")
            error = text = None
            t0 = time.perf_counter()
            try:
                state = step(state, phi)
                text = session_to_json(state)
            except HornkitError as exc:
                error = repr(exc)
            ms = (time.perf_counter() - t0) * 1e3
            if text is not None:
                with open(name, "w", encoding="utf-8") as fp:
                    fp.write(text)
            records.append({"kind": "update", "ms": ms, "episode": e, "step": j,
                            "file": name if text is not None else None, "error": error})
            for k, psi in enumerate(queries):
                if tracer:
                    tracer.op = op
                op += 1
                error = answer = None
                t0 = time.perf_counter()
                try:
                    answer = query(state, psi).value
                except HornkitError as exc:
                    error = repr(exc)
                ms = (time.perf_counter() - t0) * 1e3
                records.append({"kind": "query", "ms": ms, "episode": e, "step": j,
                                "index": k, "verdict": answer, "error": error})
        e += 1
    loop_s = time.perf_counter() - start

    with open(os.path.join(out_dir, "bulk.json"), "w", encoding="utf-8") as fp:
        json.dump({"setup_s": setup_s, "loop_s": loop_s, "records": records}, fp)
    if tracer:
        tracer.dump(trace_file)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
