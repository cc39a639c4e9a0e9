import json
import time
import tracemalloc

import pytest

from hornkit import (
    BadIndex,
    NeedsSemanticFallback,
    NotPure,
    ParseError,
    SetTooLarge,
    TautologicalClause,
    UniverseTooLarge,
    UnsatisfiableBase,
    UnsatisfiableUpdate,
)
from hornkit.cli import EXIT_CODES, main

GAMMA0 = "vars x y z\nx y\nx z\ny -z\n-y z\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture
def gamma0_file(tmp_path):
    path = tmp_path / "gamma0.cnf"
    path.write_text(GAMMA0)
    return str(path)


def test_compile_example(capsys, gamma0_file):
    code, out = run(capsys, "compile", gamma0_file)
    assert code == 0
    assert out == "core: y z\nenvelope: (-z y) (-y z)\n"


def test_compile_all_cores(capsys, gamma0_file):
    code, out = run(capsys, "compile", gamma0_file, "--all-cores")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "core: y z"
    assert lines[1] == "core: x (-z y) (-y z)"
    assert lines[2] == "envelope: (-z y) (-y z)"


def test_compile_horn_input_fixed_point(capsys, tmp_path):
    # Horn input: envelope and core coincide with the input up to equivalence
    path = tmp_path / "horn.cnf"
    path.write_text("vars x y\nx\n-x y\n")
    code, out = run(capsys, "compile", str(path))
    assert code == 0
    assert out == "core: x y\nenvelope: x y\n"


def test_compile_closed_model_set_is_its_own_core(capsys, tmp_path):
    # 40 models closed under AND: the exact core search answers at once
    path = tmp_path / "closed.cnf"
    path.write_text("vars x0 x1 x2 x3 x4 x5\n-x5 -x0\n-x2 -x3 -x4\n-x5 -x2 -x4\n")
    start = time.perf_counter()
    code, out = run(capsys, "compile", str(path), "--core-limit", "40")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    core, envelope = out.splitlines()
    assert core.removeprefix("core: ") == envelope.removeprefix("envelope: ")


def test_compile_unsat(capsys, tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_text("vars x\nx\n-x\n")
    code, out = run(capsys, "compile", str(path))
    assert code == 4
    assert out == "UNSAT\n"


def test_compile_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_text("vars x\ny\n")
    code, _ = run(capsys, "compile", str(path))
    assert code == 2


def test_compile_limit_exceeded(capsys, tmp_path):
    names = " ".join(f"x{i}" for i in range(22))
    path = tmp_path / "wide.cnf"
    path.write_text(f"vars {names}\nx0\n")
    code, _ = run(capsys, "compile", str(path))
    assert code == 3


def test_compile_dimacs(capsys, tmp_path):
    path = tmp_path / "f.dimacs"
    path.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
    code, out = run(capsys, "compile", str(path))
    assert code == 0
    assert out == "core: v1 v2\nenvelope: v1 v2\n"


def test_dimacs_header_checked_before_universe(capsys, tmp_path):
    # the declared count is refused before half a million names are built
    path = tmp_path / "wide.dimacs"
    path.write_text("p cnf 500000 1\n1 0\n")
    for argv in (("compile", str(path)),
                 ("session", "new", str(tmp_path / "s.json"), "--formula", str(path),
                  "--formalism", "dalal", "--compile")):
        tracemalloc.start()
        try:
            code = main(list(argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error: 500000 variables exceeds enumeration limit 20\n"
        assert peak < 5 * 2**20
    assert not (tmp_path / "s.json").exists()


def test_session_new_limits_only_dimacs_it_enumerates(capsys, tmp_path):
    # not Horn, so init_compile would enumerate: refused before the universe
    state = tmp_path / "s.json"
    path = tmp_path / "wide.dimacs"
    path.write_text("p cnf 500000 1\n1 2 0\n")
    tracemalloc.start()
    try:
        code = main(["session", "new", str(state), "--formula", str(path),
                     "--formalism", "dalal"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().err) == (
        3, "error: 500000 variables exceeds enumeration limit 20\n")
    assert peak < 5 * 2**20
    assert not state.exists()
    # Horn, so init_horn takes it past the enumeration limit
    path.write_text("p cnf 30 2\n1 0\n-1 2 0\n")
    code, out = run(capsys, "session", "new", str(state), "--formula", str(path),
                    "--formalism", "dalal")
    assert (code, out) == (0, f"initialized {state}\n")
    assert len(json.loads(state.read_text())["vars"]) == 30


@pytest.mark.parametrize("option, message", [
    ("--vars-limit", "a variable limit must be at least 1"),
    ("--core-limit", "a core limit must be at least 1"),
])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_limit_options_below_one_exit_2(capsys, gamma0_file, option, value, message):
    with pytest.raises(SystemExit) as exc:
        main(["compile", gamma0_file, f"{option}={value}"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_session_flow_4_1(capsys, tmp_path, gamma0_file):
    state = str(tmp_path / "session.json")
    phi = tmp_path / "phi.cnf"
    phi.write_text("-x\n-y\n")

    code, _ = run(capsys, "session", "new", state, "--formula", gamma0_file,
                  "--formalism", "dalal")
    assert code == 0

    code, out = run(capsys, "update", state, "--clause-file", str(phi))
    assert code == 0
    assert "path=semantic" in out
    assert "bracket=BROKEN" in out

    doc = json.loads(open(state).read())
    assert doc["lower"] == [["-x"], ["-y"], ["z"]]
    assert doc["upper"] == [["-x"], ["-y"], ["-z"]]

    code, out = run(capsys, "query", state, "--clause", "-z")
    assert code == 12
    assert out == "ContradictoryBounds\n"

    code, out = run(capsys, "query", state, "--clause", "z")
    assert code == 11
    assert out == "Unknown\n"

    code, out = run(capsys, "query", state, "--clause", "-x")
    assert code == 0
    assert out == "Yes\n"


def test_update_negative_unit_clause(capsys, tmp_path, gamma0_file):
    state = str(tmp_path / "session.json")
    run(capsys, "session", "new", state, "--formula", gamma0_file,
        "--formalism", "dalal")
    code, _ = run(capsys, "update", state, "--clause", "-z")
    assert code == 0
    assert json.loads(open(state).read())["log"][-1]["phi"] == [["-z"]]


def test_query_clause_with_equals(capsys, tmp_path, gamma0_file):
    state = str(tmp_path / "session.json")
    phi = tmp_path / "phi.cnf"
    phi.write_text("-x\n-y\n")
    run(capsys, "session", "new", state, "--formula", gamma0_file,
        "--formalism", "dalal")
    run(capsys, "update", state, "--clause-file", str(phi))
    code, out = run(capsys, "query", state, "--clause=-z")
    assert code == 12
    assert out == "ContradictoryBounds\n"


def test_session_flow_winslett(capsys, tmp_path, gamma0_file):
    state = str(tmp_path / "session.json")
    phi = tmp_path / "phi.cnf"
    phi.write_text("-x\n-y\n")
    run(capsys, "session", "new", state, "--formula", gamma0_file,
        "--formalism", "winslett")
    code, out = run(capsys, "update", state, "--clause-file", str(phi))
    assert code == 0
    assert "bracket=OK" in out


def test_update_formalism_override(capsys, tmp_path, gamma0_file):
    state = str(tmp_path / "session.json")
    phi = tmp_path / "phi.cnf"
    phi.write_text("-x\n-y\n")
    run(capsys, "session", "new", state, "--formula", gamma0_file,
        "--formalism", "dalal")
    code, out = run(capsys, "update", state, "--clause-file", str(phi),
                    "--formalism", "winslett")
    assert code == 0
    assert "bracket=OK" in out
    assert json.loads(open(state).read())["formalism"] == "winslett"


def test_update_fast_path_consistent_clause(capsys, tmp_path):
    formula = tmp_path / "f.cnf"
    formula.write_text("vars x y\nx\n")
    state = str(tmp_path / "s.json")
    run(capsys, "session", "new", state, "--formula", str(formula),
        "--formalism", "dalal")
    code, out = run(capsys, "update", state, "--clause", "-x y")
    assert code == 0
    assert "path=fast" in out
    assert "bracket=OK" in out


def test_update_no_fallback_exits_3(capsys, tmp_path):
    formula = tmp_path / "f.cnf"
    formula.write_text("vars x y\nx\n")
    state = str(tmp_path / "s.json")
    run(capsys, "session", "new", state, "--formula", str(formula),
        "--formalism", "winslett")
    code, _ = run(capsys, "update", state, "--clause", "-x y", "--no-fallback")
    assert code == 3


def test_update_query_parse_error(capsys, tmp_path):
    formula = tmp_path / "f.cnf"
    formula.write_text("vars x y\nx\n")
    state = str(tmp_path / "s.json")
    run(capsys, "session", "new", state, "--formula", str(formula),
        "--formalism", "dalal")
    code, _ = run(capsys, "query", state, "--clause", "nosuch")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("query", "--clause", "x"),
    ("update", "--clause", "-x y"),
])
def test_missing_session_file_exits_2(capsys, tmp_path, argv):
    missing = str(tmp_path / "missing.json")
    code = main([argv[0], missing, *argv[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot read") and err.count("\n") == 1


# One case per EXIT_CODES row, plus update's own exit 5: the error raised,
# its exit code and a piece of its message.  "S" stands for the session
# path and "F:" starts the text of an input file.
ERROR_CASES = [
    pytest.param(GAMMA0, ("update", "S", "--clause", "nosuch"),
                 ParseError, 2, "unknown variable 'nosuch'", id="parse"),
    pytest.param(GAMMA0, ("update", "S", "--clause", "x -x"),
                 TautologicalClause, 2, "occurs with both signs", id="tautology"),
    pytest.param("vars x y\nx\n", ("update", "S", "--clause", "-x", "--pick", "5"),
                 BadIndex, 2, "core index 5 out of range 1..1", id="pick"),
    pytest.param(None, ("reduce", "pure3sat", "F:vars a b\na -b\n"),
                 NotPure, 2, "mixed clause", id="not-pure"),
    pytest.param("vars a b c d e f\na\n", ("update", "S", "--clause", "b c"),
                 SetTooLarge, 3, "24 models exceeds exact core limit 20",
                 id="set-too-large"),
    pytest.param(GAMMA0, ("update", "S", "--clause-file", "F:-x\n-y\n", "--no-fallback"),
                 NeedsSemanticFallback, 3, "no fast path", id="no-fallback"),
    pytest.param(None, ("session", "new", "S", "--formula", "F:vars x\nx\n-x\n",
                        "--formalism", "dalal"),
                 UnsatisfiableBase, 4, "initial formula is unsatisfiable",
                 id="unsat-base"),
    pytest.param(GAMMA0, ("update", "S", "--clause-file", "F:x\n-x\n"),
                 UnsatisfiableUpdate, 4, "update formula is unsatisfiable",
                 id="unsat-update"),
    pytest.param("vars w x y z\nx\n",
                 ("update", "S", "--clause", "y z", "--vars-limit", "3"),
                 UniverseTooLarge, 5, "4 variables exceeds envelope limit 3",
                 id="universe-too-large"),
]


@pytest.mark.parametrize("base, argv, error, code, message", ERROR_CASES)
def test_error_exit_codes(capsys, tmp_path, base, argv, error, code, message):
    state = tmp_path / "s.json"
    if base is not None:
        formula = tmp_path / "base.cnf"
        formula.write_text(base)
        assert main(["session", "new", str(state), "--formula", str(formula),
                     "--formalism", "dalal"]) == 0
        capsys.readouterr()
    before = state.read_bytes() if state.exists() else None
    args = []
    for arg in argv:
        if arg == "S":
            arg = str(state)
        elif arg.startswith("F:"):
            path = tmp_path / "input.txt"
            path.write_text(arg[2:])
            arg = str(path)
        args.append(arg)
    assert main(args) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert (state.read_bytes() if state.exists() else None) == before


def test_error_exit_cases_cover_table():
    rows = {}
    for case in ERROR_CASES:
        _, _, error, code, _ = case.values
        if code != 5:  # update's UniverseTooLarge is caught in cmd_update
            rows[next(cls for cls in EXIT_CODES if issubclass(error, cls))] = code
    assert rows == EXIT_CODES


def _session_doc(**changes):
    doc = {"vars": ["x", "y"], "formalism": "dalal", "lower": [["x"]],
           "upper": [["x"]],
           "log": [{"phi": [["x"]], "path": "fast", "core_pick": 1, "gap": 0}]}
    record = changes.pop("record", {})
    doc["log"][0].update(record)
    doc.update(changes)
    return doc


@pytest.mark.parametrize("doc", [
    _session_doc(lower=[["x", "y"]]),
    _session_doc(upper=[["-x"], ["x", "y"]]),
    _session_doc(lower=[["x"], ["-x"]]),
    _session_doc(upper=[[]]),
    _session_doc(record={"path": "warp"}),
    _session_doc(record={"core_pick": "7"}),
    _session_doc(record={"core_pick": -1}),
    _session_doc(record={"core_pick": True}),
    _session_doc(record={"gap": "lots"}),
    _session_doc(record={"gap": False}),
    _session_doc(record={"gap": -3}),
    _session_doc(vars=["x", 1]),
    _session_doc(vars="xy"),
    _session_doc(lower="x"),
    _session_doc(upper=[["x"], "y"]),
    _session_doc(upper=[["-x -y"]]),
    _session_doc(record={"phi": "x"}),
    _session_doc(log={}),
], ids=["lower-not-horn", "upper-not-horn", "lower-unsat", "upper-empty-clause",
        "path", "core-pick-text", "core-pick-negative", "core-pick-bool",
        "gap-text", "gap-bool", "gap-negative", "vars-number", "vars-text",
        "lower-text", "upper-clause-text", "upper-two-literal-token", "phi-text",
        "log-object"])
def test_invalid_session_file_exits_2(capsys, tmp_path, doc):
    state = tmp_path / "s.json"
    state.write_text(json.dumps(doc))
    for argv in (("query", str(state), "--clause", "x"),
                 ("update", str(state), "--clause", "y")):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: bad session file") and err.count("\n") == 1
    assert json.loads(state.read_text()) == doc


@pytest.mark.parametrize("argv", [
    ("compile", "F"),
    ("query", "F", "--clause", "x"),
    ("update", "F", "--clause", "x"),
    ("reduce", "transversal", "F"),
], ids=["compile", "query", "update", "reduce"])
def test_undecodable_file_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"vars x\n\xff\xfe\n")
    code = main([str(path) if arg == "F" else arg for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot read {path}") and err.count("\n") == 1


def test_valid_session_doc_loads(capsys, tmp_path):
    state = tmp_path / "s.json"
    state.write_text(json.dumps(_session_doc(record={"gap": None})))
    code, out = run(capsys, "query", str(state), "--clause", "x")
    assert (code, out) == (0, "Yes\n")


def test_session_files_byte_identical(capsys, tmp_path, gamma0_file):
    phi = tmp_path / "phi.cnf"
    phi.write_text("-x\n-y\n")
    blobs = []
    for name in ("a.json", "b.json"):
        state = str(tmp_path / name)
        run(capsys, "session", "new", state, "--formula", gamma0_file,
            "--formalism", "dalal")
        run(capsys, "update", state, "--clause-file", str(phi))
        blobs.append(open(state, "rb").read())
    assert blobs[0] == blobs[1]


def test_reduce_transversal(capsys, tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("3\n1 2\n2 3\n")
    code, out = run(capsys, "reduce", "transversal", str(path))
    assert code == 0
    assert out == "2\n1 3\n"


def test_reduce_fuv(capsys, tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("3\n1 2\n2 3\n")
    code, out = run(capsys, "reduce", "fuv", str(path))
    assert code == 0
    assert out.splitlines() == [
        "vars x1 x2 x3",
        "item g1: x1",
        "item g2: x2",
        "item g3: x3",
        "phi: (-x1 -x2) (-x2 -x3)",
    ]


def test_reduce_pure3sat(capsys, tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("vars a b\na b\n-a -b\n")
    code, out = run(capsys, "reduce", "pure3sat", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vars X0 X1 X2 Y1"
    assert "item g: -Y1" in lines
    assert "phi: (-X1 -X2)" in lines


def test_reduce_nodecover(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2\n1 2\n")
    code, out = run(capsys, "reduce", "nodecover", str(path), "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vars e1 v1 v2"
    assert sum(1 for l in lines if l.startswith("m1 ")) == 2
    assert sum(1 for l in lines if l.startswith("m2 ")) == 2
    assert "k 0" in lines
    assert "maxmodel yes" in lines


def test_verify_small_run_deterministic(capsys):
    code1, out1 = run(capsys, "verify", "--n", "4", "--trials", "20",
                      "--seed", "42", "--sessions", "3", "--steps", "4")
    code2, out2 = run(capsys, "verify", "--n", "4", "--trials", "20",
                      "--seed", "42", "--sessions", "3", "--steps", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "fastpath: PASS" in out1
    assert "closure: PASS" in out1
    assert "bijection: PASS" in out1
    assert "bracketing: PASS" in out1


def test_verify_single_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "closure", "--n", "5",
                    "--trials", "25", "--seed", "1")
    assert code == 0
    assert out.startswith("closure: PASS")


def test_verify_adversarial_additivity(capsys):
    code, out = run(capsys, "verify", "--n", "6", "--trials", "400", "--seed", "7",
                    "--formalism", "dalal", "--adversarial-additivity")
    assert code == 0
    assert "witness found for dalal" in out


def test_verify_adversarial_additivity_winslett_finds_none(capsys):
    code, out = run(capsys, "verify", "--n", "5", "--trials", "150", "--seed", "7",
                    "--formalism", "winslett", "--adversarial-additivity")
    assert code == 0
    assert "no witness" in out


def test_verify_trivial(capsys):
    code, out = run(capsys, "verify", "--n", "2", "--trials", "1", "--seed", "0",
                    "--sessions", "1", "--steps", "1")
    assert code == 0
    assert "fastpath: PASS" in out
    assert "closure: PASS" in out
    assert "bijection: PASS" in out
    assert "bracketing: PASS" in out


def test_verify_rejects_empty_universe(capsys):
    cases = [
        (["--n", "0"], "at least one variable"),
        (["--n", "3", "--trials", "-5"], "at least one trial"),
        (["--trials", "0"], "at least one trial"),
        (["--sessions", "-2"], "at least one session"),
        (["--sessions", "0"], "at least one session"),
        (["--steps", "0"], "at least one step"),
        (["--steps", "-1"], "at least one step"),
        (["--trials", "many"], "invalid int value"),
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
