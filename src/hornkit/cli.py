"""Command-line surface: compile, update, query, verify, reduce, session.

Exit codes are a stable contract: 0 success (query Yes), 1 verify
mismatch, 2 bad input, 3 limit exceeded or refused fallback, 4
unsatisfiable input, 5 universe too large on update, and the query
verdicts No/Unknown/ContradictoryBounds map to 10/11/12.  Commands raise;
`main` maps each error to its code through EXIT_CODES.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .change import FormalismTag
from .config import DEFAULT_LIMITS
from .errors import (
    BadIndex,
    NeedsSemanticFallback,
    NotPure,
    ParseError,
    TautologicalClause,
    TooLarge,
    UniverseTooLarge,
    UnsatisfiableBase,
    UnsatisfiableUpdate,
)
from .formula import CNF, parse_clause, parse_formula, read_text
from .recompile import (
    check_bracket,
    init_compile,
    init_horn,
    query,
    read_session,
    step,
    write_session,
)
from .reductions import (
    fuv_reduction,
    maxmodel,
    nodecover_reduction,
    parse_graph,
    parse_hypergraph,
    pure3sat_reduction,
    transversals,
)
from .semantics import cores_from_models, enumerate_models, envelope_from_models
from .verify import (
    find_additivity_witness,
    run_bijection_suite,
    run_bracketing_suite,
    run_closure_suite,
    run_fastpath_suite,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_UNSAT = 4
EXIT_UNIVERSE = 5
QUERY_EXITS = {"Yes": 0, "No": 10, "Unknown": 11, "ContradictoryBounds": 12}

# The errors CLI input can reach, most specific class first; any other
# error is a bug and ends in a traceback.
EXIT_CODES = {
    ParseError: EXIT_INPUT,          # and UnknownVariable
    TautologicalClause: EXIT_INPUT,
    BadIndex: EXIT_INPUT,
    NotPure: EXIT_INPUT,
    TooLarge: EXIT_LIMIT,            # and UniverseTooLarge, SetTooLarge
    NeedsSemanticFallback: EXIT_LIMIT,
    UnsatisfiableBase: EXIT_UNSAT,
    UnsatisfiableUpdate: EXIT_UNSAT,
}


def _limits(args):
    limits = DEFAULT_LIMITS
    if getattr(args, "vars_limit", None) is not None:
        limits = limits.with_vars_limit(args.vars_limit)
    if getattr(args, "core_limit", None) is not None:
        limits = replace(limits, core_models=args.core_limit)
    return limits


def cmd_compile(args) -> int:
    limits = _limits(args)
    cnf = parse_formula(read_text(args.input), args.format, limits.enumeration_vars)
    models = enumerate_models(cnf, limits)
    if not models:
        print("UNSAT")
        return EXIT_UNSAT
    mode = "all-exact" if args.all_cores else args.core_mode
    cores = cores_from_models(models, mode, limits)
    envelope = envelope_from_models(models, limits)
    for core in cores:
        print(f"core: {core.one_line()}")
    print(f"envelope: {envelope.one_line()}")
    return EXIT_OK


def _parse_update_formula(args, universe) -> CNF:
    if args.clause is not None:
        return CNF(universe, (parse_clause(args.clause, universe),))
    text = read_text(args.clause_file)
    clauses = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            clauses.append(parse_clause(line, universe))
    if not clauses:
        raise ParseError(f"no clauses in {args.clause_file}")
    return CNF(universe, tuple(clauses))


def cmd_update(args) -> int:
    state = read_session(args.state)
    if args.formalism:
        state = replace(state, formalism=FormalismTag(args.formalism))
    phi = _parse_update_formula(args, state.universe)
    try:
        state = step(state, phi, pick=args.pick, core_mode=args.core_mode,
                     allow_fallback=not args.no_fallback, limits=_limits(args))
    except UniverseTooLarge as exc:
        # update's own code: compile reports the same class as a limit (3)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNIVERSE
    write_session(state, args.state)
    print(f"path={state.log[-1].path}")
    print(f"bracket={'OK' if check_bracket(state) else 'BROKEN'}")
    return EXIT_OK


def cmd_query(args) -> int:
    state = read_session(args.state)
    psi = parse_clause(args.clause, state.universe)
    verdict = query(state, psi)
    print(verdict.value)
    return QUERY_EXITS[verdict.value]


def cmd_session_new(args) -> int:
    limits = _limits(args)
    # only compilation enumerates; init_horn takes a Horn base of any size
    cnf = parse_formula(read_text(args.formula), args.format, limits.enumeration_vars,
                        horn_exempt=not args.compile)
    tag = FormalismTag(args.formalism)
    if cnf.horn() and not args.compile:
        state = init_horn(cnf, tag)
    else:
        state = init_compile(cnf, tag, core_mode=args.core_mode, limits=limits)
    write_session(state, args.state)
    print(f"initialized {args.state}")
    return EXIT_OK


def cmd_verify(args) -> int:
    out = print
    if args.adversarial_additivity:
        tag = FormalismTag(args.formalism or "dalal")
        witness = find_additivity_witness(args.n, args.trials, args.seed, tag)
        if witness is None:
            out(f"additivity: no witness found for {tag.value} "
                f"({args.trials} trials)")
            return EXIT_OK if tag is FormalismTag.WINSLETT else EXIT_MISMATCH
        g1, g2, f = witness
        out(f"additivity: witness found for {tag.value}")
        out(f"  A: {' '.join(g1.texts())}")
        out(f"  B: {' '.join(g2.texts())}")
        out(f"  phi: {' '.join(f.texts())}")
        return EXIT_OK
    suites = {
        "fastpath": lambda: run_fastpath_suite(
            args.n, args.trials, args.seed, out,
            tags=[FormalismTag(args.formalism)] if args.formalism else None),
        "closure": lambda: run_closure_suite(args.n, args.trials, args.seed, out),
        "bijection": lambda: run_bijection_suite(args.trials, args.seed, out),
        "bracketing": lambda: run_bracketing_suite(
            args.sessions, args.steps, args.seed, out, n=min(args.n, 8)),
    }
    selected = list(suites) if args.suite == "all" else [args.suite]
    ok = True
    for name in selected:
        ok = suites[name]() and ok
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_reduce(args) -> int:
    text = read_text(args.input)
    if args.kind == "transversal":
        for t in transversals(parse_hypergraph(text)):
            print(" ".join(str(v) for v in t))
    elif args.kind == "nodecover":
        if args.bound is None:
            raise ParseError("nodecover needs a cover bound argument")
        limits = _limits(args)
        m1, m2, k = nodecover_reduction(parse_graph(text), args.bound, limits)
        print("vars " + " ".join(m1.universe.names))
        for line in m1.texts():
            print(f"m1 {line}")
        for line in m2.texts():
            print(f"m2 {line}")
        print(f"k {k}")
        print(f"maxmodel {'yes' if maxmodel(m1, m2, k, limits) else 'no'}")
    else:
        if args.kind == "fuv":
            kb, phi = fuv_reduction(parse_hypergraph(text))
        else:
            kb, _, phi = pure3sat_reduction(parse_formula(text, args.format))
        print("vars " + " ".join(kb.universe.names))
        for name, cnf in kb.items:
            print(f"item {name}: {cnf.one_line()}")
        print(f"phi: {phi.one_line()}")
    return EXIT_OK


def _positive_int(message: str):
    """argparse type for a count: an int of at least 1, else message."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < 1:
            raise argparse.ArgumentTypeError(message)
        return value
    return parse


def _fold_clause_values(argv):
    """Join each `--clause VALUE` pair into `--clause=VALUE`.

    argparse reads a token such as `-z` as an option flag, so a one-literal
    negative clause would otherwise only parse as `--clause=-z`.
    """
    folded = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            folded.append(token)
            folded.extend(tokens)
        elif token == "--clause":
            value = next(tokens, None)
            folded.append(token if value is None else f"--clause={value}")
        else:
            folded.append(token)
    return folded


def _option(*names, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, for the subcommands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hornkit",
        description="Horn-bound knowledge compilation with model-based updates")
    sub = parser.add_subparsers(dest="command", required=True)

    vars_limit = _option("--vars-limit", default=None,
                         type=_positive_int("a variable limit must be at least 1"),
                         help="override the enumeration/envelope variable limits")
    core_limit = _option("--core-limit", default=None,
                         type=_positive_int("a core limit must be at least 1"),
                         help="override the exact-core model count limit")
    fmt = _option("--format", choices=("auto", "sym", "dimacs"), default="auto",
                  help="formula input format (default: auto-detect)")
    core_mode = _option("--core-mode", choices=("exact-max", "greedy"),
                        default="exact-max")
    formalisms = [t.value for t in FormalismTag if t.value not in ("fuv", "widtio")]

    p = sub.add_parser("compile", parents=[vars_limit, core_limit, fmt, core_mode],
                       help="print the Horn core(s) and envelope of a formula")
    p.add_argument("input")
    p.add_argument("--all-cores", action="store_true",
                   help="print every maximal core")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("update", parents=[vars_limit, core_limit, core_mode],
                       help="apply an update to a session file")
    p.add_argument("state")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--clause", help="inline clause, e.g. '-x y' or '-z'")
    group.add_argument("--clause-file", help="file with one clause per line")
    p.add_argument("--formalism", choices=formalisms)
    p.add_argument("--pick", type=int, default=1,
                   help="1-based core pick for the fast path (default 1); "
                        "out of range exits 2")
    p.add_argument("--no-fallback", action="store_true",
                   help="exit 3 instead of enumerating when no fast path exists: "
                        "several clauses, a non-Horn clause, or winslett on a "
                        "clause the bound already agrees with")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("query", help="three-valued clause query against a session")
    p.add_argument("state")
    p.add_argument("--clause", required=True,
                   help="inline clause, e.g. '-x y' or '-z'")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("session", help="session file management")
    session_sub = p.add_subparsers(dest="session_command", required=True)
    p = session_sub.add_parser("new", parents=[vars_limit, core_limit, fmt, core_mode],
                               help="create a session file")
    p.add_argument("state")
    p.add_argument("--formula", required=True, help="initial formula file")
    p.add_argument("--formalism", required=True, choices=formalisms)
    p.add_argument("--compile", action="store_true",
                   help="force envelope/core compilation even for Horn input")
    p.set_defaults(func=cmd_session_new)

    p = sub.add_parser("verify", help="run the oracle-equivalence property suites")
    p.add_argument("--n", type=_positive_int("a universe needs at least one variable"),
                   default=8,
                   help="max universe size: sizes are drawn up to n, each "
                        "suite's usual minimum lowered to n when n is smaller")
    p.add_argument("--trials", type=_positive_int("needs at least one trial"),
                   default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sessions", type=_positive_int("needs at least one session"),
                   default=20, help="bracketing suite session count")
    p.add_argument("--steps", type=_positive_int("needs at least one step"),
                   default=10, help="updates per bracketing session")
    p.add_argument("--formalism", choices=formalisms)
    p.add_argument("--suite", choices=("all", "fastpath", "closure", "bijection",
                                       "bracketing"), default="all")
    p.add_argument("--adversarial-additivity", action="store_true",
                   help="search for a non-additivity witness")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", parents=[vars_limit, fmt],
                       help="run a reduction construction on an instance file")
    p.add_argument("kind", choices=("transversal", "fuv", "pure3sat", "nodecover"))
    p.add_argument("input")
    p.add_argument("bound", type=int, nargs="?", default=None,
                   help="cover bound (nodecover only)")
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_fold_clause_values(argv))
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
