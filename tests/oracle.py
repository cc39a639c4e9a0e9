"""Independent brute-force oracles used to cross-check the library.

Everything here recomputes results from first principles (literal-level
satisfaction, exhaustive subsets) so the tests never trust the code path
they are checking.
"""
import json
from itertools import combinations

from hornkit import (
    CNF,
    BeliefState,
    Clause,
    FormalismTag,
    NotHorn,
    ParseError,
    StepRecord,
    VarUniverse,
    horn_sat,
    parse_clause,
)
from hornkit.change import MODEL_BASED


def clause_satisfied(clause, mask):
    for lit in clause.literals:
        if bool((mask >> lit.var) & 1) == lit.positive:
            return True
    return False


def cnf_satisfied(cnf, mask):
    return all(clause_satisfied(cl, mask) for cl in cnf.clauses)


def condition_in_order(cnf, assignment):
    """Substitution clause by clause, in the input's order and left
    uncanonicalised: satisfied clauses drop, falsified literals go."""
    out = []
    for cl in cnf.clauses:
        if any((not code & 1) == bool(assignment[code >> 1])
               for code in cl.codes if code >> 1 in assignment):
            continue
        out.append(Clause.from_codes(c for c in cl.codes if c >> 1 not in assignment))
    return CNF(cnf.universe, out)


def models_brute(cnf):
    n = len(cnf.universe)
    return {m for m in range(1 << n) if cnf_satisfied(cnf, m)}


def closure_brute(masks):
    """AND-closure by repeated full pairwise sweeps."""
    closed = set(masks)
    while True:
        extra = {a & b for a in closed for b in closed} - closed
        if not extra:
            return closed
        closed |= extra


def is_closed_brute(masks):
    masks = set(masks)
    return all(a & b in masks for a in masks for b in masks)


def hitting_sets_brute(n, edges):
    """All minimal hitting sets over vertices 1..n, by full subset scan."""
    hitting = [
        frozenset(s)
        for size in range(n + 1)
        for s in combinations(range(1, n + 1), size)
        if all(set(s) & set(e) for e in edges)
    ]
    return {h for h in hitting if not any(o < h for o in hitting)}


def min_cover_brute(n, edges):
    """Minimum node cover size over nodes 1..n."""
    for size in range(n + 1):
        for s in combinations(range(1, n + 1), size):
            chosen = set(s)
            if all(a in chosen or b in chosen for a, b in edges):
                return size
    return n


def _cnf_doc(cnf):
    return [cl.tokens(cnf.universe) for cl in cnf.canonical().clauses]


def session_to_json_reference(state):
    """Session text as json.dumps(indent=2) writes the document."""
    doc = {
        "vars": list(state.universe.names),
        "formalism": state.formalism.value,
        "lower": _cnf_doc(state.lower),
        "upper": _cnf_doc(state.upper),
        "log": [
            {"phi": _cnf_doc(rec.phi), "path": rec.path,
             "core_pick": rec.core_pick, "gap": rec.gap}
            for rec in state.log
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _json_list(data, name):
    if not isinstance(data, list):
        raise ParseError(f"bad session file: {name} is not a list")
    return data


def _cnf_from_doc(data, universe, name):
    if not all(isinstance(tokens, list)
               and all(isinstance(t, str) and t.split() == [t] for t in tokens)
               for tokens in _json_list(data, name)):
        raise ParseError(f"bad session file: {name} is not a list of lists of literals")
    return CNF(universe, tuple(parse_clause(" ".join(tokens), universe) for tokens in data))


def _bound_from_doc(data, universe, name):
    bound = _cnf_from_doc(data, universe, f"{name} bound")
    try:
        least = horn_sat(bound)
    except NotHorn:
        raise ParseError(f"bad session file: {name} bound is not Horn") from None
    if least is None:
        raise ParseError(f"bad session file: {name} bound is unsatisfiable")
    return bound


def _record_from_doc(rec, universe):
    path, core_pick, gap = rec["path"], rec["core_pick"], rec.get("gap")
    if path not in ("fast", "semantic"):
        raise ParseError(f"bad session file: unknown path {path!r}")
    if type(core_pick) is not int or core_pick < 0:
        raise ParseError(f"bad session file: bad core_pick {core_pick!r}")
    if gap is not None and (type(gap) is not int or gap < 0):
        raise ParseError(f"bad session file: bad gap {gap!r}")
    return StepRecord(_cnf_from_doc(rec["phi"], universe, "log phi"), path, core_pick, gap)


def session_from_json_reference(text):
    """Session reader that parses every clause with parse_clause, after
    checking every JSON type of the list it is in."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad session file: {exc}") from exc
    try:
        universe = VarUniverse(_json_list(doc["vars"], "vars"))
        formalism = FormalismTag(doc["formalism"])
        if formalism not in MODEL_BASED:
            raise ValueError(f"belief states require a model-based formalism, "
                             f"not {formalism.value}")
        lower = _bound_from_doc(doc["lower"], universe, "lower")
        upper = _bound_from_doc(doc["upper"], universe, "upper")
        log = tuple(_record_from_doc(rec, universe)
                    for rec in _json_list(doc.get("log", []), "log"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad session file: {exc}") from exc
    return BeliefState(universe, lower, upper, formalism, log)
