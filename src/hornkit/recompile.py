"""Incremental recompilation: a pair of Horn bounds stepped through updates.

A belief state keeps a lower (strict) and an upper (relaxed) Horn bound.
Each update replaces the upper bound by the Horn envelope of its update
and the lower bound by a Horn core of its update, taking the linear fast
path whenever the update is a single Horn clause it can handle.  Queries
answer three-valued from the two bounds in linear time; the bounds may
stop bracketing each other under the non-additive formalisms, which is
surfaced, never repaired.  Both bounds are satisfiable Horn formulas, checked
Horn where they enter and kept Horn by every step.  A fast step builds them
in canonical form, flagged so; a session is written, and the bracket
checked, in canonical form, which costs nothing then.

A session file is json.dumps(doc, indent=2) of one document, but neither
side runs the JSON encoder's indenting pure-Python path.  The writer
lays the text out itself: names are encoded once per universe with the C
string encoder, and each bound clause's text is kept on the clause for
the universe it was written in, so the clauses that both bounds and
successive steps share are encoded once.  The reader maps tokens to codes
through the universe's name index and reads a token list that repeats
between the bounds into one clause; any token or clause it cannot take
sends that list through the checking parser, which raises the same error
it always raised.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from enum import Enum

from .change import MODEL_BASED, FormalismTag, update_cnf
from .config import DEFAULT_LIMITS, Limits
from .errors import (
    NeedsSemanticFallback,
    NotHorn,
    ParseError,
    TautologicalClause,
    UniverseMismatch,
    UnsatisfiableBase,
    UnsatisfiableUpdate,
)
from .fastpath import fast_update, pick_core
from .formula import CNF, Clause, VarUniverse, parse_clause, read_text
from .hornsat import entails, entails_cnf, horn_sat
from .semantics import (
    check_envelope_vars,
    cores_from_models,
    enumerate_models,
    envelope_from_models,
)


class QueryVerdict(str, Enum):
    YES = "Yes"
    NO = "No"
    UNKNOWN = "Unknown"
    CONTRADICTORY_BOUNDS = "ContradictoryBounds"


@dataclass(frozen=True)
class StepRecord:
    """One applied update: the formula, which path ran, and the core pick.

    core_pick is the 1-based index into the fast-path core list, or 0 when
    the lower bound came from the semantic core selection.  gap is the
    number of upper-bound models outside the lower bound, when the
    universe is small enough to count them.
    """

    phi: CNF
    path: str
    core_pick: int
    gap: int | None = None


@dataclass(frozen=True)
class BeliefState:
    """Immutable (lower, upper) Horn pair with its formalism and history.

    Both bounds are satisfiable Horn CNFs, canonical after init_horn and
    after a fast step.  lower may be upper itself (as init_horn leaves
    it); step then factorises the pair once.
    """

    universe: VarUniverse
    lower: CNF
    upper: CNF
    formalism: FormalismTag
    log: tuple = ()


def _require_model_based(formalism) -> FormalismTag:
    tag = FormalismTag(formalism)
    if tag not in MODEL_BASED:
        raise ValueError(f"belief states require a model-based formalism, not {tag.value}")
    return tag


def init_horn(g: CNF, formalism: FormalismTag) -> BeliefState:
    """Start from a Horn formula; both bounds equal its canonical form."""
    tag = _require_model_based(formalism)
    if horn_sat(g) is None:
        raise UnsatisfiableBase("initial formula is unsatisfiable")
    canon = g.canonical()
    return BeliefState(g.universe, canon, canon, tag)


def init_compile(g: CNF, formalism: FormalismTag, *, core_mode: str = "exact-max",
                 limits: Limits = DEFAULT_LIMITS) -> BeliefState:
    """Start from an arbitrary formula by compiling its envelope and core."""
    tag = _require_model_based(formalism)
    ms = enumerate_models(g, limits)
    if not ms:
        raise UnsatisfiableBase("initial formula is unsatisfiable")
    upper = envelope_from_models(ms, limits)
    lower = cores_from_models(ms, core_mode, limits)[0]
    return BeliefState(g.universe, lower, upper, tag)


def _gap_size(state: BeliefState, limits: Limits):
    if len(state.universe) > limits.envelope_vars:
        return None
    upper = enumerate_models(state.upper, limits).table
    lower = enumerate_models(state.lower, limits).table
    return (upper & ~lower).bit_count()


def _fast_or_none(bound: CNF, clause: Clause, tag: FormalismTag, allow_fallback: bool):
    """fast_update's (envelope, cores), or None for a fallback that is allowed."""
    try:
        return fast_update(bound, clause, tag)
    except NeedsSemanticFallback:
        if not allow_fallback:
            raise
        return None


def step(state: BeliefState, phi: CNF, *, pick: int = 1, core_mode: str = "exact-max",
         allow_fallback: bool = True, limits: Limits = DEFAULT_LIMITS) -> BeliefState:
    """Apply one update to both bounds and append it to the log.

    Single Horn-clause updates take the linear fast path per bound, once
    for both when the bounds are equal; the rest (multi-clause or
    non-Horn updates, and winslett when a bound is consistent with the
    clause) go through exact enumeration.  With allow_fallback false
    every such update raises NeedsSemanticFallback instead.  That refusal,
    like UniverseTooLarge for a semantic step past the envelope limit,
    comes before anything is enumerated.
    """
    if phi.universe != state.universe:
        raise UniverseMismatch("update formula over a different universe")
    if phi.horn() and horn_sat(phi) is None:
        raise UnsatisfiableUpdate("update formula is unsatisfiable")

    single = len(phi.clauses) == 1 and phi.clauses[0].horn() and bool(phi.clauses[0].codes)
    if not single and not allow_fallback:
        raise NeedsSemanticFallback("no fast path: the update is not one Horn clause")
    upper_fast = lower_fast = None
    if single:
        clause = phi.clauses[0]
        upper_fast = _fast_or_none(state.upper, clause, state.formalism, allow_fallback)
        # one factorisation serves both bounds when they are equal
        lower_fast = upper_fast if state.lower == state.upper else _fast_or_none(
            state.lower, clause, state.formalism, allow_fallback)
    lower_new = None if lower_fast is None else pick_core(lower_fast[1], pick)
    fast = upper_fast is not None and lower_fast is not None
    if not fast:
        # each semantic bound ends in an envelope search: refuse before enumerating
        check_envelope_vars(len(state.universe), limits)
    upper_new = upper_fast[0] if upper_fast is not None else envelope_from_models(
        update_cnf(state.upper, phi, state.formalism, limits), limits)
    if lower_new is None:
        lower_new = cores_from_models(
            update_cnf(state.lower, phi, state.formalism, limits), core_mode, limits)[0]

    new_state = replace(state, lower=lower_new, upper=upper_new)
    gap = _gap_size(new_state, limits)
    record = StepRecord(phi.canonical(), "fast" if fast else "semantic",
                        0 if lower_fast is None else pick, gap)
    return replace(new_state, log=state.log + (record,))


def query(state: BeliefState, psi: Clause) -> QueryVerdict:
    """Three-valued clause query against the two bounds.

    Upper entailment is sound for Yes, failed lower entailment is sound
    for No; upper-only entailment exposes bounds that stopped bracketing.
    """
    from_upper = entails(state.upper, psi)
    from_lower = entails(state.lower, psi)
    if from_upper and from_lower:
        return QueryVerdict.YES
    if not from_upper and not from_lower:
        return QueryVerdict.NO
    if from_lower:
        return QueryVerdict.UNKNOWN
    return QueryVerdict.CONTRADICTORY_BOUNDS


def check_bracket(state: BeliefState) -> bool:
    """Whether the lower bound entails the upper, both taken in canonical
    form (free for bounds a fast step built): a subsumed clause would cost
    one more linear test."""
    return entails_cnf(state.lower.canonical(), state.upper.canonical())


# ---------------------------------------------------------------------------
# session files


def _array(items, depth: int) -> str:
    """A JSON array of already encoded items whose elements sit at the
    given depth, laid out as json.dumps(indent=2) lays it out."""
    if not items:
        return "[]"
    indent = "\n" + "  " * depth
    return f"[{indent}{(',' + indent).join(items)}\n{'  ' * (depth - 1)}]"


def _clause_json(clause: Clause, names: tuple, depth: int) -> str:
    """A clause's tokens (body first, as Clause.tokens) at depth, from the
    encoded names: a '-' needs no escape, so '"-x"' is '"-' + 'x"'."""
    codes = clause.codes
    return _array(['"-' + names[c >> 1][1:] for c in codes if c & 1]
                  + [names[c >> 1] for c in codes if not c & 1], depth)


def _bound_json(cnf: CNF) -> str:
    """A bound's canonical clauses; each clause is encoded once per
    universe and kept on the clause, which both bounds and later steps
    share."""
    universe = cnf.universe
    names = universe._json_name_table()
    parts = []
    for cl in cnf.canonical().clauses:
        if cl._json_universe is not universe:
            cl._json = _clause_json(cl, names, 3)
            cl._json_universe = universe
        parts.append(cl._json)
    return _array(parts, 2)


def _record_json(rec: StepRecord) -> str:
    phi = rec.phi.canonical()
    names = phi.universe._json_name_table()
    return (f'{{\n      "phi": {_array([_clause_json(cl, names, 5) for cl in phi.clauses], 4)},'
            f'\n      "path": {json.dumps(rec.path)},'
            f'\n      "core_pick": {json.dumps(rec.core_pick)},'
            f'\n      "gap": {json.dumps(rec.gap)}\n    }}')


def session_to_json(state: BeliefState) -> str:
    """Canonical JSON text for a belief state; identical runs are
    byte-identical.  The text is json.dumps(doc, indent=2) of the
    document {vars, formalism, lower, upper, log}, written directly."""
    names = state.universe._json_name_table()
    return (f'{{\n  "vars": {_array(names, 2)},'
            f'\n  "formalism": {json.dumps(state.formalism.value)},'
            f'\n  "lower": {_bound_json(state.lower)},'
            f'\n  "upper": {_bound_json(state.upper)},'
            f'\n  "log": {_array([_record_json(rec) for rec in state.log], 2)}\n}}\n')


def _json_list(data, name: str) -> list:
    if not isinstance(data, list):
        raise ParseError(f"bad session file: {name} is not a list")
    return data


def _checked_cnf_from_json(data, universe: VarUniverse, name: str) -> CNF:
    """A CNF from a list of clauses, each a list of one-literal strings,
    with every type checked before any clause is parsed."""
    if not all(isinstance(tokens, list)
               and all(isinstance(t, str) and t.split() == [t] for t in tokens)
               for tokens in _json_list(data, name)):
        raise ParseError(f"bad session file: {name} is not a list of lists of literals")
    return CNF(universe, tuple(parse_clause(" ".join(tokens), universe) for tokens in data))


def _cnf_from_json(data, universe: VarUniverse, name: str, seen: dict) -> CNF:
    """_checked_cnf_from_json through the universe's name index; a token
    list already in seen (read earlier in the file) gives the same Clause.
    A token the index misses, or a clause from_codes refuses, sends the
    whole list through _checked_cnf_from_json, which raises its error."""
    index, shared = universe.index, universe._code_table()
    clauses = []
    try:
        for tokens in _json_list(data, name):
            if not isinstance(tokens, list):
                raise TypeError
            key = tuple(tokens)
            clause = seen.get(key)
            if clause is None:
                # no name starts with '-', so a '-' token is a negative literal
                clause = seen[key] = Clause.from_codes([
                    shared[2 * index[t[1:]] + 1] if t[:1] == "-" else shared[2 * index[t]]
                    for t in tokens])
            clauses.append(clause)
    except (KeyError, TypeError, TautologicalClause):
        return _checked_cnf_from_json(data, universe, name)
    return CNF(universe, tuple(clauses))


def _bound_from_json(data, universe: VarUniverse, name: str, seen: dict) -> CNF:
    bound = _cnf_from_json(data, universe, f"{name} bound", seen)
    try:
        least = horn_sat(bound)
    except NotHorn:
        raise ParseError(f"bad session file: {name} bound is not Horn") from None
    if least is None:
        raise ParseError(f"bad session file: {name} bound is unsatisfiable")
    return bound


def _record_from_json(rec, universe: VarUniverse, seen: dict) -> StepRecord:
    path, core_pick, gap = rec["path"], rec["core_pick"], rec.get("gap")
    if path not in ("fast", "semantic"):
        raise ParseError(f"bad session file: unknown path {path!r}")
    # bool is an int subclass, but true/false are no counts
    if type(core_pick) is not int or core_pick < 0:
        raise ParseError(f"bad session file: bad core_pick {core_pick!r}")
    if gap is not None and (type(gap) is not int or gap < 0):
        raise ParseError(f"bad session file: bad gap {gap!r}")
    return StepRecord(_cnf_from_json(rec["phi"], universe, "log phi", seen), path, core_pick, gap)


def session_from_json(text: str) -> BeliefState:
    """Belief state from session JSON; ParseError unless both bounds are
    satisfiable Horn formulas and every log entry is well formed."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad session file: {exc}") from exc
    try:
        universe = VarUniverse(_json_list(doc["vars"], "vars"))
        formalism = _require_model_based(doc["formalism"])
        seen = {}
        lower = _bound_from_json(doc["lower"], universe, "lower", seen)
        upper = _bound_from_json(doc["upper"], universe, "upper", seen)
        log = tuple(_record_from_json(rec, universe, seen)
                    for rec in _json_list(doc.get("log", []), "log"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad session file: {exc}") from exc
    return BeliefState(universe, lower, upper, formalism, log)


def write_session(state: BeliefState, path) -> None:
    """Replace the session file in one step: a failed write leaves the old one."""
    text = session_to_json(state)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fp:
            fp.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read_session(path) -> BeliefState:
    return session_from_json(read_text(path))
