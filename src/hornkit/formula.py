"""Variable universes, literals, clauses, CNF formulas and knowledge bases.

Literals are encoded as integers: variable v gives code 2*v for the
positive literal and 2*v + 1 for the negative one.  Sorting codes
numerically sorts literals by variable index with the positive literal
first, which is the canonical literal order used throughout.  Clause text
is rendered body-first (negative literals, then positive ones, each by
variable index), so a Horn implication reads antecedents-then-head.
"""
from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .errors import (
    EmptyClause,
    ParseError,
    TautologicalClause,
    UniverseMismatch,
    UniverseTooLarge,
    UnknownVariable,
)


class VarUniverse:
    """Fixed, ordered collection of distinct variable names."""

    __slots__ = ("names", "index", "_codes", "_json_names")

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise ValueError("a universe needs at least one variable")
        for name in names:
            if not isinstance(name, str) or not name or name.startswith("-") \
                    or name.startswith("#") or any(ch.isspace() for ch in name):
                raise ValueError(f"bad variable name: {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self._codes = None
        self._json_names = None

    def __len__(self):
        return len(self.names)

    def _code_table(self) -> tuple:
        """Every literal code, indexed by itself, built on first use: the
        clauses parse_clause builds share these int objects instead of
        each holding its own."""
        if self._codes is None:
            self._codes = tuple(range(2 * len(self.names)))
        return self._codes

    def _json_name_table(self) -> tuple:
        """Every name as a JSON string token, ASCII-escaped as json.dumps
        writes it, indexed by variable; built on first use."""
        if self._json_names is None:
            self._json_names = tuple(map(encode_basestring_ascii, self.names))
        return self._json_names

    def __eq__(self, other):
        return isinstance(other, VarUniverse) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarUniverse({' '.join(self.names)})"


@dataclass(frozen=True)
class Literal:
    """A variable occurrence with a sign."""

    var: int
    positive: bool = True

    @property
    def code(self) -> int:
        return 2 * self.var + (0 if self.positive else 1)

    @staticmethod
    def from_code(code: int) -> "Literal":
        return Literal(code >> 1, not code & 1)


def _normalize_codes(codes) -> tuple:
    out = sorted(set(codes))
    if out and out[0] < 0:
        raise ValueError("negative literal code")
    for a, b in zip(out, out[1:]):
        if a ^ 1 == b:
            raise TautologicalClause(f"variable {a >> 1} occurs with both signs")
    return tuple(out)


class Clause:
    """Disjunction of literals, at most one literal per variable.

    The empty clause is allowed and denotes falsity.  Tautological input
    (x together with -x) is rejected at construction.  The session writer
    keeps the clause's JSON text in _json, for the universe in
    _json_universe: a clause shared by two bounds, or kept by a step, is
    encoded once.
    """

    __slots__ = ("codes", "_json", "_json_universe")

    def __init__(self, literals=()):
        self.codes = _normalize_codes(lit.code for lit in literals)
        self._json = self._json_universe = None

    @classmethod
    def from_codes(cls, codes) -> "Clause":
        cl = object.__new__(cls)
        cl.codes = _normalize_codes(codes)
        cl._json = cl._json_universe = None
        return cl

    @property
    def literals(self) -> tuple:
        return tuple(Literal.from_code(c) for c in self.codes)

    def __len__(self):
        return len(self.codes)

    def is_empty(self) -> bool:
        return not self.codes

    def horn(self) -> bool:
        positives = 0
        for c in self.codes:
            if not c & 1:
                positives += 1
                if positives > 1:
                    return False
        return True

    def negative(self) -> bool:
        return all(c & 1 for c in self.codes)

    def pos_vars(self) -> tuple:
        return tuple(c >> 1 for c in self.codes if not c & 1)

    def neg_vars(self) -> tuple:
        return tuple(c >> 1 for c in self.codes if c & 1)

    def head_var(self):
        """The positive variable of a Horn clause, or None."""
        for c in self.codes:
            if not c & 1:
                return c >> 1
        return None

    def sort_key(self):
        return (len(self.codes), self.codes)

    def tokens(self, universe: VarUniverse) -> list:
        negs = [c for c in self.codes if c & 1]
        poss = [c for c in self.codes if not c & 1]
        return ["-" + universe.names[c >> 1] for c in negs] + \
               [universe.names[c >> 1] for c in poss]

    def text(self, universe: VarUniverse) -> str:
        return " ".join(self.tokens(universe))

    def __eq__(self, other):
        return isinstance(other, Clause) and self.codes == other.codes

    def __hash__(self):
        return hash(self.codes)

    def __repr__(self):
        body = " ".join(("-" if c & 1 else "") + f"v{c >> 1}" for c in self.codes)
        return f"Clause<{body}>"


class CNF:
    """Conjunction of clauses over a fixed universe.

    An empty clause list denotes truth; a CNF containing the empty clause
    denotes falsity.  Values are immutable; canonical() returns the sorted,
    subsumption-free form.  The CNFs that canonical(), conjoin and
    condition return carry a private flag that makes canonical() return
    them as is; equality and hashing ignore it.
    """

    __slots__ = ("universe", "clauses", "_canonical")

    def __init__(self, universe: VarUniverse, clauses=()):
        clauses = tuple(clauses)
        n = len(universe)
        for cl in clauses:
            if cl.codes and cl.codes[-1] >> 1 >= n:
                raise UnknownVariable(
                    f"variable index {cl.codes[-1] >> 1} outside universe of size {n}")
        self.universe = universe
        self.clauses = clauses
        self._canonical = False

    @classmethod
    def _from_canonical(cls, universe: VarUniverse, clauses: tuple) -> "CNF":
        """Flagged CNF from clauses the caller guarantees to be the sorted,
        subsumption-free form, over variables of the universe."""
        cnf = object.__new__(cls)
        cnf.universe = universe
        cnf.clauses = clauses
        cnf._canonical = True
        return cnf

    def horn(self) -> bool:
        return all(cl.horn() for cl in self.clauses)

    def is_true(self) -> bool:
        return not self.clauses

    def has_empty_clause(self) -> bool:
        return any(not cl.codes for cl in self.clauses)

    def extend(self, clauses) -> "CNF":
        return CNF(self.universe, self.clauses + tuple(clauses))

    def canonical(self) -> "CNF":
        """Sorted, deduplicated, subsumption-free equivalent.

        The result keeps exactly the clauses that no other clause properly
        subsumes, sorted on Clause.sort_key; on a flagged CNF it is self.
        """
        if self._canonical:
            return self
        uniq = sorted(set(self.clauses), key=Clause.sort_key)
        if uniq and not uniq[0].codes:
            return CNF._from_canonical(self.universe, (uniq[0],))
        kept = []
        occ = {}
        for cl in uniq:
            fs = frozenset(cl.codes)
            subsumed = False
            seen = set()
            for code in cl.codes:
                for idx in occ.get(code, ()):
                    if idx in seen:
                        continue
                    seen.add(idx)
                    if fs.issuperset(kept[idx].codes):
                        subsumed = True
                        break
                if subsumed:
                    break
            if subsumed:
                continue
            idx = len(kept)
            kept.append(cl)
            for code in cl.codes:
                occ.setdefault(code, []).append(idx)
        # fresh clause objects, laid out in canonical order: a pass over
        # the result then walks memory in order, not in the input's order
        return CNF._from_canonical(
            self.universe, tuple(Clause.from_codes(cl.codes) for cl in kept))

    def conjoin(self, clauses) -> "CNF":
        """Canonical form of self and clauses conjoined, in one pass over
        self.canonical().

        Only a clause of self that shares a literal with an added clause
        can subsume it or be subsumed by it, so only those are tested;
        the rest keep their order and objects.  The added clauses that
        survive are merged in by sort key.
        """
        base = self.canonical()
        extra = CNF(self.universe, clauses).canonical()
        added = extra.clauses
        if not added or (base.clauses and not base.clauses[0].codes):
            return base
        if not added[0].codes:
            return extra
        literals = set().union(*(cl.codes for cl in added))
        alive = [frozenset(cl.codes) for cl in added]
        kept = []
        for cl in base.clauses:
            if literals.isdisjoint(cl.codes):
                kept.append(cl)
                continue
            for i, codes in enumerate(alive):
                if codes is None:
                    continue
                if codes.issuperset(cl.codes):
                    alive[i] = None
                elif codes.issubset(cl.codes):
                    # cl drops out; it subsumes no added clause, or that
                    # one would contain the one that subsumes cl
                    break
            else:
                kept.append(cl)
        for cl, codes in zip(added, alive):
            if codes is not None:
                insort(kept, cl, key=Clause.sort_key)
        return CNF._from_canonical(self.universe, tuple(kept))

    def one_line(self) -> str:
        """Single-line rendering: bare unit literals, parenthesized wider clauses."""
        if not self.clauses:
            return "true"
        if self.has_empty_clause():
            return "false"
        parts = []
        for cl in self.clauses:
            body = cl.text(self.universe)
            parts.append(body if len(cl) == 1 else f"({body})")
        return " ".join(parts)

    def __eq__(self, other):
        return isinstance(other, CNF) and self.universe == other.universe \
            and self.clauses == other.clauses

    def __hash__(self):
        return hash((self.universe, self.clauses))

    def __repr__(self):
        return f"CNF<{self.one_line()}>"


class KnowledgeBase:
    """Ordered list of named CNF formulas; identity is positional."""

    __slots__ = ("universe", "items")

    def __init__(self, universe: VarUniverse, items=()):
        items = tuple((name, cnf) for name, cnf in items)
        names = [name for name, _ in items]
        if len(set(names)) != len(names):
            raise ValueError("knowledge base item names must be unique")
        for _, cnf in items:
            if cnf.universe != universe:
                raise UniverseMismatch("knowledge base item over a different universe")
        self.universe = universe
        self.items = items

    def names(self) -> tuple:
        return tuple(name for name, _ in self.items)

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def horn(self) -> bool:
        return all(cnf.horn() for _, cnf in self.items)

    def restricted(self, indices) -> "KnowledgeBase":
        return KnowledgeBase(self.universe, tuple(self.items[i] for i in sorted(indices)))

    def extended(self, name: str, cnf: CNF) -> "KnowledgeBase":
        return KnowledgeBase(self.universe, self.items + ((name, cnf),))

    def __eq__(self, other):
        return isinstance(other, KnowledgeBase) and self.universe == other.universe \
            and self.items == other.items

    def __repr__(self):
        return f"KnowledgeBase<{', '.join(self.names())}>"


def parse_clause(text: str, universe: VarUniverse) -> Clause:
    """Parse a whitespace-separated clause; '-' prefixes negation.

    Repeated literals are deduplicated; opposite signs of one variable
    raise TautologicalClause.
    """
    codes = []
    shared = universe._code_table()
    for token in text.split():
        positive = not token.startswith("-")
        name = token if positive else token[1:]
        if name not in universe.index:
            raise UnknownVariable(f"unknown variable {name!r}")
        codes.append(shared[2 * universe.index[name] + (0 if positive else 1)])
    return Clause.from_codes(codes)


def negate_clause(clause: Clause) -> list:
    """Negation of a clause as a list of sign-flipped unit clauses."""
    if not clause.codes:
        raise EmptyClause("cannot negate the empty clause")
    return [Clause.from_codes((code ^ 1,)) for code in clause.codes]


def condition(cnf: CNF, assignment) -> CNF:
    """Substitute fixed truth values into a CNF; the result is canonical
    and flagged so.

    Clauses with a satisfied literal are dropped, falsified literals are
    removed from the rest; a clause losing all literals becomes the empty
    clause.  The result mentions no assigned variable.  One pass over
    cnf.canonical() keeps the untouched clauses in order and conjoins the
    shortened ones back in.
    """
    n = len(cnf.universe)
    satisfied = set()
    for var, value in assignment.items():
        if not 0 <= var < n:
            raise UnknownVariable(f"variable index {var} outside universe of size {n}")
        satisfied.add(2 * var + (0 if value else 1))
    touched = satisfied | {code ^ 1 for code in satisfied}
    untouched, shortened = [], []
    for cl in cnf.canonical().clauses:
        if touched.isdisjoint(cl.codes):
            untouched.append(cl)
        elif satisfied.isdisjoint(cl.codes):
            shortened.append(Clause.from_codes(c for c in cl.codes if c not in touched))
    return CNF._from_canonical(cnf.universe, tuple(untouched)).conjoin(shortened)


# ---------------------------------------------------------------------------
# file formats


def read_text(path) -> str:
    """A file's text; a file that cannot be read, or is not UTF-8 text,
    raises ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return fp.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def parse_symbolic(text: str) -> CNF:
    """Symbolic formula file: 'vars ...' header, one clause per line, '#' comments."""
    universe = None
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if universe is None:
            fields = line.split()
            if fields[0] != "vars" or len(fields) < 2:
                raise ParseError(f"line {lineno}: expected 'vars <names...>' header")
            try:
                universe = VarUniverse(fields[1:])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            continue
        clauses.append(parse_clause(line, universe))
    if universe is None:
        raise ParseError("missing 'vars' header line")
    return CNF(universe, tuple(clauses))


def parse_dimacs(text: str, max_vars: int | None = None, horn_exempt: bool = False) -> CNF:
    """DIMACS CNF: 'p cnf n m' header, signed integers, 0-terminated clauses.

    Variable i is named v<i>.  A header count above max_vars raises
    UniverseTooLarge after any parse error, before the universe is built;
    with horn_exempt, only when some clause is not Horn, for a caller
    that enumerates only such formulas.
    """
    nvars = None
    literal_tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) < 4 or fields[1] != "cnf":
                raise ParseError(f"line {lineno}: bad DIMACS header {line!r}")
            try:
                nvars = int(fields[2])
                int(fields[3])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad DIMACS header {line!r}") from exc
            continue
        if nvars is None:
            raise ParseError(f"line {lineno}: clause before 'p cnf' header")
        for token in line.split():
            try:
                literal_tokens.append(int(token))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: non-integer token {token!r}") from exc
    if nvars is None:
        raise ParseError("missing 'p cnf' header")
    if nvars < 1:
        raise ParseError("DIMACS header declares no variables")
    clauses = []
    current = []
    for lit in literal_tokens:
        if lit == 0:
            clauses.append(current)
            current = []
            continue
        if abs(lit) > nvars:
            raise ParseError(f"literal {lit} outside declared range 1..{nvars}")
        current.append(2 * (abs(lit) - 1) + (0 if lit > 0 else 1))
    if current:
        clauses.append(current)
    clauses = tuple(Clause.from_codes(c) for c in clauses)
    if max_vars is not None and nvars > max_vars \
            and not (horn_exempt and all(cl.horn() for cl in clauses)):
        raise UniverseTooLarge(f"{nvars} variables exceeds enumeration limit {max_vars}")
    return CNF(VarUniverse(tuple(f"v{i}" for i in range(1, nvars + 1))), clauses)


def parse_formula(text: str, fmt: str = "auto", max_vars: int | None = None,
                  horn_exempt: bool = False) -> CNF:
    """A symbolic or DIMACS formula; max_vars bounds a DIMACS header, as
    parse_dimacs applies it."""
    if fmt == "sym":
        return parse_symbolic(text)
    if fmt == "dimacs":
        return parse_dimacs(text, max_vars, horn_exempt)
    if fmt != "auto":
        raise ValueError(f"unknown format {fmt!r}")
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("p ") or line.startswith("p\t"):
            return parse_dimacs(text, max_vars, horn_exempt)
    return parse_symbolic(text)


def format_symbolic(cnf: CNF) -> str:
    """Canonical symbolic file text; parse_symbolic inverts it."""
    canon = cnf.canonical()
    if canon.has_empty_clause():
        raise ValueError("the empty clause has no symbolic file form")
    lines = ["vars " + " ".join(cnf.universe.names)]
    lines.extend(cl.text(cnf.universe) for cl in canon.clauses)
    return "\n".join(lines) + "\n"
