"""Reference semantics the benchmark checks outputs against.

Nothing here imports hornkit.  Clauses are tuples of signed ints
(variable v is +(v+1) or -(v+1)), read from the session JSON and CLI text
that the program writes, so a defect in the program's parsers or
operators cannot hide itself.

Two kinds of reference:

* HornChecker: clause entailment for Horn CNFs of any size, by forward
  chaining from the facts.
* Truth tables: at desk scale a model set over n variables is one Python
  int with bit m set when assignment m is a model.  Closure and the five
  model-based updates are computed with shifts and masks (Knuth, TAOCP 4A
  7.1.3), an algorithm unrelated to the program's pairwise scans.
"""
from __future__ import annotations

import json


# ---------------------------------------------------------------------------
# clause text


def parse_tokens(tokens, index):
    """Signed-int clause from literal tokens such as ['-x1', 'x2']."""
    out = []
    for tok in tokens:
        if tok.startswith("-"):
            out.append(-(index[tok[1:]] + 1))
        else:
            out.append(index[tok] + 1)
    return tuple(sorted(set(out), key=abs))


def parse_one_line(text, index):
    """Clauses of CNF.one_line() output: 'true', 'false', 'x (-x y) ...'."""
    text = text.strip()
    if text == "true":
        return []
    if text == "false":
        return [()]
    clauses = []
    i = 0
    while i < len(text):
        if text[i] == " ":
            i += 1
        elif text[i] == "(":
            j = text.index(")", i)
            clauses.append(parse_tokens(text[i + 1:j].split(), index))
            i = j + 1
        else:
            j = text.find(" ", i)
            j = len(text) if j < 0 else j
            clauses.append(parse_tokens([text[i:j]], index))
            i = j
    return clauses


def read_session(text):
    """(names, formalism, lower, upper, log) from session JSON text."""
    doc = json.loads(text)
    names = doc["vars"]
    index = {name: i for i, name in enumerate(names)}
    lower = [parse_tokens(c, index) for c in doc["lower"]]
    upper = [parse_tokens(c, index) for c in doc["upper"]]
    return names, doc["formalism"], lower, upper, doc["log"]


def is_horn(clauses):
    return all(sum(1 for lit in c if lit > 0) <= 1 for c in clauses)


def satisfies(clauses, model):
    """Whether a set of true variables satisfies every clause."""
    for c in clauses:
        if not any((lit > 0) == ((abs(lit) - 1) in model) for lit in c):
            return False
    return True


# ---------------------------------------------------------------------------
# Horn entailment at any size


class HornChecker:
    """Entailment of clauses by one Horn CNF.

    The facts are chained forward once at construction; each query then
    only chains from the literals its negation adds.
    """

    def __init__(self, n, clauses):
        if not is_horn(clauses):
            raise ValueError("HornChecker needs Horn clauses")
        self.heads = []
        self.need = []
        self.watch = [[] for _ in range(n)]
        for c in clauses:
            body = [-lit - 1 for lit in c if lit < 0]
            heads = [lit - 1 for lit in c if lit > 0]
            ci = len(self.heads)
            self.heads.append(heads[0] if heads else -1)
            self.need.append(len(body))
            for v in body:
                self.watch[v].append(ci)
        self.true = set()
        start = [ci for ci, k in enumerate(self.need) if k == 0]
        self.conflict = self._chain(start, self.need, self.true, ())

    def _chain(self, ready, need, true, goals):
        """Chain forward; True when a goal clause fires or a goal var is derived."""
        while ready:
            head = self.heads[ready.pop()]
            if head < 0 or head in goals:
                return True
            if head in true:
                continue
            true.add(head)
            for cj in self.watch[head]:
                need[cj] -= 1
                if need[cj] == 0:
                    ready.append(cj)
        return False

    def entails(self, clause):
        """Whether the CNF entails the clause (refutation of its negation)."""
        if self.conflict:
            return True
        goals = {lit - 1 for lit in clause if lit > 0}
        if goals & self.true:
            return True
        need = list(self.need)
        true = set(self.true)
        ready = []
        for lit in clause:
            v = -lit - 1
            if lit > 0 or v in true:
                continue
            true.add(v)
            for cj in self.watch[v]:
                need[cj] -= 1
                if need[cj] == 0:
                    ready.append(cj)
        return self._chain(ready, need, true, goals)


def verdict(upper, lower, clause):
    """Expected three-valued query answer from the two bound checkers."""
    from_upper = upper.entails(clause)
    from_lower = lower.entails(clause)
    if from_upper and from_lower:
        return "Yes"
    if not from_upper and not from_lower:
        return "No"
    return "Unknown" if from_lower else "ContradictoryBounds"


# ---------------------------------------------------------------------------
# truth tables at desk scale


class Tables:
    """Truth-table algebra over n variables: bit m of a table is assignment m."""

    def __init__(self, n):
        self.n = n
        size = 1 << n
        self.full = (1 << size) - 1
        self.var = []
        for v in range(n):
            block = ((1 << (1 << v)) - 1) << (1 << v)
            table = 0
            for start in range(0, size, 2 << v):
                table |= block << start
            self.var.append(table)
        self.weight = [0] * (n + 1)
        for m in range(size):
            self.weight[m.bit_count()] |= 1 << m

    def literal(self, lit):
        t = self.var[abs(lit) - 1]
        return t if lit > 0 else self.full & ~t

    def cnf(self, clauses):
        out = self.full
        for c in clauses:
            t = 0
            for lit in c:
                t |= self.literal(lit)
            out &= t
        return out

    def flip(self, x, v):
        """Relabel assignments by XOR with variable v."""
        t, s = self.var[v], 1 << v
        return ((x & t) >> s) | ((x & ~t & self.full) << s)

    def xor(self, x, mask):
        for v in range(self.n):
            if mask >> v & 1:
                x = self.flip(x, v)
        return x

    def dilate(self, x):
        """Assignments within Hamming distance one of x."""
        out = x
        for v in range(self.n):
            out |= self.flip(x, v)
        return out

    def down(self, x):
        for v in range(self.n):
            x |= (x & self.var[v]) >> (1 << v)
        return x

    def up(self, x):
        for v in range(self.n):
            x |= (x & ~self.var[v] & self.full) << (1 << v)
        return x

    def strict_up(self, x):
        step = 0
        for v in range(self.n):
            step |= (x & ~self.var[v] & self.full) << (1 << v)
        return self.up(step)

    def minimal(self, x):
        """Subset-minimal assignments of x."""
        return x & ~self.strict_up(x)

    def closure(self, x):
        """AND-closure: m is in it iff each 0 bit of m is 0 in a model above m."""
        out = self.down(x)
        for v in range(self.n):
            out &= self.var[v] | self.down(x & ~self.var[v])
        return out & self.full

    def is_closed(self, x):
        return self.closure(x) == x

    @staticmethod
    def members(x):
        while x:
            low = x & -x
            yield low.bit_length() - 1
            x ^= low

    def update(self, g, f, formalism):
        """Model-based update of base table g by update table f."""
        if not g or not f:
            raise ValueError("update needs nonempty model sets")
        inter = g & f
        if formalism == "winslett":
            out = inter
            for a in self.members(g & ~f):
                out |= self.xor(self.minimal(self.xor(f, a)), a)
            return out
        if inter:
            return inter
        if formalism == "dalal":
            ball = g
            while not ball & f:
                ball = self.dilate(ball)
            return ball & f
        out = 0
        if formalism == "satoh":
            diffs = 0
            for a in self.members(g):
                diffs |= self.xor(f, a)
            least = self.minimal(diffs)
            for a in self.members(g):
                out |= self.xor(least, a) & f
            return out
        for a in self.members(g):
            diffs = self.xor(f, a)
            if formalism == "forbus":
                k = 0
                while not diffs & self.weight[k]:
                    k += 1
                out |= self.xor(diffs & self.weight[k], a)
            elif formalism == "borgida":
                out |= self.xor(self.minimal(diffs), a)
            else:
                raise ValueError(f"unknown formalism {formalism!r}")
        return out
