"""Seeded inputs for the benchmark workloads.

Everything is drawn from one random.Random built from the workload seed,
and every update and query sequence is fixed here, before any timing.
Clauses are tuples of signed ints (variable v is +(v+1), its negation
-(v+1)); `clause_text` renders them in hornkit's symbolic syntax.
"""
from __future__ import annotations

import math

FORMALISMS = ("dalal", "satoh", "borgida", "forbus", "winslett")
ATTEMPTS = 10000


def names(n):
    return [f"x{i}" for i in range(n)]


def clause_text(clause, var_names):
    return " ".join(("-" if lit < 0 else "") + var_names[abs(lit) - 1] for lit in clause)


def formula_text(var_names, clauses):
    lines = ["vars " + " ".join(var_names)]
    lines.extend(clause_text(c, var_names) for c in clauses)
    return "\n".join(lines) + "\n"


def _signed(v, positive):
    return v + 1 if positive else -(v + 1)


def _satisfied(clause, model):
    return any((lit > 0) == ((abs(lit) - 1) in model) for lit in clause)


# ---------------------------------------------------------------------------
# Horn workloads


class HornBase:
    """A satisfiable Horn base with a planted model.

    Variables fall in three groups: facts asserted true by unit clauses,
    facts asserted false, and the rest.  Every clause holds in the planted
    model.  Contradicting updates take their bodies from unused true facts
    and their heads from unused false facts, so each update of an episode
    contradicts both bounds whatever came before it in the episode.
    """

    def __init__(self, rng, n, per_var, true_share=0.2, false_share=0.1):
        self.n = n
        self.names = names(n)
        order = rng.sample(range(n), n)
        n_true, n_false = int(n * true_share), int(n * false_share)
        self.true_facts = order[:n_true]
        self.false_facts = order[n_true:n_true + n_false]
        self.free = order[n_true + n_false:]
        self.model = set(self.true_facts)
        self.model.update(v for v in self.free if rng.random() < 0.5)
        clauses = [(v + 1,) for v in self.true_facts]
        clauses.extend((-(v + 1),) for v in self.false_facts)
        self.units = set(clauses)
        seen = set(clauses)
        while len(clauses) < per_var * n:
            c = self.random_horn(rng, range(n), 2 + len(clauses) % 2)
            if c not in seen:
                seen.add(c)
                clauses.append(c)
        self.clauses = clauses

    def random_horn(self, rng, pool, width):
        """A Horn clause over the pool that holds in the planted model and
        that no unit fact subsumes."""
        pool = list(pool)
        while True:
            vs = rng.sample(pool, width)
            head = rng.random() < 0.6
            c = tuple(sorted((_signed(v, head and i == 0) for i, v in enumerate(vs)),
                             key=abs))
            if _satisfied(c, self.model) and not any(
                    (lit,) in self.units for lit in c):
                return c

    def text(self):
        return formula_text(self.names, self.clauses)

    def episode(self, rng, updates, queries):
        """One episode: `updates` updates, each followed by `queries` queries.

        Update kinds rotate: contradicting without a head, contradicting
        with a head, consistent.  Contradicting updates have a body of two
        facts, so that updates of one kind cost about the same and the
        median of a run does not hop between kinds.  Returns a list of steps
        (update, kind, queries, witness, spent), where witness is a model
        of the upper bound after the update and spent the facts the
        episode has used up so far.
        """
        unused_true = list(self.true_facts)
        unused_false = list(self.false_facts)
        rng.shuffle(unused_true)
        rng.shuffle(unused_false)
        witness = set(self.model)
        spent = set()
        steps = []
        for j in range(updates):
            kind = ("no-head", "head", "consistent")[j % 3]
            if kind == "consistent":
                phi = self.random_horn(rng, self.free, 2)
            else:
                body = [unused_true.pop(), unused_true.pop()]
                phi = [-(v + 1) for v in body]
                if kind == "head":
                    head = unused_false.pop()
                    phi.append(head + 1)
                    spent.add(head)
                phi = tuple(sorted(phi, key=abs))
                spent.update(body)
                witness.discard(body[0])
            qs = []
            for k in range(queries):
                pick = (j + k) % 3
                if pick == 0:
                    qs.append((unused_true[rng.randrange(len(unused_true))] + 1,))
                elif pick == 1:
                    v = abs(phi[0]) - 1
                    qs.append((-(v + 1),))
                else:
                    vs = rng.sample(range(self.n), rng.randint(2, 3))
                    qs.append(tuple(sorted((_signed(v, rng.random() < 0.5) for v in vs),
                                           key=abs)))
            steps.append((phi, kind, qs, frozenset(witness), frozenset(spent)))
        return steps


# ---------------------------------------------------------------------------
# desk-exact workload


def _random_clause(rng, pool, width):
    vs = rng.sample(list(pool), width)
    return tuple(sorted((_signed(v, rng.random() < 0.5) for v in vs), key=abs))


def _nonhorn(clauses):
    return any(sum(1 for lit in c if lit > 0) > 1 for c in clauses)


def band_formula(rng, n, lo, hi, tables, units=()):
    """Random satisfiable non-Horn 3-CNF whose model count lies in [lo, hi].

    The unit clauses come first; the random clauses avoid their variables.
    """
    fixed = {abs(lit) - 1 for u in units for lit in u}
    pool = [v for v in range(n) if v not in fixed]
    free_models = 1 << len(pool)
    target = math.sqrt(lo * hi)
    mean = max(1, round(math.log(target / free_models) / math.log(7 / 8)))
    for _ in range(ATTEMPTS):
        clauses = list(units)
        clauses.extend(_random_clause(rng, pool, 3)
                       for _ in range(rng.randint(max(1, mean - 2), mean + 2)))
        if lo <= tables.cnf(clauses).bit_count() <= hi and _nonhorn(clauses):
            return clauses
    raise ValueError(f"no formula over {n} variables with {lo}..{hi} models found")


def greedy_core(tables, models):
    """The core `--core-mode greedy` builds: models in descending popcount
    order, each kept when the closure stays inside the model set."""
    chosen = 0
    for m in sorted(tables.members(models), key=lambda v: (-v.bit_count(), v)):
        grown = tables.closure(chosen | 1 << m)
        if not grown & ~models:
            chosen = grown
    return chosen


class DeskBase:
    """Non-Horn base over n variables entailing x_p, -x_q1 and -x_q2.

    The three units make contradicting updates easy to write: any update
    that implies -x_p, or x_q1 or x_q2, has no model in common with the
    base, with its envelope or with any of its cores.  The model counts
    of the base, of its closure and of its greedy core each lie in a band,
    so that bases cost about the same to update.
    """

    def __init__(self, rng, tables, lo, hi, closed, core):
        n = self.n = tables.n
        self.names = names(n)
        self.tables = tables
        self.p, self.q1, self.q2 = rng.sample(range(n), 3)
        units = [(self.p + 1,), (-(self.q1 + 1),), (-(self.q2 + 1),)]
        for _ in range(ATTEMPTS):
            self.clauses = band_formula(rng, n, lo, hi, tables, units)
            models = tables.cnf(self.clauses)
            self.upper = tables.closure(models)
            if closed[0] <= self.upper.bit_count() <= closed[1] and \
                    core[0] <= greedy_core(tables, models).bit_count() <= core[1]:
                break
        else:
            raise ValueError(f"no base over {n} variables found in the bands")
        self.free = [v for v in range(n) if v not in (self.p, self.q1, self.q2)]

    def text(self):
        return formula_text(self.names, self.clauses)

    def update(self, rng, kind):
        """Update clauses of the given kind: multi, nonhorn or consistent."""
        p, q1, q2 = self.p + 1, self.q1 + 1, self.q2 + 1
        if kind == "multi":
            return [(-p,), _random_clause(rng, self.free, 3)]
        if kind == "nonhorn":
            return [tuple(sorted((q1, q2, -p), key=abs))]
        # a Horn clause consistent with the envelope but not entailed by it,
        # so winslett leaves the fast path
        for _ in range(ATTEMPTS):
            vs = rng.sample(self.free, 2)
            c = tuple(sorted((-(vs[0] + 1), _signed(vs[1], rng.random() < 0.5)), key=abs))
            t = self.tables.cnf([c])
            if self.upper & t and self.upper & ~t:
                return [c]
        raise ValueError("no consistent update clause found")

    def queries(self, rng, count):
        return [_random_clause(rng, range(self.n), rng.randint(1, 3)) for _ in range(count)]


def desk_kinds(formalism):
    kinds = ["multi", "nonhorn"]
    if formalism == "winslett":
        kinds.append("consistent")
    return kinds
