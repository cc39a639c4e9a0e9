"""Exact model-set semantics at desk scale, on truth tables.

Models are total assignments stored as integer bit masks (bit i is the
value of variable i); the text form writes variable 0 first, so mask 0b110
over (x, y, z) prints as "011".  A model set over n variables is a truth
table: an int of 2**n bits, bit m set iff model m is a member.  Clauses,
closures, relabelling and Hamming distance are shifts and masks over it
(Knuth, TAOCP 4A 7.1.3).  Operations that enumerate are guarded by the
Limits knobs; the linear-time machinery lives elsewhere.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .config import DEFAULT_LIMITS, Limits
from .errors import (
    NotClosed,
    ParseError,
    SetTooLarge,
    UniverseMismatch,
    UniverseTooLarge,
)
from .formula import CNF, Clause, VarUniverse


@dataclass(frozen=True)
class Model:
    """Total assignment over a universe, one bit per variable."""

    mask: int
    width: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.width):
            raise ValueError("mask outside the universe width")

    def bit(self, var: int) -> int:
        return (self.mask >> var) & 1

    def popcount(self) -> int:
        return self.mask.bit_count()

    def hamming(self, other: "Model") -> int:
        self._check(other)
        return (self.mask ^ other.mask).bit_count()

    def diff_vars(self, other: "Model") -> frozenset:
        """Variables on which the two models disagree."""
        self._check(other)
        xor = self.mask ^ other.mask
        return frozenset(v for v in range(self.width) if (xor >> v) & 1)

    def __and__(self, other: "Model") -> "Model":
        self._check(other)
        return Model(self.mask & other.mask, self.width)

    def _check(self, other):
        if self.width != other.width:
            raise UniverseMismatch("models of different widths")

    def text(self) -> str:
        return _mask_text(self.mask, self.width)

    @staticmethod
    def from_text(text: str) -> "Model":
        if not text or any(ch not in "01" for ch in text):
            raise ParseError(f"bad model text {text!r}")
        mask = 0
        for v, ch in enumerate(text):
            if ch == "1":
                mask |= 1 << v
        return Model(mask, len(text))

    def __repr__(self):
        return f"Model({self.text()})"


def _mask_text(mask: int, width: int) -> str:
    return "".join("1" if (mask >> v) & 1 else "0" for v in range(width))


# ---------------------------------------------------------------------------
# truth-table kernel


@lru_cache(maxsize=32)
def var_tables(n: int) -> tuple:
    """(full, tables) over n variables: full holds all 2**n assignments,
    tables[v] those in which variable v is true."""
    return (1 << (1 << n)) - 1, tuple(
        int(("1" * (1 << v) + "0" * (1 << v)) * (1 << (n - 1 - v)), 2) for v in range(n))


def table_of(masks) -> int:
    """Table holding the given masks, built in time linear in its length."""
    masks = list(masks)
    buf = bytearray((max(masks, default=0) >> 3) + 1)
    for m in masks:
        buf[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(buf, "little")


def members(table: int) -> list:
    """Members of a table in ascending order, in time linear in its length."""
    return [bit.start() for bit in re.finditer("1", bin(table)[:1:-1])]


def cnf_table(clauses, n: int) -> int:
    """Assignments satisfying every clause, each given by its literal codes."""
    full, var = var_tables(n)
    table = full
    for codes in clauses:
        falsified = full
        for code in codes:
            falsified &= var[code >> 1] if code & 1 else ~var[code >> 1]
        table &= ~falsified
    return table


def down(table: int, n: int) -> int:
    """Assignments at or below a member (fewer true variables)."""
    _, var = var_tables(n)
    for v in range(n):
        table |= (table & var[v]) >> (1 << v)
    return table


def _strictly_below(table: int, n: int) -> int:
    _, var = var_tables(n)
    step = 0
    for v in range(n):
        step |= (table & var[v]) >> (1 << v)
    return down(step, n)


def closure(table: int, n: int, below=down) -> int:
    """AND-closure: m is a meet of members iff some member lies above m and,
    for each false variable of m, some member above m has it false too.
    With below=_strictly_below those members must differ from m."""
    _, var = var_tables(n)
    out = below(table, n)
    for v in range(n):
        out &= var[v] | below(table & ~var[v], n)
    return out


def _flip(table: int, var_table: int, shift: int) -> int:
    return ((table & var_table) >> shift) | ((table & ~var_table) << shift)


def relabel(table: int, mask: int, n: int) -> int:
    """Table of {m ^ mask : m a member}."""
    _, var = var_tables(n)
    for v in range(n):
        if mask >> v & 1:
            table = _flip(table, var[v], 1 << v)
    return table


def dilate(table: int, n: int) -> int:
    """Assignments within Hamming distance one of a member."""
    _, var = var_tables(n)
    out = table
    for v in range(n):
        out |= _flip(table, var[v], 1 << v)
    return out


def minimal(table: int, n: int) -> int:
    """Subset-minimal members: those with no member strictly below them."""
    _, var = var_tables(n)
    above = 0
    for v in range(n):
        above |= (table & ~var[v]) << (1 << v)
    for v in range(n):
        above |= (above & ~var[v]) << (1 << v)
    return table & ~above


def _meet_image(table: int, mask: int, n: int) -> int:
    """Table of {m & mask : m a member}: one shift per false bit of mask."""
    _, var = var_tables(n)
    for v in range(n):
        if not mask >> v & 1:
            table = (table & ~var[v]) | ((table & var[v]) >> (1 << v))
    return table


# ---------------------------------------------------------------------------
# model sets


class ModelSet:
    """Deduplicated equal-width models over one universe, as a truth table;
    masks, texts and models are views of it."""

    __slots__ = ("universe", "table")

    def __init__(self, universe: VarUniverse, models=()):
        n = len(universe)
        masks = []
        for m in models:
            if isinstance(m, Model):
                if m.width != n:
                    raise UniverseMismatch("model width differs from universe size")
                masks.append(m.mask)
            else:
                if not 0 <= m < (1 << n):
                    raise ValueError("mask outside the universe width")
                masks.append(m)
        self.universe = universe
        self.table = table_of(masks)

    @classmethod
    def from_table(cls, universe: VarUniverse, table: int) -> "ModelSet":
        """Model set of a table already over this universe (not checked)."""
        ms = object.__new__(cls)
        ms.universe = universe
        ms.table = table
        return ms

    @property
    def masks(self) -> frozenset:
        return frozenset(members(self.table))

    def __len__(self):
        return self.table.bit_count()

    def __bool__(self):
        return bool(self.table)

    def __contains__(self, item):
        mask = item.mask if isinstance(item, Model) else item
        return isinstance(mask, int) and mask >= 0 and bool(self.table >> mask & 1)

    def __eq__(self, other):
        return isinstance(other, ModelSet) and self.universe == other.universe \
            and self.table == other.table

    def __hash__(self):
        return hash((self.universe, self.table))

    @property
    def models(self) -> tuple:
        n = len(self.universe)
        return tuple(Model(m, n) for m in self.sorted_masks())

    def sorted_masks(self) -> list:
        n = len(self.universe)
        return sorted(members(self.table), key=lambda m: _mask_text(m, n))

    def texts(self) -> list:
        n = len(self.universe)
        return [_mask_text(m, n) for m in self.sorted_masks()]

    def and_closed(self) -> bool:
        return closure(self.table, len(self.universe)) == self.table

    def __repr__(self):
        return f"ModelSet{{{', '.join(self.texts())}}}"


def parse_models(text: str, universe: VarUniverse) -> ModelSet:
    """Model-set file: one bit-string model per line, '#' comments."""
    n = len(universe)
    masks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        model = Model.from_text(line)
        if model.width != n:
            raise ParseError(f"line {lineno}: model width {model.width}, expected {n}")
        masks.append(model.mask)
    return ModelSet(universe, masks)


def format_models(ms: ModelSet) -> str:
    return "\n".join(ms.texts()) + ("\n" if ms else "")


# ---------------------------------------------------------------------------
# enumeration and closure


def enumerate_models(cnf: CNF, limits: Limits = DEFAULT_LIMITS) -> ModelSet:
    """All satisfying total assignments, as the CNF's truth table."""
    n = len(cnf.universe)
    if n > limits.enumeration_vars:
        raise UniverseTooLarge(f"{n} variables exceeds enumeration limit "
                               f"{limits.enumeration_vars}")
    return ModelSet.from_table(cnf.universe, cnf_table((cl.codes for cl in cnf.clauses), n))


def close_masks(masks, cap: int = 0):
    """AND-closure of a set of masks; None if it grows past a nonzero cap.

    The closure is taken over the width of the widest mask.  A closure
    that adds nothing to its input is returned whatever the cap.
    """
    masks = set(masks)
    n = max(masks, default=0).bit_length()
    closed = members(closure(table_of(masks), n))
    if cap and len(closed) > max(cap, len(masks)):
        return None
    return set(closed)


def and_closure(ms: ModelSet) -> ModelSet:
    """Smallest superset closed under componentwise AND."""
    return ModelSet.from_table(ms.universe, closure(ms.table, len(ms.universe)))


def is_horn_representable(ms: ModelSet) -> bool:
    """True iff some Horn CNF has exactly this model set (iff AND-closed)."""
    return ms.and_closed()


# ---------------------------------------------------------------------------
# Horn envelope


def _horn_clause_candidates(n: int, width: int):
    """All Horn clauses of the given width, in canonical order."""
    out = []
    for negs in combinations(range(n), width):
        out.append(tuple(2 * v + 1 for v in negs))
    if width >= 1:
        for negs in combinations(range(n), width - 1):
            negset = set(negs)
            for p in range(n):
                if p not in negset:
                    out.append(tuple(sorted([2 * p] + [2 * v + 1 for v in negs])))
    out.sort()
    return out


def check_envelope_vars(n: int, limits: Limits) -> None:
    """UniverseTooLarge if an envelope search over n variables is past the limit."""
    if n > limits.envelope_vars:
        raise UniverseTooLarge(f"{n} variables exceeds envelope limit "
                               f"{limits.envelope_vars}")


def envelope_from_models(ms: ModelSet, limits: Limits = DEFAULT_LIMITS) -> CNF:
    """Strongest Horn CNF implied by the model set.

    The result's models are exactly the AND-closure of the input; clauses
    are searched width-ascending and the returned CNF is irredundant.
    """
    n = len(ms.universe)
    check_envelope_vars(n, limits)
    target = closure(ms.table, n)
    if not target:
        return CNF(ms.universe, (Clause.from_codes(()),))
    sat = var_tables(n)[0]
    kept = []
    for width in range(1, n + 1):
        if sat == target:
            break
        for codes in _horn_clause_candidates(n, width):
            table = cnf_table((codes,), n)
            if target & ~table or sat & table == sat:
                continue
            kept.append(codes)
            sat &= table
            if sat == target:
                break
    # drop clauses made redundant by combinations kept later
    i = 0
    while i < len(kept):
        rest = kept[:i] + kept[i + 1:]
        if cnf_table(rest, n) == target:
            kept = rest
        else:
            i += 1
    clauses = tuple(Clause.from_codes(c) for c in kept)
    return CNF(ms.universe, clauses).canonical()


# ---------------------------------------------------------------------------
# Horn cores


def _grow(closed: int, mask: int, allowed: int, n: int):
    """Closure of an AND-closed table plus mask, or None if it leaves allowed."""
    grown = closed | 1 << mask | _meet_image(closed, mask, n)
    return None if grown & ~allowed else grown


def maximal_closed_subsets(allowed: int, n: int) -> list:
    """Tables of all maximal AND-closed subsets of the table allowed."""
    if closure(allowed, n) == allowed:
        return [allowed]
    order = members(allowed)
    results = set()

    def dfs(sub, idx, banned):
        while idx < len(order) and sub >> order[idx] & 1:
            idx += 1
        if idx == len(order):
            if all(sub >> m & 1 or _grow(sub, m, allowed, n) is None for m in order):
                results.add(sub)
            return
        m = order[idx]
        grown = _grow(sub, m, allowed, n)
        if grown is not None and not grown & banned:
            dfs(grown, idx + 1, banned)
        # a model that cannot join sub cannot join any closed superset of it
        dfs(sub, idx + 1, banned | 1 << m)

    dfs(0, 0, 0)
    return list(results)


def greedy_closed_subset(allowed: int, n: int) -> int:
    """One maximal AND-closed subset, grown in descending popcount order."""
    chosen = 0
    for m in sorted(members(allowed), key=lambda v: (-v.bit_count(), v)):
        grown = _grow(chosen, m, allowed, n)
        if grown is not None:
            chosen = grown
    return chosen


def cores_from_models(ms: ModelSet, mode: str = "exact-max",
                      limits: Limits = DEFAULT_LIMITS) -> list:
    """Horn cores of a model set: maximal AND-closed subsets, as Horn CNFs.

    exact-max returns the single core with the most models (canonical
    tie-break), all-exact returns every maximal closed subset, greedy
    returns one maximal subset without the exact-mode size limit.
    """
    if mode not in ("exact-max", "greedy", "all-exact"):
        raise ValueError(f"unknown core mode {mode!r}")
    n = len(ms.universe)
    if not ms:
        return [envelope_from_models(ms, limits)]
    if mode == "greedy":
        tables = [greedy_closed_subset(ms.table, n)]
    else:
        if len(ms) > limits.core_models:
            raise SetTooLarge(f"{len(ms)} models exceeds exact core limit "
                              f"{limits.core_models}")
        tables = maximal_closed_subsets(ms.table, n)
    subsets = [ModelSet.from_table(ms.universe, t) for t in tables]
    subsets.sort(key=lambda s: (-len(s), s.texts()))
    if mode == "exact-max":
        subsets = subsets[:1]
    return [envelope_from_models(s, limits) for s in subsets]


# ---------------------------------------------------------------------------
# characteristic models


def characteristic_models(ms: ModelSet) -> ModelSet:
    """Unique minimal generating subset of an AND-closed model set.

    A model is characteristic iff it is not the AND of its strict
    supersets inside the set.
    """
    if not ms.and_closed():
        raise NotClosed("model set is not closed under componentwise AND")
    generated = closure(ms.table, len(ms.universe), _strictly_below)
    return ModelSet.from_table(ms.universe, ms.table & ~generated)
