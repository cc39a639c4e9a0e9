"""Size limits guarding the exact operations.

Exact semantic operations are desk-scale by design: a model set over n
variables is a truth table of 2**n bits, and envelope and core searches
grow with n and with the number of models.  These knobs say where "desk
scale" ends.  They are configuration, not constants: every operation
that enumerates takes a Limits value and raises a TooLarge subclass
beyond it.  An AND-closure needs no limit of its own, since it never
grows past the table of the universe it is taken in.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Limits:
    enumeration_vars: int = 20   # max universe size for model enumeration
    envelope_vars: int = 12      # max universe size for envelope clause search
    core_models: int = 20        # max model-set size for the exact core modes

    def with_vars_limit(self, n: int) -> "Limits":
        return replace(self, enumeration_vars=n, envelope_vars=n)


DEFAULT_LIMITS = Limits()
