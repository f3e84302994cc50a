"""Mass-function algebra over the two-role frame {speaker, hearer}.

Belief about who holds an initiative is kept as a basic probability
assignment with three components: mass on the speaker, mass on the hearer,
and uncommitted mass on the whole frame.  Evidence is pooled with
Dempster's rule of combination.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

SUM_TOLERANCE = 1e-9


class TotalConflictError(ValueError):
    """Raised when two mass functions are totally conflicting (conflict = 1)."""


class Role(Enum):
    SPEAKER = "speaker"
    HEARER = "hearer"


class MassFunction(NamedTuple("MassFunction", [("speaker", float), ("hearer", float), ("theta", float)])):
    """Basic probability assignment over {speaker}, {hearer} and the frame.

    `theta` is the mass left on the whole frame, i.e. belief committed to
    neither role.  Components are non-negative and sum to 1; the empty set
    carries no mass.  A named tuple whose constructor, and so `_replace`,
    checks this.
    """

    __slots__ = ()

    def __new__(cls, speaker: float, hearer: float, theta: float) -> MassFunction:
        for name, value in (("speaker", speaker), ("hearer", hearer), ("theta", theta)):
            if math.isnan(value) or value < 0.0:
                raise ValueError(f"mass on {name} must be >= 0, got {value!r}")
        total = speaker + hearer + theta
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"masses must sum to 1, got {total!r}")
        return tuple.__new__(cls, (speaker, hearer, theta))

    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` builds its copy through `_make`


def vacuous() -> MassFunction:
    """The no-evidence assignment: all mass uncommitted."""
    return MassFunction(0.0, 0.0, 1.0)


def bayesian(x: float) -> MassFunction:
    """All mass split between the roles: x on the speaker, 1 - x on the hearer."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"bayesian index requires 0 <= x <= 1, got {x!r}")
    return MassFunction(x, 1.0 - x, 0.0)


def combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Pool two assignments with Dempster's rule.

    Masses of intersecting focal elements multiply and accumulate; the
    speaker/hearer cross terms are conflict and the remainder is
    renormalized by 1 - conflict.  Total conflict has no defined result and
    raises TotalConflictError; so does a conflict that rounds below 1 while
    every non-conflicting product is 0, which leaves nothing to renormalize.
    """
    conflict = m1.speaker * m2.hearer + m1.hearer * m2.speaker
    norm = 1.0 - conflict
    speaker = m1.speaker * m2.speaker + m1.speaker * m2.theta + m1.theta * m2.speaker
    hearer = m1.hearer * m2.hearer + m1.hearer * m2.theta + m1.theta * m2.hearer
    theta = m1.theta * m2.theta
    if norm <= 0.0 or speaker + hearer + theta == 0.0:
        raise TotalConflictError("cannot combine totally conflicting mass functions")
    return MassFunction(speaker / norm, hearer / norm, theta / norm)


def predicted_holder(m: MassFunction) -> Role:
    """The better-supported role; a tie goes to the speaker."""
    return Role.SPEAKER if m.speaker >= m.hearer else Role.HEARER
