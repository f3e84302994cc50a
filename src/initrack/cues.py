"""The canonical cue taxonomy and the trainable per-cue evidence tables.

Fourteen cue kinds are recognized.  Nine of them can move both the task and
the dialogue initiative; the other five bear on the dialogue initiative
only.  Each cue carries one trainable mass function per dimension it
affects, plus a credit counter per mass function used by the
counter-based adjustment methods.  `TABLES` lists these 23 (cue, dimension)
tables in model-file order, and a `CueModel` stores them in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path

from .evidence import MassFunction, Role

MODEL_HEADER = "initrack-model v1"

# Lossless float round-trip needs 17 significant digits.
_FLOAT_FMT = ".17g"


class UnknownCueError(ValueError):
    """Raised for a cue token outside the closed taxonomy."""

    def __init__(self, token: str) -> None:
        super().__init__(f"unknown cue {token!r}")
        self.token = token


class ModelFormatError(ValueError):
    """Raised for a malformed model file; carries the offending line number."""

    def __init__(self, message: str, source: str = "<model>", line: int = 0) -> None:
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line


class CueClass(Enum):
    EXPLICIT = "explicit"
    DISCOURSE = "discourse"
    ANALYTICAL = "analytical"


class CueEffect(Enum):
    DIALOGUE_ONLY = "dialogue-only"
    BOTH = "both"


class Dimension(Enum):
    TASK = "task"
    DIALOGUE = "dialogue"

    # Members are singletons compared by identity; Enum.__hash__ runs in Python.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


class CueKind(Enum):
    EXPLICIT_GIVEUP = "explicit_giveup"
    EXPLICIT_TAKEOVER = "explicit_takeover"
    END_SILENCE = "end_silence"
    NO_NEW_INFO_REPETITION = "no_new_info:repetition"
    NO_NEW_INFO_PROMPT = "no_new_info:prompt"
    QUESTION_DOMAIN = "question:domain"
    QUESTION_EVALUATION = "question:evaluation"
    OBLIGATION_FULFILLED_TASK = "obligation_fulfilled:task"
    OBLIGATION_FULFILLED_DISCOURSE = "obligation_fulfilled:discourse"
    INVALIDITY_ACTION = "invalidity:action"
    INVALIDITY_BELIEF = "invalidity:belief"
    SUBOPTIMALITY = "suboptimality"
    AMBIGUITY_ACTION = "ambiguity:action"
    AMBIGUITY_BELIEF = "ambiguity:belief"

    # Members are singletons compared by identity; Enum.__hash__ runs in Python.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class CueSpec:
    """Static taxonomy entry: recognition class, effect scope, expected holder.

    `expected_holder` is descriptive metadata (who typically takes over when
    the cue appears); prediction and training rely on the learned mass
    functions only.
    """

    kind: CueKind
    cue_class: CueClass
    effect: CueEffect
    expected_holder: Role


_BOTH = CueEffect.BOTH
_DI = CueEffect.DIALOGUE_ONLY

_SPECS: tuple[CueSpec, ...] = (
    CueSpec(CueKind.EXPLICIT_GIVEUP, CueClass.EXPLICIT, _BOTH, Role.HEARER),
    CueSpec(CueKind.EXPLICIT_TAKEOVER, CueClass.EXPLICIT, _BOTH, Role.SPEAKER),
    CueSpec(CueKind.END_SILENCE, CueClass.DISCOURSE, _BOTH, Role.HEARER),
    CueSpec(CueKind.NO_NEW_INFO_REPETITION, CueClass.DISCOURSE, _BOTH, Role.HEARER),
    CueSpec(CueKind.NO_NEW_INFO_PROMPT, CueClass.DISCOURSE, _BOTH, Role.HEARER),
    CueSpec(CueKind.QUESTION_DOMAIN, CueClass.DISCOURSE, _DI, Role.SPEAKER),
    CueSpec(CueKind.QUESTION_EVALUATION, CueClass.DISCOURSE, _DI, Role.HEARER),
    CueSpec(CueKind.OBLIGATION_FULFILLED_TASK, CueClass.DISCOURSE, _BOTH, Role.HEARER),
    CueSpec(CueKind.OBLIGATION_FULFILLED_DISCOURSE, CueClass.DISCOURSE, _DI, Role.HEARER),
    CueSpec(CueKind.INVALIDITY_ACTION, CueClass.ANALYTICAL, _BOTH, Role.HEARER),
    CueSpec(CueKind.INVALIDITY_BELIEF, CueClass.ANALYTICAL, _DI, Role.HEARER),
    CueSpec(CueKind.SUBOPTIMALITY, CueClass.ANALYTICAL, _BOTH, Role.HEARER),
    CueSpec(CueKind.AMBIGUITY_ACTION, CueClass.ANALYTICAL, _BOTH, Role.HEARER),
    CueSpec(CueKind.AMBIGUITY_BELIEF, CueClass.ANALYTICAL, _DI, Role.HEARER),
)


def canonical_specs() -> tuple[CueSpec, ...]:
    """All 14 cue specs in canonical (taxonomy table) order."""
    return _SPECS


_KIND_BY_TOKEN = {kind.value: kind for kind in CueKind}


def parse_cue(token: str) -> CueKind:
    """Resolve a canonical cue identifier; matching is exact and case-sensitive."""
    kind = _KIND_BY_TOKEN.get(token)
    if kind is None:
        raise UnknownCueError(token)
    return kind


# The model's tables in model-file order: per cue, its task table (cues that
# affect both initiatives only), then its dialogue table.
TABLES: tuple[tuple[CueKind, Dimension], ...] = tuple(
    (spec.kind, dim)
    for spec in _SPECS
    for dim in ((Dimension.TASK, Dimension.DIALOGUE) if spec.effect is _BOTH else (Dimension.DIALOGUE,))
)
TABLE_INDEX = {key: i for i, key in enumerate(TABLES)}

# A prediction point: the task (both-effect cues only) and dialogue tables its turn's cues
# read, in cue order; whether the next turn's TI and DI holder is the turn's speaker; and
# its key, TI stays | DI stays << 1 | TI now speaker << 2 | DI now speaker << 3, plus the
# bitmask of its dialogue tables shifted left by 4 (each cue has one dialogue table).
Point = tuple[tuple[int, ...], tuple[int, ...], bool, bool, int]
PointTable = tuple[tuple[Point, Point], tuple[Point, Point]]
CueTable = tuple[tuple[PointTable, PointTable], tuple[PointTable, PointTable]]
# Per entry of a point table, in index order: TI and DI next is speaker, and the key's low bits.
_ENTRIES = [(ti, di, (ti == ti_now) | (di == di_now) << 1 | ti_now << 2 | di_now << 3)
            for ti_now in (False, True) for di_now in (False, True) for ti in (False, True) for di in (False, True)]


@lru_cache(maxsize=4096)
def point_table(cues: tuple[CueKind, ...]) -> CueTable:
    """The 16 points a turn with `cues` can make, as [TI now][DI now][TI next][DI next] is speaker."""
    task = tuple(TABLE_INDEX[k, Dimension.TASK] for k in cues if (k, Dimension.TASK) in TABLE_INDEX)
    dialogue = tuple(TABLE_INDEX[k, Dimension.DIALOGUE] for k in cues)
    mask = sum(1 << i for i in dialogue) << 4
    table = [(task, dialogue, ti, di, mask | low) for ti, di, low in _ENTRIES]
    # Paired up flat (8 pairs, 4 sub-tables, 2 halves): nested generators cost a fresh process more.
    for _ in range(3):
        table = list(zip(*[iter(table)] * 2))
    return tuple(table)


def _table_field(dim: Dimension, counter: bool) -> property:
    def get(self: CueParams) -> MassFunction | int | None:
        i = TABLE_INDEX.get((self._kind, dim))
        if i is None:
            return None
        return self._model.counters[i] if counter else MassFunction(*self._model.masses[i])

    def set(self: CueParams, value: MassFunction | int) -> None:
        i = TABLE_INDEX.get((self._kind, dim))
        if i is None:
            raise AttributeError(f"cue {self._kind} affects the dialogue initiative only")
        if counter:
            self._model.counters[i] = value
        else:
            self._model.masses[i] = [value.speaker, value.hearer, value.theta]

    return property(get, set)


class CueParams:
    """One cue's tables in a `CueModel`, read and written through.

    Dialogue-only cues have no task table: their task fields read None and
    cannot be written.
    """

    __slots__ = ("_model", "_kind")

    def __init__(self, model: CueModel, kind: CueKind) -> None:
        self._model = model
        self._kind = kind

    dialogue_bpa = _table_field(Dimension.DIALOGUE, counter=False)
    dialogue_counter = _table_field(Dimension.DIALOGUE, counter=True)
    task_bpa = _table_field(Dimension.TASK, counter=False)
    task_counter = _table_field(Dimension.TASK, counter=True)


@dataclass
class CueModel:
    """The learned tables: one `[speaker, hearer, theta]` mass list and one
    credit counter per entry of `TABLES`, in model-file order.

    `params` views the same tables per cue kind.
    """

    masses: list[list[float]]
    counters: list[int]

    @cached_property
    def params(self) -> dict[CueKind, CueParams]:
        return {spec.kind: CueParams(self, spec.kind) for spec in _SPECS}

    def __getstate__(self) -> dict:
        # Copies and pickles leave out the view, which is rebuilt on access.
        return {"masses": self.masses, "counters": self.counters}


def init_model() -> CueModel:
    """A fresh model: every mass function vacuous, every counter zero."""
    return CueModel([[0.0, 0.0, 1.0] for _ in TABLES], [0] * len(TABLES))


def format_model(model: CueModel) -> str:
    """Serialize a model to its canonical text form (header plus 23 lines)."""
    lines = [MODEL_HEADER]
    for (kind, dim), (speaker, hearer, theta), counter in zip(TABLES, model.masses, model.counters):
        lines.append(
            f"cue={kind.value} dim={dim.value}"
            f" m_speaker={speaker:{_FLOAT_FMT}}"
            f" m_hearer={hearer:{_FLOAT_FMT}}"
            f" m_theta={theta:{_FLOAT_FMT}}"
            f" counter={counter}"
        )
    return "\n".join(lines) + "\n"


def save_model(model: CueModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_model(model))


def _parse_kv(fields: list[str], expected: tuple[str, ...], source: str, lineno: int) -> dict[str, str]:
    values: dict[str, str] = {}
    for part in fields:
        key, sep, value = part.partition("=")
        if not sep or key not in expected or key in values:
            raise ModelFormatError(f"malformed field {part!r}", source, lineno)
        values[key] = value
    missing = [key for key in expected if key not in values]
    if missing:
        raise ModelFormatError(f"missing field(s) {', '.join(missing)}", source, lineno)
    return values


def parse_model(text: str, source: str = "<model>") -> CueModel:
    """Parse the text model format; any defect raises with its line number.

    Lines end at LF only, as in `parse_corpus`: a stray CR is stripped with
    the other surrounding whitespace, and other Unicode line separators are
    plain whitespace.
    """
    seen: dict[tuple[CueKind, Dimension], tuple[list[float], int]] = {}
    header_seen = False
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != MODEL_HEADER:
                raise ModelFormatError(f"expected header {MODEL_HEADER!r}", source, lineno)
            header_seen = True
            continue
        fields = line.split()
        values = _parse_kv(fields, ("cue", "dim", "m_speaker", "m_hearer", "m_theta", "counter"), source, lineno)
        try:
            kind = parse_cue(values["cue"])
        except UnknownCueError as exc:
            raise ModelFormatError(str(exc), source, lineno) from None
        try:
            dim = Dimension(values["dim"])
        except ValueError:
            raise ModelFormatError(f"unknown dimension {values['dim']!r}", source, lineno) from None
        if (kind, dim) not in TABLE_INDEX:
            raise ModelFormatError(f"cue {kind} affects the dialogue initiative only", source, lineno)
        if (kind, dim) in seen:
            raise ModelFormatError(f"duplicate entry for cue {kind} dim {dim}", source, lineno)
        try:
            masses = [float(values["m_speaker"]), float(values["m_hearer"]), float(values["m_theta"])]
            MassFunction(*masses)  # raises if the masses are not a mass function
            counter = int(values["counter"])
        except ValueError as exc:
            raise ModelFormatError(str(exc), source, lineno) from None
        seen[(kind, dim)] = (masses, counter)
    if not header_seen:
        raise ModelFormatError("empty model file", source, 0)

    missing = [key for key in TABLES if key not in seen]
    if missing:
        # The first cue with a missing entry is named, by its dialogue entry if both are missing.
        kind = missing[0][0]
        dim = Dimension.DIALOGUE if (kind, Dimension.DIALOGUE) in missing else Dimension.TASK
        raise ModelFormatError(f"missing {dim} entry for cue {kind}", source, 0)
    return CueModel([seen[key][0] for key in TABLES], [seen[key][1] for key in TABLES])


def load_model(path: str | Path) -> CueModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read(), str(path))
