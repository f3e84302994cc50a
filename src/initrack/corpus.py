"""Annotated dialogue corpora: parsing, validation, reports, and synthesis.

A corpus is a set of two-party dialogues.  Every turn names its speaker and
the agents currently holding the task and dialogue initiatives, plus the
cues observed during the turn.  Speakers alternate strictly; annotators are
expected to merge consecutive same-speaker utterances into one turn.
"""

from __future__ import annotations

import math
from functools import cached_property
from pathlib import Path
from random import Random
from typing import Iterable, Mapping, NamedTuple

from .cues import CueEffect, CueKind, CueTable, Point, UnknownCueError, canonical_specs, parse_cue, point_table
from .evidence import Role


class CorpusFormatError(ValueError):
    """Raised for an invalid corpus file; carries the offending position."""

    def __init__(self, message: str, source: str = "<corpus>", line: int = 0) -> None:
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line


class GeneratorConfigError(ValueError):
    """Raised for an invalid synthetic-corpus configuration."""


class DegenerateStatisticError(ValueError):
    """Raised when a statistic is undefined on the given data (0/0 chance terms)."""


def _read_only(self: object, name: str, *value: object) -> None:
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


class Turn(NamedTuple("Turn", [("speaker", str), ("hearer", str), ("ti_holder", str), ("di_holder", str),
                               ("cues", tuple)])):
    """One turn: a named tuple whose constructor, and so `_replace`, checks it.

    `point_table`, the 2x2 sub-table of `point_table(cues)` for the turn's
    current holders, is derived and kept beside the fields: it takes no part
    in equality, hashing or repr.
    """

    def __new__(cls, speaker: str, hearer: str, ti_holder: str, di_holder: str, cues: tuple[CueKind, ...] = ()) -> Turn:
        if speaker == hearer:
            raise ValueError("speaker and hearer must differ")
        pair = {speaker, hearer}
        if ti_holder not in pair or di_holder not in pair:
            raise ValueError("initiative holders must be one of the turn's two agents")
        if not isinstance(cues, tuple) or not all(type(kind) is CueKind for kind in cues):
            raise ValueError(f"cues must be a tuple of CueKind members, got {cues!r}")
        if len(set(cues)) != len(cues):
            raise ValueError("duplicate cue in turn")
        return cls._prechecked(speaker, hearer, ti_holder, di_holder, cues)

    @classmethod
    def _prechecked(cls, speaker: str, hearer: str, ti_holder: str, di_holder: str, cues: tuple[CueKind, ...], table: CueTable | None = None) -> Turn:
        """A turn whose agents, holders and cues the caller has already checked; `table`, if given, is `point_table(cues)`."""
        turn = tuple.__new__(cls, (speaker, hearer, ti_holder, di_holder, cues))
        turn.__dict__["point_table"] = (point_table(cues) if table is None else table)[ti_holder == speaker][di_holder == speaker]
        return turn

    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` builds its copy through `_make`
    __setattr__ = __delattr__ = _read_only


class Dialogue(NamedTuple("Dialogue", [("id", str), ("agents", tuple), ("turns", tuple)])):
    """One dialogue: a named tuple whose constructor, and so `_replace`, checks it.

    `points` is derived on first access and kept beside the fields, out of
    equality, hashing, repr, copies and pickles.
    """

    def __new__(cls, id: str, agents: tuple[str, str], turns: tuple[Turn, ...]) -> Dialogue:
        a, b = agents
        if not a or not b or a == b:
            raise ValueError(f"dialogue {id}: agents must be two distinct non-empty names")
        if not turns:
            raise ValueError(f"dialogue {id}: no turns")
        for i, turn in enumerate(turns):
            if {turn.speaker, turn.hearer} != {a, b}:
                raise ValueError(f"dialogue {id}: turn {i + 1} names a foreign agent")
            if i and turn.speaker == turns[i - 1].speaker:
                raise ValueError(f"dialogue {id}: speakers must alternate (turn {i + 1})")
        return tuple.__new__(cls, (id, agents, turns))

    @classmethod
    def _prechecked(cls, id: str, agents: tuple[str, str], turns: tuple[Turn, ...]) -> Dialogue:
        """A dialogue whose agents, turns and alternation the caller has already checked."""
        return tuple.__new__(cls, (id, agents, turns))

    _make = classmethod(lambda cls, fields: cls(*fields))
    __setattr__ = __delattr__ = _read_only

    def __getstate__(self) -> None:
        return None  # copies and pickles carry the fields, not the derived points

    @cached_property
    def points(self) -> tuple[Point, ...]:
        """The dialogue's prediction points, one per turn but the last, derived on first access and kept."""
        turns = self.turns
        return tuple([turn.point_table[nxt.ti_holder == turn.speaker][nxt.di_holder == turn.speaker]
                      for turn, nxt in zip(turns, turns[1:])])


class Corpus(NamedTuple("Corpus", [("name", str), ("dialogues", tuple)])):
    """A named set of dialogues: a named tuple whose constructor, and so `_replace`, checks it."""

    __slots__ = ()

    def __new__(cls, name: str, dialogues: tuple[Dialogue, ...]) -> Corpus:
        ids = [d.id for d in dialogues]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate dialogue id")
        return tuple.__new__(cls, (name, dialogues))

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def turn_count(self) -> int:
        return sum(len(d.turns) for d in self.dialogues)


# ---------------------------------------------------------------------------
# Corpus file format
#
#   corpus <name>
#   dialogue <id> agents=<a>,<b>
#   turn speaker=<agent> ti=<agent> di=<agent> cues=<kind>[,<kind>...]|-
#   end
#
# UTF-8, '#' comments.  Lines end at LF only; a stray CR is stripped with
# the other surrounding whitespace.  Names, ids and agents are non-empty
# tokens without whitespace; agents also hold no ','.


_TURN_FIELDS = ("speaker", "ti", "di", "cues")


def parse_corpus(text: str | Iterable[str], source: str = "<corpus>") -> Corpus:
    """Parse a corpus file; all-or-nothing, errors carry file:line positions.

    `text` is the file's text, split at LF, or its lines as they come (a
    file opened in text mode), each parsed as it is read.  Per agent pair, a
    repeated turn line reuses the frozen `Turn` its first copy gave, so equal
    turns of a parsed corpus may be one object.  A new line whose canonical
    head `turn speaker=S ti=T di=D` and cue field both parsed before is built
    from those parts.  Only any other line takes the full field parse, and
    each distinct cue list is parsed once per file.  The first two kinds
    check only their alternation with the previous turn.  Nothing is kept
    between calls.  Dialogues of one agent pair share one `agents` tuple, and
    every turn holds those agent strings.
    """
    lines = text.split("\n") if isinstance(text, str) else text

    def err(lineno: int, message: str) -> CorpusFormatError:
        return CorpusFormatError(message, source, lineno)

    name: str | None = None
    dialogues: list[Dialogue] = []
    seen_ids: set[str] = set()
    current_id: str | None = None
    current_agents: tuple[str, str] | None = None
    current_turns: list[Turn] = []
    current_line = 0
    previous_speaker: str | None = None
    # Per agent pair: its one agents tuple, each agent mapped to the tuple's
    # string, the turn lines parsed under it, and the canonical heads of those
    # lines.
    pairs: dict[tuple[str, str], tuple[tuple[str, str], dict[str, str], dict[str, Turn], dict[str, tuple]]] = {}
    own: dict[str, str] = {}  # each agent of the open dialogue, mapped to its pair tuple's string
    known: dict[str, Turn] = {}  # turn lines parsed under the open dialogue's agents
    # Each canonical head `turn speaker=S ti=T di=D` parsed under the open
    # dialogue's agents, mapped to its turn's (speaker, hearer, ti, di): at most 8.
    heads: dict[str, tuple] = {}
    # Each valid cue field parsed so far: its cue list and that list's 16-entry point table.
    cue_lists: dict[str, tuple[tuple[CueKind, ...], CueTable]] = {"-": ((), point_table(()))}

    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        turn = known.get(line)
        if turn is None:
            # A new line made of a parsed head and a parsed cue field: no field in
            # either holds whitespace, so it splits into the fields of those lines.
            head, _, cue_field = line.rpartition(" cues=")
            holders = heads.get(head)
            if holders is not None and cue_field in cue_lists:
                turn = known[line] = Turn._prechecked(*holders, *cue_lists[cue_field])
        if turn is not None:
            if turn.speaker == previous_speaker:
                raise err(lineno, f"speaker {turn.speaker!r} repeats; turns must alternate")
            previous_speaker = turn.speaker
            current_turns.append(turn)
            continue
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        directive = fields[0]

        if directive == "turn" and current_agents is not None:
            values: dict[str, str] = {}
            for part in fields[1:]:
                key, sep, value = part.partition("=")
                if not sep or key not in _TURN_FIELDS or key in values:
                    raise err(lineno, f"malformed field {part!r}")
                values[key] = value
            if len(values) != len(_TURN_FIELDS):
                missing = next(key for key in _TURN_FIELDS if key not in values)
                raise err(lineno, f"missing field {missing!r}")
            speaker = own.get(values["speaker"])
            ti_holder = own.get(values["ti"])
            di_holder = own.get(values["di"])
            if speaker is None or ti_holder is None or di_holder is None:
                key = next(key for key in ("speaker", "ti", "di") if values[key] not in own)
                raise err(lineno, f"unknown agent {values[key]!r} in field {key!r}")
            if speaker == previous_speaker:
                raise err(lineno, f"speaker {speaker!r} repeats; turns must alternate")
            cue_list = cue_lists.get(values["cues"])
            if cue_list is None:
                kinds: list[CueKind] = []
                for token in values["cues"].split(","):
                    try:
                        kind = parse_cue(token)
                    except UnknownCueError as exc:
                        raise err(lineno, str(exc)) from None
                    if kind in kinds:
                        raise err(lineno, f"duplicate cue {token!r}")
                    kinds.append(kind)
                cues = tuple(kinds)
                cue_list = cue_lists[values["cues"]] = cues, point_table(cues)
            a, b = current_agents
            hearer = b if speaker == a else a
            cues, table = cue_list
            turn = known[line] = Turn._prechecked(speaker, hearer, ti_holder, di_holder, cues, table)
            heads[f"turn speaker={values['speaker']} ti={values['ti']} di={values['di']}"] = turn[:4]
            previous_speaker = speaker
            current_turns.append(turn)
            continue

        if name is None:
            if directive != "corpus" or len(fields) != 2:
                raise err(lineno, "expected 'corpus <name>'")
            name = fields[1]
            continue

        if directive == "dialogue":
            if current_id is not None:
                raise err(lineno, f"dialogue {current_id!r} not closed with 'end'")
            if len(fields) != 3 or not fields[2].startswith("agents="):
                raise err(lineno, "expected 'dialogue <id> agents=<a>,<b>'")
            dialogue_id = fields[1]
            if dialogue_id in seen_ids:
                raise err(lineno, f"duplicate dialogue id {dialogue_id!r}")
            agents = fields[2][len("agents="):].split(",")
            if len(agents) != 2 or not all(agents) or agents[0] == agents[1]:
                raise err(lineno, "agents must be two distinct non-empty names")
            pair = (agents[0], agents[1])
            if pair not in pairs:
                pairs[pair] = (pair, {agent: agent for agent in pair}, {}, {})
            current_agents, own, known, heads = pairs[pair]
            current_id = dialogue_id
            current_turns = []
            current_line = lineno
            previous_speaker = None
            continue

        if directive == "turn":
            raise err(lineno, "turn outside a dialogue")

        if directive == "end":
            if current_id is None or current_agents is None:
                raise err(lineno, "'end' outside a dialogue")
            if not current_turns:
                raise err(lineno, f"dialogue {current_id!r} has no turns")
            dialogues.append(Dialogue._prechecked(current_id, current_agents, tuple(current_turns)))
            seen_ids.add(current_id)
            current_id = None
            current_agents = None
            current_turns = []
            known, heads = {}, {}
            continue

        raise err(lineno, f"unknown directive {directive!r}")

    if name is None:
        raise err(0, "empty corpus file")
    if current_id is not None:
        raise err(current_line, f"dialogue {current_id!r} not closed with 'end'")
    return Corpus(name, tuple(dialogues))


def load_corpus(path: str | Path) -> Corpus:
    """Parse a UTF-8 corpus file line by line as it is read.

    The file's text is never held whole, so loading allocates no buffer the
    size of the file.  Line ends are read as universal newlines (CRLF and a
    lone CR end a line, as LF does).  A file that does not decode raises the
    `UnicodeDecodeError` of decoding it whole, at its position in the file,
    even when an earlier line is malformed.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_corpus(fh, str(path))
        except ValueError:
            fh.seek(0)
            fh.read()  # raises the decoding error of the whole file, if there is one
            raise


# The bundled replica: the original annotated dialogues are not redistributable, so it
# reproduces their published joint task/dialogue initiative distribution for the system
# agent (cells 37 / 274 / 4 / 727 over 1042 turns) without any utterance content.
REPLICA_PATH = Path(__file__).parent / "data" / "replica_trains91.dti"


def _check_token(what: str, token: str, forbidden: str = "") -> None:
    """Raise ValueError unless `token` reads back as one field of a corpus line."""
    if not token or any(c.isspace() or c in forbidden for c in token):
        extra = "".join(f" or {c!r}" for c in forbidden)
        raise ValueError(f"{what} {token!r} must be a non-empty token without whitespace{extra}")


def format_corpus(corpus: Corpus) -> str:
    """The corpus as file text; ValueError names a name, id or agent that would not read back."""
    _check_token("corpus name", corpus.name)
    lines = [f"corpus {corpus.name}"]
    turn_lines: dict[int, str] = {}  # per Turn object: parsed and generated corpora share equal turns
    for dialogue in corpus.dialogues:
        _check_token("dialogue id", dialogue.id)
        for agent in dialogue.agents:
            _check_token("agent", agent, ",")
        lines.append(f"dialogue {dialogue.id} agents={dialogue.agents[0]},{dialogue.agents[1]}")
        for turn in dialogue.turns:
            line = turn_lines.get(id(turn))
            if line is None:
                cues = ",".join(k.value for k in turn.cues) if turn.cues else "-"
                line = f"turn speaker={turn.speaker} ti={turn.ti_holder} di={turn.di_holder} cues={cues}"
                turn_lines[id(turn)] = line
            lines.append(line)
        lines.append("end")
    return "\n".join(lines) + "\n"


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_corpus(corpus))


# ---------------------------------------------------------------------------
# Reports and partitioning


def largest_remainder_percentages(counts: Iterable[int]) -> tuple[float, ...]:
    """Percentages rounded to one decimal place so that they sum to exactly 100.

    Floors every percentage at that precision, then hands the leftover
    units to the cells with the largest remainders (ties broken by position).
    This is the usual convention for published distribution tables.
    """
    items = list(counts)
    total = sum(items)
    if total <= 0:
        raise ValueError("percentages need a positive total")
    scale = 10  # tenths of a percent
    raw = [100.0 * c / total for c in items]
    floors = [math.floor(r * scale) for r in raw]
    leftover = 100 * scale - sum(floors)
    by_remainder = sorted(range(len(items)), key=lambda i: (floors[i] - raw[i] * scale, i))
    for i in by_remainder[:leftover]:
        floors[i] += 1
    return tuple(f / scale for f in floors)


class DistributionReport(NamedTuple):
    """Joint counts of task/dialogue initiative holders relative to a focus agent.

    Cells are kept in distribution-table row order: the DI=focus row first
    (TI=focus, then TI=other), then the DI=other row.
    """

    focus_agent: str
    ti_focus_di_focus: int
    ti_other_di_focus: int
    ti_focus_di_other: int
    ti_other_di_other: int

    @property
    def total(self) -> int:
        return sum(self.cells())

    def cells(self) -> tuple[int, int, int, int]:
        return (
            self.ti_focus_di_focus,
            self.ti_other_di_focus,
            self.ti_focus_di_other,
            self.ti_other_di_other,
        )

    def percentages(self) -> tuple[float, float, float, float]:
        total = self.total
        if total == 0:
            raise ValueError("empty corpus has no distribution")
        return tuple(100.0 * c / total for c in self.cells())  # type: ignore[return-value]

    def rounded_percentages(self) -> tuple[float, ...]:
        return largest_remainder_percentages(self.cells())


def distribution_report(corpus: Corpus, focus_agent: str) -> DistributionReport:
    """Count turns per joint (TI holder, DI holder) cell relative to focus_agent."""
    cells = [0, 0, 0, 0]
    for dialogue in corpus.dialogues:
        if focus_agent not in dialogue.agents:
            raise ValueError(f"agent {focus_agent!r} does not appear in dialogue {dialogue.id!r}")
        for turn in dialogue.turns:
            ti_focus = turn.ti_holder == focus_agent
            di_focus = turn.di_holder == focus_agent
            if di_focus:
                cells[0 if ti_focus else 1] += 1
            else:
                cells[2 if ti_focus else 3] += 1
    return DistributionReport(focus_agent, *cells)


def partition_by_pair(corpus: Corpus) -> list[tuple[tuple[str, str], Corpus]]:
    """Group dialogues by their ordered agent pair, in sorted key order.

    The ordered pair encodes which participant plays which seat, so the
    groups form a true partition suitable for leave-one-pair-out
    cross-validation.
    """
    groups: dict[tuple[str, str], list[Dialogue]] = {}
    for dialogue in corpus.dialogues:
        groups.setdefault(dialogue.agents, []).append(dialogue)
    out = []
    for key in sorted(groups):
        sub = Corpus(f"{corpus.name}[{key[0]},{key[1]}]", tuple(groups[key]))
        out.append((key, sub))
    return out


# ---------------------------------------------------------------------------
# Synthetic corpora
#
# Desk-scale stand-ins for annotated dialogue data.  Every dialogue opens
# with the first speaker holding both initiatives; cue-conditioned shift
# rules then hand an initiative to the expected holder of the emitting
# turn with a configured probability.


class GeneratorConfig(NamedTuple("GeneratorConfig", [
    ("name", str), ("dialogues", int), ("turns_per_dialogue", int), ("pairs", int), ("cue_emit", Mapping[CueKind, float]),
    ("cue_shift", Mapping[CueKind, float]), ("base_shift_task", float), ("base_shift_dialogue", float),
])):
    """Configuration for gen_synthetic: a named tuple whose constructor, and so `_replace`, checks it.

    cue_emit gives each cue's per-turn emission probability; cue_shift gives
    the probability that an emitted cue actually hands the initiative(s) in
    its effect scope to its expected holder for the next turn.  Cues missing
    from cue_shift are pure noise; either table left out is a new empty
    dict.  base_shift_* flip a holder spontaneously after the cue rules
    have been applied.
    """

    __slots__ = ()

    def __new__(cls, name: str = "synthetic", dialogues: int = 8, turns_per_dialogue: int = 20, pairs: int = 1,
                cue_emit: Mapping[CueKind, float] | None = None, cue_shift: Mapping[CueKind, float] | None = None,
                base_shift_task: float = 0.0, base_shift_dialogue: float = 0.0) -> GeneratorConfig:
        cue_emit = {} if cue_emit is None else cue_emit
        cue_shift = {} if cue_shift is None else cue_shift
        try:
            _check_token("name", name)
        except ValueError as exc:
            raise GeneratorConfigError(str(exc)) from None
        if dialogues < 1 or turns_per_dialogue < 1:
            raise GeneratorConfigError("need at least one dialogue and one turn per dialogue")
        if not 1 <= pairs <= dialogues:
            raise GeneratorConfigError("pairs must be between 1 and the number of dialogues")
        for label, table in (("cue_emit", cue_emit), ("cue_shift", cue_shift)):
            for kind, p in table.items():
                if type(kind) is not CueKind:
                    raise GeneratorConfigError(f"{label} key {kind!r} must be a CueKind member")
                if not 0.0 <= p <= 1.0:
                    raise GeneratorConfigError(f"{label}[{kind}] must be a probability, got {p!r}")
        for label, p in (("base_shift_task", base_shift_task), ("base_shift_dialogue", base_shift_dialogue)):
            if not 0.0 <= p <= 1.0:
                raise GeneratorConfigError(f"{label} must be a probability, got {p!r}")
        return tuple.__new__(cls, (name, dialogues, turns_per_dialogue, pairs, cue_emit, cue_shift, base_shift_task,
                                   base_shift_dialogue))

    _make = classmethod(lambda cls, fields: cls(*fields))


def gen_synthetic(config: GeneratorConfig, seed: int) -> Corpus:
    """Generate a corpus deterministically from (config, seed).

    Equal turns within an agent pair are one shared frozen `Turn`, as in
    `parse_corpus`; their identity carries no meaning.
    """
    random = Random(seed).random
    # One row per emitted cue, in canonical order: (kind, emission p, task-shift
    # p or None, dialogue-shift p or None, hands to speaker).  A None skips the
    # shift draw: dialogue-only cues have no task shift, and cues missing from
    # cue_shift are pure noise.
    rows = []
    for spec in canonical_specs():
        if spec.kind in config.cue_emit:
            shift = config.cue_shift.get(spec.kind)
            task_shift = shift if spec.effect is CueEffect.BOTH else None
            rows.append((spec.kind, config.cue_emit[spec.kind], task_shift, shift, spec.expected_holder is Role.SPEAKER))
    base_task, base_dialogue = config.base_shift_task, config.base_shift_dialogue
    turns_by_pair: dict[tuple[str, str], dict[tuple, Turn]] = {}
    dialogues = []
    for d in range(config.dialogues):
        pair_index = d % config.pairs
        a, b = agents = (f"a{pair_index}", f"b{pair_index}")
        known = turns_by_pair.setdefault(agents, {})
        ti_holder = di_holder = a
        turns = []
        for t in range(config.turns_per_dialogue):
            speaker, hearer = (b, a) if t % 2 else (a, b)
            emitted = [row for row in rows if random() < row[1]]
            cues = tuple([row[0] for row in emitted]) if emitted else ()
            key = (speaker, ti_holder, di_holder, cues)
            turn = known.get(key)
            if turn is None:
                turn = known[key] = Turn._prechecked(speaker, hearer, ti_holder, di_holder, cues)
            turns.append(turn)

            for _, _, task_shift, _, to_speaker in emitted:
                if task_shift is not None and random() < task_shift:
                    ti_holder = speaker if to_speaker else hearer
            for _, _, _, dialogue_shift, to_speaker in emitted:
                if dialogue_shift is not None and random() < dialogue_shift:
                    di_holder = speaker if to_speaker else hearer
            if base_task > 0.0 and random() < base_task:
                ti_holder = b if ti_holder == a else a
            if base_dialogue > 0.0 and random() < base_dialogue:
                di_holder = b if di_holder == a else a
        # Agents are distinct and speakers alternate by construction.
        dialogues.append(Dialogue._prechecked(f"d{d + 1}", agents, tuple(turns)))
    return Corpus(config.name, tuple(dialogues))
