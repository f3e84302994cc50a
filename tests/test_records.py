"""The library's records: each constructor check, message by message.

A record's checks hold however it is made, by its constructor or by a copy
with changes (`_replace`), and no record takes an assignment.
"""

import math
import re

import pytest

from initrack.corpus import Corpus, Dialogue, GeneratorConfig, GeneratorConfigError, Turn, distribution_report
from initrack.cues import CueKind
from initrack.evalstats import ErrorCell
from initrack.evidence import MassFunction
from initrack.tracker import AdjustmentMethod, RunResult, TrackerConfig

ES, QD = CueKind.END_SILENCE, CueKind.QUESTION_DOMAIN
T1, T2 = Turn("a", "b", "a", "a"), Turn("b", "a", "a", "a")
D = Dialogue("d", ("a", "b"), (T1, T2))

# Per record: keyword arguments of a valid one, every field named.
VALID = {
    Turn: dict(speaker="a", hearer="b", ti_holder="a", di_holder="b", cues=(ES,)),
    Dialogue: dict(id="d", agents=("a", "b"), turns=(T1, T2)),
    Corpus: dict(name="c", dialogues=(D,)),
    MassFunction: dict(speaker=0.25, hearer=0.25, theta=0.5),
    TrackerConfig: dict(delta=0.35, method=AdjustmentMethod.CONSTANT_INCREMENT_WITH_COUNTER, default_x=0.5,
                        reset_strength=0.75),
    GeneratorConfig: dict(name="g", dialogues=8, turns_per_dialogue=20, pairs=1, cue_emit={ES: 0.5}, cue_shift={ES: 0.5},
                          base_shift_task=0.0, base_shift_dialogue=0.0),
    RunResult: dict(dialogues=(D,), ti_ok=b"\x01", di_ok=b"\x00"),
}

# (record, changes to a valid one, the error, its message)
CHECKS = [
    (Turn, dict(hearer="a"), ValueError, "speaker and hearer must differ"),
    (Turn, dict(ti_holder="c"), ValueError, "initiative holders must be one of the turn's two agents"),
    (Turn, dict(di_holder="c"), ValueError, "initiative holders must be one of the turn's two agents"),
    (Turn, dict(cues=[ES]), ValueError, "cues must be a tuple of CueKind members, got [<CueKind.END_SILENCE: 'end_silence'>]"),
    (Turn, dict(cues=("end_silence",)), ValueError, "cues must be a tuple of CueKind members, got ('end_silence',)"),
    (Turn, dict(cues=(ES, QD, ES)), ValueError, "duplicate cue in turn"),
    (Dialogue, dict(agents=("a", "a")), ValueError, "dialogue d: agents must be two distinct non-empty names"),
    (Dialogue, dict(agents=("", "b")), ValueError, "dialogue d: agents must be two distinct non-empty names"),
    (Dialogue, dict(turns=()), ValueError, "dialogue d: no turns"),
    (Dialogue, dict(agents=("a", "c")), ValueError, "dialogue d: turn 1 names a foreign agent"),
    (Dialogue, dict(turns=(T1, T2, T2)), ValueError, "dialogue d: speakers must alternate (turn 3)"),
    (Corpus, dict(dialogues=(D, D)), ValueError, "duplicate dialogue id"),
    (MassFunction, dict(speaker=-0.25, hearer=0.75), ValueError, "mass on speaker must be >= 0, got -0.25"),
    (MassFunction, dict(hearer=math.nan), ValueError, "mass on hearer must be >= 0, got nan"),
    (MassFunction, dict(speaker=0.75, hearer=0.75, theta=-0.5), ValueError, "mass on theta must be >= 0, got -0.5"),
    (MassFunction, dict(theta=0.75), ValueError, "masses must sum to 1, got 1.25"),
    (TrackerConfig, dict(delta=0.0), ValueError, "delta must lie in (0, 1), got 0.0"),
    (TrackerConfig, dict(delta=1.0), ValueError, "delta must lie in (0, 1), got 1.0"),
    (TrackerConfig, dict(default_x=-0.5), ValueError, "default_x must lie in [0, 1], got -0.5"),
    (TrackerConfig, dict(reset_strength=0.0), ValueError, "reset_strength must lie strictly in (0, 1), got 0.0"),
    (TrackerConfig, dict(reset_strength=1.0), ValueError, "reset_strength must lie strictly in (0, 1), got 1.0"),
    (GeneratorConfig, dict(name="my corpus"), GeneratorConfigError,
     "name 'my corpus' must be a non-empty token without whitespace"),
    (GeneratorConfig, dict(name=""), GeneratorConfigError, "name '' must be a non-empty token without whitespace"),
    (GeneratorConfig, dict(dialogues=0), GeneratorConfigError, "need at least one dialogue and one turn per dialogue"),
    (GeneratorConfig, dict(turns_per_dialogue=0), GeneratorConfigError,
     "need at least one dialogue and one turn per dialogue"),
    (GeneratorConfig, dict(pairs=0), GeneratorConfigError, "pairs must be between 1 and the number of dialogues"),
    (GeneratorConfig, dict(pairs=9), GeneratorConfigError, "pairs must be between 1 and the number of dialogues"),
    (GeneratorConfig, dict(cue_emit={ES: 1.5}), GeneratorConfigError, "cue_emit[end_silence] must be a probability, got 1.5"),
    (GeneratorConfig, dict(cue_shift={QD: -0.5}), GeneratorConfigError,
     "cue_shift[question:domain] must be a probability, got -0.5"),
    (GeneratorConfig, dict(base_shift_task=2.0), GeneratorConfigError, "base_shift_task must be a probability, got 2.0"),
    (GeneratorConfig, dict(base_shift_dialogue=-1.0), GeneratorConfigError,
     "base_shift_dialogue must be a probability, got -1.0"),
    (RunResult, dict(ti_ok=b""), ValueError, "0 outcome bytes for 1 prediction points"),
    (RunResult, dict(di_ok=b"\x01\x01"), ValueError, "2 outcome bytes for 1 prediction points"),
    (RunResult, dict(dialogues=(D, D)), ValueError, "1 outcome bytes for 2 prediction points"),
    (TrackerConfig, dict(method="bad"), ValueError, "'bad' is not a valid AdjustmentMethod"),
    (GeneratorConfig, dict(cue_emit={"end_silence": 0.5}), GeneratorConfigError,
     "cue_emit key 'end_silence' must be a CueKind member"),
]
CHECK_IDS = [f"{cls.__name__}-{'-'.join(changes)}-{i}" for i, (cls, changes, _, _) in enumerate(CHECKS)]


@pytest.mark.parametrize("cls, changes, error, message", CHECKS, ids=CHECK_IDS)
def test_constructor_checks(cls, changes, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        cls(**{**VALID[cls], **changes})


@pytest.mark.parametrize("cls, changes, error, message", CHECKS, ids=CHECK_IDS)
def test_copy_with_changes_checks(cls, changes, error, message):
    record = cls(**VALID[cls])
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        record._replace(**changes)


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
def test_copy_with_valid_changes(cls):
    record = cls(**VALID[cls])
    assert type(record._replace()) is cls and record._replace() == record
    assert record._replace(**VALID[cls]) == record


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
def test_assignment_raises(cls):
    record = cls(**VALID[cls])
    derived = {Turn: "point_table", Dialogue: "points", RunResult: "records"}.get(cls)
    for name in [*VALID[cls], "extra", *([derived] if derived else [])]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in VALID[cls]:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**VALID[cls])


@pytest.mark.parametrize("method", list(AdjustmentMethod), ids=str)
def test_tracker_config_takes_a_method_value(method):
    # A value is stored as its member, which the tracker tests by identity.
    assert TrackerConfig(method=method.value).method is method
    assert TrackerConfig()._replace(method=method.value) == TrackerConfig(method=method)


def test_empty_corpus_has_no_distribution():
    report = distribution_report(Corpus("empty", ()), "a")
    assert report.cells() == (0, 0, 0, 0)
    with pytest.raises(ValueError, match="^empty corpus has no distribution$"):
        report.percentages()


GENERATOR_REPR = ("GeneratorConfig(name='g', dialogues=8, turns_per_dialogue=20, pairs=1,"
                  " cue_emit={<CueKind.END_SILENCE: 'end_silence'>: 0.5}, cue_shift={<CueKind.END_SILENCE: 'end_silence'>: 0.5},"
                  " base_shift_task=0.0, base_shift_dialogue=0.0)")
REPRS = {
    Turn: "Turn(speaker='a', hearer='b', ti_holder='a', di_holder='b', cues=(<CueKind.END_SILENCE: 'end_silence'>,))",
    Dialogue: f"Dialogue(id='d', agents=('a', 'b'), turns=({T1!r}, {T2!r}))",
    Corpus: f"Corpus(name='c', dialogues=({D!r},))",
    MassFunction: "MassFunction(speaker=0.25, hearer=0.25, theta=0.5)",
    TrackerConfig: ("TrackerConfig(delta=0.35, method=<AdjustmentMethod.CONSTANT_INCREMENT_WITH_COUNTER: 'const-counter'>,"
                    " default_x=0.5, reset_strength=0.75)"),
    GeneratorConfig: GENERATOR_REPR,
    RunResult: "RunResult(predictions=1, task_correct=1, dialogue_correct=0)",
}

# Per record: a valid change of one field.
OTHER = {Turn: dict(ti_holder="b"), Dialogue: dict(id="e"), Corpus: dict(name="e"), MassFunction: dict(speaker=0.5, theta=0.25),
         TrackerConfig: dict(delta=0.25), GeneratorConfig: dict(name="h"), RunResult: dict(ti_ok=b"\x00")}


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
def test_equality_hash_and_repr(cls):
    record, again = cls(**VALID[cls]), cls(**VALID[cls])
    assert record == again and repr(record) == REPRS[cls]
    if cls is GeneratorConfig:  # its cue tables are dicts
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(again)
    assert record != record._replace(**OTHER[cls])


def test_error_cells_compare_by_value():
    cell = ErrorCell(1, 2, 3, 4)
    assert cell == ErrorCell(shift_errors=1, shift_total=2, noshift_errors=3, noshift_total=4) != ErrorCell()
    assert repr(cell) == "ErrorCell(shift_errors=1, shift_total=2, noshift_errors=3, noshift_total=4)"
