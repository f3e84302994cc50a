from __future__ import annotations

import pytest
from hypothesis import strategies as st

from initrack.corpus import Corpus, Dialogue, GeneratorConfig, Turn, gen_synthetic
from initrack.cues import CueKind, parse_cue


# The README quick-start corpus, generated with seed 7.
README_CONFIG = GeneratorConfig(
    dialogues=8, turns_per_dialogue=25, pairs=4,
    cue_emit={CueKind.NO_NEW_INFO_PROMPT: 0.35}, cue_shift={CueKind.NO_NEW_INFO_PROMPT: 0.9},
)


def make_turn(speaker: str, hearer: str, ti: str, di: str, cues: tuple[str, ...] = ()) -> Turn:
    return Turn(speaker, hearer, ti, di, tuple(parse_cue(c) for c in cues))


def make_dialogue(did: str, agents: tuple[str, str], rows) -> Dialogue:
    """rows: (ti, di, cue tokens) per turn; speakers alternate from agents[0]."""
    turns = []
    for t, (ti, di, cues) in enumerate(rows):
        speaker = agents[t % 2]
        hearer = agents[(t + 1) % 2]
        turns.append(make_turn(speaker, hearer, ti, di, cues))
    return Dialogue(did, agents, tuple(turns))


def make_corpus(name: str, *dialogues: Dialogue) -> Corpus:
    return Corpus(name, tuple(dialogues))


@pytest.fixture
def handtrace_corpus() -> Corpus:
    """Two turns; a prompt on turn 1 precedes a dialogue-initiative shift."""
    return make_corpus(
        "handtrace",
        make_dialogue("d1", ("a", "b"), [("a", "a", ("no_new_info:prompt",)), ("a", "b", ())]),
    )


def corpus_to_plain(corpus: Corpus) -> list[dict]:
    """Convert to the plain-dict form consumed by the straight-line oracle."""
    out = []
    for dialogue in corpus.dialogues:
        out.append(
            {
                "id": dialogue.id,
                "turns": [
                    {
                        "speaker": turn.speaker,
                        "hearer": turn.hearer,
                        "ti": turn.ti_holder,
                        "di": turn.di_holder,
                        "cues": [k.value for k in turn.cues],
                    }
                    for turn in dialogue.turns
                ],
            }
        )
    return out


def _probabilities():
    return st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def generator_configs(draw, cue_dense: bool = False):
    """GeneratorConfigs over the whole configuration space.

    Emitted cues and shift keys are drawn independently, so some emitted cues
    are pure noise (no shift entry) and some shift entries are never emitted.
    Every probability, base shifts included, may be exactly 0 or 1.  With
    `cue_dense`, six or more cue kinds are each emitted with probability 0.3
    or more, so most turn lines of the corpus differ from every earlier one.
    """
    kinds = st.lists(st.sampled_from(list(CueKind)), max_size=8, unique=True)
    emitted = st.lists(st.sampled_from(list(CueKind)), min_size=6, max_size=14, unique=True) if cue_dense else kinds
    emit_p = st.floats(0.3, 1.0) if cue_dense else _probabilities()
    dialogues = draw(st.integers(1, 6))
    return GeneratorConfig(
        dialogues=dialogues,
        turns_per_dialogue=draw(st.integers(1, 30)),
        pairs=draw(st.integers(1, dialogues)),
        cue_emit={k: draw(emit_p) for k in draw(emitted)},
        cue_shift={k: draw(_probabilities()) for k in draw(kinds)},
        base_shift_task=draw(_probabilities()),
        base_shift_dialogue=draw(_probabilities()),
    )


@st.composite
def synthetic_corpora(draw):
    """gen_synthetic corpora over generator_configs and the seed."""
    return gen_synthetic(draw(generator_configs()), draw(st.integers(0, 2**16)))


def plain_to_corpus(name: str, dialogues: list[dict]) -> Corpus:
    """Build a fully checked Corpus from the plain-dict form (ids, agents, turns)."""
    return Corpus(
        name,
        tuple(
            Dialogue(
                d["id"],
                tuple(d["agents"]),
                tuple(make_turn(t["speaker"], t["hearer"], t["ti"], t["di"], tuple(t["cues"])) for t in d["turns"]),
            )
            for d in dialogues
        ),
    )
