from __future__ import annotations

import pytest
from hypothesis import strategies as st

from initrack.corpus import Corpus, Dialogue, GeneratorConfig, Turn, gen_synthetic
from initrack.cues import CueKind, parse_cue


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


@st.composite
def synthetic_corpora(draw):
    """gen_synthetic corpora; dialogues, turns, pairs, cue and shift rates and the seed vary."""
    kinds = draw(st.lists(st.sampled_from(list(CueKind)), min_size=1, max_size=6, unique=True))
    dialogues = draw(st.integers(1, 6))
    config = GeneratorConfig(
        dialogues=dialogues,
        turns_per_dialogue=draw(st.integers(1, 30)),
        pairs=draw(st.integers(1, dialogues)),
        cue_emit={k: draw(st.floats(0.0, 1.0)) for k in kinds},
        cue_shift={k: draw(st.floats(0.0, 1.0)) for k in kinds},
        base_shift_task=draw(st.floats(0.0, 0.3)),
        base_shift_dialogue=draw(st.floats(0.0, 0.3)),
    )
    return gen_synthetic(config, draw(st.integers(0, 2**16)))
