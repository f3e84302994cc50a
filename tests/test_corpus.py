import copy
import dataclasses
import hashlib
import io
import itertools
import pickle
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from initrack.corpus import (
    REPLICA_PATH,
    Corpus,
    CorpusFormatError,
    Dialogue,
    GeneratorConfig,
    GeneratorConfigError,
    Turn,
    distribution_report,
    format_corpus,
    gen_synthetic,
    largest_remainder_percentages,
    load_corpus,
    parse_corpus,
    partition_by_pair,
)
from initrack.cues import TABLE_INDEX, CueEffect, CueKind, Dimension, canonical_specs, format_model, init_model, point_table
from initrack.evalstats import evaluate
from initrack.tracker import TrackerConfig, train

from conftest import README_CONFIG, corpus_forms, generator_configs, make_corpus, make_dialogue, plain_to_corpus, synthetic_corpora
from oracles import synthetic_dialogues

SAMPLE = """\
corpus demo
dialogue d1 agents=system,manager
turn speaker=manager ti=manager di=manager cues=question:domain
turn speaker=system ti=manager di=manager cues=no_new_info:prompt
end
"""


class TestParsing:
    def test_sample(self):
        corpus = parse_corpus(SAMPLE)
        assert corpus.name == "demo"
        assert len(corpus.dialogues) == 1
        d = corpus.dialogues[0]
        assert d.agents == ("system", "manager")
        assert len(d.turns) == 2
        assert d.turns[0].speaker == "manager"
        assert d.turns[0].hearer == "system"
        assert d.turns[0].cues == (CueKind.QUESTION_DOMAIN,)
        assert d.turns[1].cues == (CueKind.NO_NEW_INFO_PROMPT,)

    def test_round_trip(self):
        corpus = parse_corpus(SAMPLE)
        assert parse_corpus(format_corpus(corpus)) == corpus

    def test_comments_and_blanks(self):
        text = "# header comment\n\n" + SAMPLE
        assert parse_corpus(text) == parse_corpus(SAMPLE)

    def test_unknown_cue_with_line(self):
        bad = SAMPLE.replace("cues=no_new_info:prompt", "cues=promptz")
        with pytest.raises(CorpusFormatError) as exc:
            parse_corpus(bad, "bad.dti")
        assert "promptz" in str(exc.value)
        assert exc.value.line == 4
        assert exc.value.source == "bad.dti"

    def test_alternation_enforced(self):
        bad = SAMPLE.replace("turn speaker=system", "turn speaker=manager")
        with pytest.raises(CorpusFormatError, match="alternate"):
            parse_corpus(bad)

    def test_unknown_agent(self):
        bad = SAMPLE.replace("ti=manager di=manager cues=question:domain", "ti=nobody di=manager cues=-")
        with pytest.raises(CorpusFormatError, match="unknown agent"):
            parse_corpus(bad)

    def test_duplicate_dialogue_id(self):
        text = SAMPLE + SAMPLE.split("\n", 1)[1]
        with pytest.raises(CorpusFormatError, match="duplicate dialogue id"):
            parse_corpus(text)

    def test_empty_dialogue(self):
        text = "corpus x\ndialogue d1 agents=a,b\nend\n"
        with pytest.raises(CorpusFormatError, match="no turns"):
            parse_corpus(text)

    def test_unclosed_dialogue(self):
        text = "corpus x\ndialogue d1 agents=a,b\nturn speaker=a ti=a di=a cues=-\n"
        with pytest.raises(CorpusFormatError, match="not closed"):
            parse_corpus(text)

    def test_missing_header(self):
        with pytest.raises(CorpusFormatError, match="corpus"):
            parse_corpus("dialogue d1 agents=a,b\n")

    def test_duplicate_cue_in_turn(self):
        bad = SAMPLE.replace("cues=question:domain", "cues=question:domain,question:domain")
        with pytest.raises(CorpusFormatError, match="duplicate cue"):
            parse_corpus(bad)

    def test_crlf_line_ends(self):
        assert parse_corpus(SAMPLE.replace("\n", "\r\n")) == parse_corpus(SAMPLE)

    # Characters str.splitlines() would also end a line at.
    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_lines_end_at_lf_only(self, sep):
        text = f"corpus c\n# note{sep}more\ndialogue d1 agents=a,b\nturn speaker=a ti=a di=a cues=-\nend\n"
        assert parse_corpus(text) == make_corpus("c", make_dialogue("d1", ("a", "b"), [("a", "a", ())]))
        bad = f"corpus x\n{sep}\ndialogue d1 agents=a,b\nturn speaker=c ti=a di=a cues=-\n"
        with pytest.raises(CorpusFormatError) as exc:
            parse_corpus(bad)
        assert exc.value.line == 4

    @settings(max_examples=100, deadline=None)
    @given(synthetic_corpora())
    def test_round_trip_shares_turns(self, corpus):
        text = format_corpus(corpus)
        parsed = parse_corpus(text)
        assert parsed == corpus
        lines = set()
        for line in text.split("\n"):
            if line.startswith("dialogue "):
                agents = line.split()[2]
            elif line.startswith("turn "):
                lines.add((agents, line))
        assert len({id(turn) for d in parsed.dialogues for turn in d.turns}) == len(lines)


HEAD = "corpus x\ndialogue d1 agents=a,b\n"
TURN_A = "turn speaker=a ti=a di=a cues=-\n"
TURN_B = "turn speaker=b ti=a di=a cues=-\n"
LONG = HEAD + (TURN_A + TURN_B) * 100  # 202 lines; every later turn line is a repeat

# (text, line, message): every CorpusFormatError parse_corpus raises.  The
# last group puts the error on a line whose text already parsed earlier.
FORMAT_ERRORS = [
    ("", 0, "empty corpus file"),
    ("# comment\n\n", 0, "empty corpus file"),
    ("dialogue d1 agents=a,b\n", 1, "expected 'corpus <name>'"),
    ("\ncorpus\n", 2, "expected 'corpus <name>'"),
    ("corpus x y\n", 1, "expected 'corpus <name>'"),
    (HEAD + TURN_A + "dialogue d2 agents=a,b\n", 4, "dialogue 'd1' not closed with 'end'"),
    (HEAD + TURN_A, 2, "dialogue 'd1' not closed with 'end'"),
    ("corpus x\ndialogue d1\n", 2, "expected 'dialogue <id> agents=<a>,<b>'"),
    ("corpus x\ndialogue d1 with=a,b\n", 2, "expected 'dialogue <id> agents=<a>,<b>'"),
    (HEAD + TURN_A + "end\ndialogue d1 agents=a,b\n", 5, "duplicate dialogue id 'd1'"),
    ("corpus x\ndialogue d1 agents=a\n", 2, "agents must be two distinct non-empty names"),
    ("corpus x\ndialogue d1 agents=a,a\n", 2, "agents must be two distinct non-empty names"),
    ("corpus x\ndialogue d1 agents=a,\n", 2, "agents must be two distinct non-empty names"),
    ("corpus x\n" + TURN_A, 2, "turn outside a dialogue"),
    (HEAD + "turn speaker=a ti=a di=a cues=- x\n", 3, "malformed field 'x'"),
    (HEAD + "turn speaker=a ti=a di=a cues=- mood=ok\n", 3, "malformed field 'mood=ok'"),
    (HEAD + "turn speaker=a speaker=a ti=a di=a cues=-\n", 3, "malformed field 'speaker=a'"),
    (HEAD + "turn speaker=a ti=a di=a\n", 3, "missing field 'cues'"),
    (HEAD + "turn speaker=c ti=a di=a cues=-\n", 3, "unknown agent 'c' in field 'speaker'"),
    (HEAD + "turn speaker=a ti=a di=c cues=-\n", 3, "unknown agent 'c' in field 'di'"),
    (HEAD + TURN_A + TURN_A, 4, "speaker 'a' repeats; turns must alternate"),
    (HEAD + "turn speaker=a ti=a di=a cues=promptz\n", 3, "unknown cue 'promptz'"),
    (HEAD + "turn speaker=a ti=a di=a cues=end_silence,end_silence\n", 3, "duplicate cue 'end_silence'"),
    ("corpus x\nend\n", 2, "'end' outside a dialogue"),
    ("corpus x\ndialogue d1 agents=a,b\nend\n", 3, "dialogue 'd1' has no turns"),
    ("corpus x\nspeaker=a\n", 2, "unknown directive 'speaker=a'"),
    ("# c\n\nturn speaker=a ti=a di=a cues=-\n", 3, "expected 'corpus <name>'"),
    (HEAD + TURN_A + "end\n" + TURN_B, 5, "turn outside a dialogue"),
    (HEAD + "turn cues=- di=a ti=a\n", 3, "missing field 'speaker'"),
    (HEAD + "turn speaker=a cues=- ti=a\n", 3, "missing field 'di'"),
    (HEAD + "turn speaker=a ti=c di=c cues=-\n", 3, "unknown agent 'c' in field 'ti'"),
    (HEAD + "turn di=z ti=a speaker=z cues=-\n", 3, "unknown agent 'z' in field 'speaker'"),
    (HEAD + "turn speaker=a ti=z di=a cues=promptz\n", 3, "unknown agent 'z' in field 'ti'"),
    (HEAD + TURN_B + "turn speaker=b ti=b di=b cues=promptz\n", 4, "speaker 'b' repeats; turns must alternate"),
    (HEAD + "turn speaker=a ti=a di=a cues=question:domain,question:domain,promptz\n", 3,
     "duplicate cue 'question:domain'"),
    # Errors on lines whose cue field already parsed.
    (HEAD + "turn speaker=a ti=a di=a cues=end_silence\nturn speaker=b ti=c di=a cues=end_silence\n", 4,
     "unknown agent 'c' in field 'ti'"),
    (HEAD + "turn speaker=a ti=a di=a cues=end_silence\n" + TURN_B + "turn speaker=b ti=b di=a cues=end_silence\n", 5,
     "speaker 'b' repeats; turns must alternate"),
    (HEAD + "turn speaker=a ti=a di=a cues=end_silence\nturn speaker=b ti=a di=a cues=end_silence,end_silence\n", 4,
     "duplicate cue 'end_silence'"),
    # Errors on lines whose text already parsed.
    (LONG + TURN_B, 203, "speaker 'b' repeats; turns must alternate"),
    (LONG + "end\n" + TURN_A, 204, "turn outside a dialogue"),
    (
        HEAD + "turn speaker=a ti=b di=a cues=-\nend\ndialogue d2 agents=a,c\nturn speaker=a ti=b di=a cues=-\n",
        6,
        "unknown agent 'b' in field 'ti'",
    ),
    (LONG + "turn speaker=a ti=a di=a\n", 203, "missing field 'cues'"),
    (LONG + "turn speaker=a ti=a di=a cues=-,\n", 203, "unknown cue '-'"),
    (LONG + "end\n" + HEAD.split("\n", 1)[1], 204, "duplicate dialogue id 'd1'"),
]


class TestFormatErrors:
    @pytest.mark.parametrize(
        ("text", "line", "message"), FORMAT_ERRORS, ids=[f"{line}:{message}" for _, line, message in FORMAT_ERRORS]
    )
    def test_message_and_line(self, text, line, message):
        with pytest.raises(CorpusFormatError) as exc:
            parse_corpus(text, "t.dti")
        assert (str(exc.value), exc.value.line, exc.value.source) == (f"t.dti:{line}: {message}", line, "t.dti")


# The first dialogue parses both turn lines; the second opens with a new
# line and goes on with one the first dialogue parsed, both spoken by sys.
ALTERNATION = [
    "dialogue d1 agents=sys,usr\nturn speaker=sys ti=sys di=sys cues=-\nturn speaker=usr ti=sys di=sys cues=-\nend\n"
    "dialogue d2 agents=sys,usr\nturn speaker=sys ti=usr di=usr cues=-\nturn speaker=sys ti=sys di=sys cues=-\nend\n",
    "dialogue d1 agents=sys,usr\nturn speaker=sys ti=sys di=sys cues=-\nturn speaker=usr ti=sys di=sys cues=-\nend\n"
    "dialogue d2 agents=sys,usr\nturn speaker=sys ti=sys di=sys cues=-\nturn speaker=sys ti=usr di=usr cues=-\nend\n",
]


class TestFirstSeenLines:
    @pytest.mark.parametrize("body", ALTERNATION, ids=["new-then-parsed", "parsed-then-new"])
    def test_alternation_is_checked_by_value(self, body):
        with pytest.raises(CorpusFormatError) as exc:
            parse_corpus("corpus c\n" + body, "t.dti")
        assert (str(exc.value), exc.value.line) == ("t.dti:8: speaker 'sys' repeats; turns must alternate", 8)

    @settings(max_examples=50, deadline=None)
    @given(generator_configs(cue_dense=True), st.integers(0, 2**16))
    def test_cue_dense_round_trip(self, tmp_path_factory, config, seed):
        corpus = gen_synthetic(config, seed)
        text = format_corpus(corpus)
        assert parse_corpus(text) == corpus
        path = tmp_path_factory.mktemp("dense") / "c.dti"
        path.write_text(text, encoding="utf-8")
        assert load_corpus(path) == corpus

    @settings(max_examples=50, deadline=None)
    @given(synthetic_corpora())
    def test_turns_hold_their_dialogues_agents(self, corpus):
        for parsed in (parse_corpus(format_corpus(corpus)), load_corpus(REPLICA_PATH)):
            pair_agents = {}
            for d in parsed.dialogues:
                assert pair_agents.setdefault(d.agents, d.agents) is d.agents  # one tuple per pair
                for turn in d.turns:
                    for agent in (turn.speaker, turn.hearer, turn.ti_holder, turn.di_holder):
                        assert agent is d.agents[0] or agent is d.agents[1]

    def test_field_order_is_free(self):
        canonical = ("speaker=b", "ti=a", "di=b", "cues=end_silence,question:domain")
        expected = parse_corpus(HEAD + TURN_A + f"turn {' '.join(canonical)}\nend\n")
        for order in itertools.permutations(canonical):
            assert parse_corpus(HEAD + TURN_A + f"turn {' '.join(order)}\nend\n") == expected
        # A reordered line and its canonical form, as turns of one dialogue.
        text = HEAD + TURN_A + "turn speaker=b ti=a di=a cues=-\n" + "turn di=a cues=- ti=a speaker=a\n" + TURN_B + "end\n"
        turns = parse_corpus(text).dialogues[0].turns
        assert turns[2] == turns[0] and turns[3] == turns[1]

    def test_prechecked_turn_is_a_turn(self):
        fields = ("sys", "usr", "usr", "sys", (CueKind.END_SILENCE, CueKind.QUESTION_DOMAIN))
        checked, prechecked = Turn(*fields), Turn._prechecked(*fields)
        assert type(prechecked) is Turn
        assert prechecked == checked and hash(prechecked) == hash(checked)
        assert repr(prechecked) == repr(checked)
        assert vars(prechecked) == vars(checked)
        for clone in (pickle.loads(pickle.dumps(prechecked)), copy.deepcopy(prechecked), copy.copy(prechecked)):
            assert type(clone) is Turn and clone == checked and hash(clone) == hash(checked)
        assert dataclasses.replace(prechecked, ti_holder="sys") == dataclasses.replace(checked, ti_holder="sys")
        with pytest.raises(ValueError, match="initiative holders"):
            dataclasses.replace(prechecked, ti_holder="nobody")
        with pytest.raises(dataclasses.FrozenInstanceError):
            prechecked.speaker = "usr"


class TestLoading:
    def test_parse_lines_as_they_come(self):
        assert parse_corpus(io.StringIO(SAMPLE)) == parse_corpus(SAMPLE)
        with pytest.raises(CorpusFormatError) as exc:
            parse_corpus(io.StringIO(SAMPLE.replace("cues=no_new_info:prompt", "cues=promptz")), "t.dti")
        assert str(exc.value) == "t.dti:4: unknown cue 'promptz'"

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_line_ends(self, tmp_path, end):
        path = tmp_path / "c.dti"
        path.write_bytes(SAMPLE.replace("\n", end).encode())
        assert load_corpus(path) == parse_corpus(SAMPLE)
        bad = SAMPLE.replace("speaker=system", "speaker=manager")
        path.write_bytes(bad.replace("\n", end).encode())
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(path)
        assert str(exc.value) == f"{path}:4: speaker 'manager' repeats; turns must alternate"

    def test_decoding_error_names_its_file_position(self, tmp_path):
        # The bad byte lies past the reader's first chunks and after a malformed
        # line; the error is still the one of decoding the whole file.
        head = b"corpus c\nbogus\n" + b"# filler\n" * 5000
        path = tmp_path / "c.dti"
        path.write_bytes(head + b"\xff\n")
        with pytest.raises(UnicodeDecodeError) as exc:
            load_corpus(path)
        assert exc.value.start == len(head)

    def test_text_is_not_held_whole(self, tmp_path):
        config = GeneratorConfig(dialogues=100, turns_per_dialogue=100, pairs=2,
                                 cue_emit={CueKind.QUESTION_DOMAIN: 0.3, CueKind.NO_NEW_INFO_PROMPT: 0.2},
                                 cue_shift={CueKind.QUESTION_DOMAIN: 0.8})
        corpus = gen_synthetic(config, 3)
        text = format_corpus(corpus)
        path = tmp_path / "c.dti"
        path.write_text(text, encoding="utf-8")
        tracemalloc.start()
        try:
            loaded = load_corpus(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == corpus
        # Reading the file whole would alone take its size, and splitting it more.
        assert peak < len(text) // 2


class TestDistribution:
    def test_replica_cells(self):
        corpus = load_corpus(REPLICA_PATH)
        report = distribution_report(corpus, "system")
        assert report.cells() == (37, 274, 4, 727)
        assert report.total == 1042
        assert report.rounded_percentages() == (3.5, 26.3, 0.4, 69.8)

    def test_degenerate_single_cell(self):
        corpus = make_corpus("x", make_dialogue("d1", ("a", "b"), [("a", "a", ())] * 6))
        report = distribution_report(corpus, "a")
        assert report.cells() == (6, 0, 0, 0)
        assert report.rounded_percentages() == (100.0, 0.0, 0.0, 0.0)

    def test_four_cells_even(self):
        rows = [("a", "a", ()), ("b", "a", ()), ("a", "b", ()), ("b", "b", ())]
        corpus = make_corpus("x", make_dialogue("d1", ("a", "b"), rows))
        report = distribution_report(corpus, "a")
        assert report.cells() == (1, 1, 1, 1)
        assert report.percentages() == (25.0, 25.0, 25.0, 25.0)

    def test_counts_sum_to_total(self):
        corpus = load_corpus(REPLICA_PATH)
        report = distribution_report(corpus, "manager")
        assert sum(report.cells()) == corpus.turn_count

    def test_missing_focus_agent(self):
        corpus = make_corpus("x", make_dialogue("d1", ("a", "b"), [("a", "a", ())]))
        with pytest.raises(ValueError, match="does not appear"):
            distribution_report(corpus, "z")

    def test_largest_remainder_sums_to_100(self):
        pct = largest_remainder_percentages((37, 274, 4, 727))
        assert abs(sum(pct) - 100.0) < 1e-9
        assert pct == (3.5, 26.3, 0.4, 69.8)


class TestPartition:
    def test_eight_pairs(self):
        dialogues = [
            make_dialogue(f"d{i}", (f"p{i}a", f"p{i}b"), [("p%da" % i, "p%da" % i, ())])
            for i in range(8)
        ]
        groups = partition_by_pair(make_corpus("x", *dialogues))
        assert len(groups) == 8
        assert [key for key, _ in groups] == sorted(key for key, _ in groups)

    def test_single_pair(self):
        corpus = make_corpus(
            "x",
            make_dialogue("d1", ("a", "b"), [("a", "a", ())]),
            make_dialogue("d2", ("a", "b"), [("a", "a", ())]),
        )
        groups = partition_by_pair(corpus)
        assert len(groups) == 1
        assert groups[0][1].dialogues == corpus.dialogues

    def test_true_partition(self):
        corpus = make_corpus(
            "x",
            make_dialogue("d1", ("a", "b"), [("a", "a", ())]),
            make_dialogue("d2", ("c", "d"), [("c", "c", ())]),
            make_dialogue("d3", ("a", "b"), [("b", "b", ())]),
        )
        groups = partition_by_pair(corpus)
        regrouped = [d for _, sub in groups for d in sub.dialogues]
        assert sorted(d.id for d in regrouped) == ["d1", "d2", "d3"]
        total = sum(len(sub.dialogues) for _, sub in groups)
        assert total == len(corpus.dialogues)


class TestInvariants:
    def test_turn_validation(self):
        with pytest.raises(ValueError):
            Turn("a", "a", "a", "a", ())
        with pytest.raises(ValueError):
            Turn("a", "b", "c", "a", ())

    @pytest.mark.parametrize(
        "cues", [("x",), [CueKind.END_SILENCE], "end_silence", (CueKind.END_SILENCE, "question:domain")], ids=repr
    )
    def test_cues_must_be_a_tuple_of_cue_kinds(self, cues):
        with pytest.raises(ValueError, match="^cues must be a tuple of CueKind members"):
            Turn("a", "b", "a", "a", cues)
        with pytest.raises(ValueError, match="^duplicate cue in turn$"):
            Turn("a", "b", "a", "a", (CueKind.END_SILENCE,) * 2)

    def test_dialogue_validation(self):
        t1 = Turn("a", "b", "a", "a", ())
        with pytest.raises(ValueError, match="alternate"):
            Dialogue("d", ("a", "b"), (t1, t1))
        with pytest.raises(ValueError, match="no turns"):
            Dialogue("d", ("a", "b"), ())
        with pytest.raises(ValueError, match="foreign agent"):
            Dialogue("d", ("a", "c"), (t1,))
        parsed = parse_corpus(SAMPLE).dialogues[0]
        with pytest.raises(ValueError, match="alternate"):
            dataclasses.replace(parsed, turns=parsed.turns[:1] * 2)

    @pytest.mark.parametrize(
        ("name", "did", "agents", "bad"),
        [
            ("my corpus", "d1", ("a", "b"), "my corpus"),
            ("", "d1", ("a", "b"), ""),
            ("c", "d 1", ("a", "b"), "d 1"),
            ("c", "", ("a", "b"), ""),
            ("c", "d1", ("a", "b\tc"), "b\tc"),
            ("c", "d1", ("a,x", "b"), "a,x"),
            ("c", "d1", ("a", "b\u2028x"), "b\u2028x"),
        ],
    )
    def test_format_rejects_tokens_that_cannot_read_back(self, name, did, agents, bad):
        corpus = make_corpus(name, make_dialogue(did, agents, [(agents[0], agents[0], ())]))
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            format_corpus(corpus)

    def test_agents_may_hold_equals(self):
        # A field splits at its first '=', so "speaker=a=b" names agent "a=b".
        corpus = make_corpus("c", make_dialogue("d1", ("a=b", "="), [("=", "a=b", ())] * 3))
        assert parse_corpus(format_corpus(corpus)) == corpus

    def test_corpus_duplicate_ids(self):
        d = make_dialogue("d1", ("a", "b"), [("a", "a", ())])
        with pytest.raises(ValueError, match="duplicate"):
            Corpus("x", (d, d))


class TestGenerator:
    def test_deterministic(self):
        config = GeneratorConfig(
            dialogues=2,
            turns_per_dialogue=10,
            cue_emit={CueKind.NO_NEW_INFO_PROMPT: 0.4},
            cue_shift={CueKind.NO_NEW_INFO_PROMPT: 0.8},
        )
        a = gen_synthetic(config, 42)
        b = gen_synthetic(config, 42)
        assert format_corpus(a) == format_corpus(b)
        c = gen_synthetic(config, 43)
        assert format_corpus(a) != format_corpus(c)

    def test_shift_rule_certain(self):
        # "a prompt always hands the dialogue initiative to the hearer"
        config = GeneratorConfig(
            dialogues=3,
            turns_per_dialogue=12,
            cue_emit={CueKind.NO_NEW_INFO_PROMPT: 0.5},
            cue_shift={CueKind.NO_NEW_INFO_PROMPT: 1.0},
        )
        corpus = gen_synthetic(config, 7)
        saw_prompt = False
        for dialogue in corpus.dialogues:
            for t in range(len(dialogue.turns) - 1):
                turn = dialogue.turns[t]
                if CueKind.NO_NEW_INFO_PROMPT in turn.cues:
                    saw_prompt = True
                    assert dialogue.turns[t + 1].di_holder == turn.hearer
        assert saw_prompt

    def test_opens_with_speaker_holding(self):
        config = GeneratorConfig(dialogues=4, turns_per_dialogue=5)
        corpus = gen_synthetic(config, 0)
        for dialogue in corpus.dialogues:
            first = dialogue.turns[0]
            assert first.ti_holder == first.speaker
            assert first.di_holder == first.speaker

    def test_invariants_hold(self):
        config = GeneratorConfig(
            dialogues=6,
            turns_per_dialogue=15,
            pairs=3,
            cue_emit={CueKind.END_SILENCE: 0.3, CueKind.QUESTION_DOMAIN: 0.2},
            cue_shift={CueKind.END_SILENCE: 0.5},
            base_shift_dialogue=0.1,
        )
        corpus = gen_synthetic(config, 11)
        assert parse_corpus(format_corpus(corpus)) == corpus
        assert len(partition_by_pair(corpus)) == 3

    def test_bad_config(self):
        with pytest.raises(GeneratorConfigError):
            GeneratorConfig(dialogues=0)
        with pytest.raises(GeneratorConfigError):
            GeneratorConfig(cue_emit={CueKind.END_SILENCE: 1.5})
        with pytest.raises(GeneratorConfigError):
            GeneratorConfig(pairs=9, dialogues=4)
        with pytest.raises(GeneratorConfigError):
            GeneratorConfig(base_shift_task=-0.2)
        for name in ("my corpus", "", "x\ny"):
            with pytest.raises(GeneratorConfigError, match=re.escape(repr(name))):
                GeneratorConfig(name=name)


K = CueKind

# The benchmark's corpus make-up: (cue, emission p, shift p), all 14 cues.
BENCH_CUES = (
    (K.EXPLICIT_GIVEUP, 0.02, 0.95),
    (K.EXPLICIT_TAKEOVER, 0.02, 0.95),
    (K.END_SILENCE, 0.03, 0.90),
    (K.NO_NEW_INFO_REPETITION, 0.04, 0.85),
    (K.NO_NEW_INFO_PROMPT, 0.05, 0.90),
    (K.QUESTION_DOMAIN, 0.05, 0.90),
    (K.QUESTION_EVALUATION, 0.03, 0.85),
    (K.OBLIGATION_FULFILLED_TASK, 0.04, 0.90),
    (K.OBLIGATION_FULFILLED_DISCOURSE, 0.05, 0.85),
    (K.INVALIDITY_ACTION, 0.03, 0.90),
    (K.INVALIDITY_BELIEF, 0.03, 0.85),
    (K.SUBOPTIMALITY, 0.02, 0.85),
    (K.AMBIGUITY_ACTION, 0.03, 0.85),
    (K.AMBIGUITY_BELIEF, 0.03, 0.85),
)


def bench_config(name: str, dialogues: int) -> GeneratorConfig:
    return GeneratorConfig(
        name=name, dialogues=dialogues, turns_per_dialogue=130, pairs=8,
        cue_emit={k: emit for k, emit, _ in BENCH_CUES}, cue_shift={k: shift for k, _, shift in BENCH_CUES},
        base_shift_task=0.005, base_shift_dialogue=0.01,
    )


# Pure noise cues (suboptimality and invalidity:belief have no shift entry),
# shift entries never emitted (explicit_takeover; end_silence at emission p 0),
# dialogue-only cues, probabilities of exactly 0 and 1, and one base shift at 0
# with the other above 0.
NOISE_CONFIG = GeneratorConfig(
    name="noise", dialogues=12, turns_per_dialogue=40, pairs=3,
    cue_emit={K.EXPLICIT_GIVEUP: 0.3, K.QUESTION_DOMAIN: 0.4, K.SUBOPTIMALITY: 0.25, K.AMBIGUITY_BELIEF: 1.0,
              K.END_SILENCE: 0.0, K.INVALIDITY_BELIEF: 0.2},
    cue_shift={K.EXPLICIT_GIVEUP: 0.8, K.QUESTION_DOMAIN: 1.0, K.AMBIGUITY_BELIEF: 0.0, K.END_SILENCE: 1.0,
               K.EXPLICIT_TAKEOVER: 0.9},
    base_shift_task=0.1, base_shift_dialogue=0.0,
)


def oracle_corpus(config: GeneratorConfig, seed: int) -> Corpus:
    dialogues = synthetic_dialogues(
        dialogues=config.dialogues,
        turns_per_dialogue=config.turns_per_dialogue,
        pairs=config.pairs,
        cue_emit={k.value: p for k, p in config.cue_emit.items()},
        cue_shift={k.value: p for k, p in config.cue_shift.items()},
        base_shift_task=config.base_shift_task,
        base_shift_dialogue=config.base_shift_dialogue,
        seed=seed,
    )
    return plain_to_corpus(config.name, dialogues)


class TestGeneratorDrawOrder:
    @settings(max_examples=200, deadline=None)
    @given(generator_configs(), st.integers(0, 2**16))
    @example(NOISE_CONFIG, 5)
    @example(README_CONFIG, 7)
    @example(GeneratorConfig(cue_emit={K.QUESTION_EVALUATION: 1.0}, cue_shift={K.QUESTION_EVALUATION: 1.0},
                             base_shift_task=1.0, base_shift_dialogue=1.0), 0)
    def test_matches_oracle(self, config, seed):
        assert format_corpus(gen_synthetic(config, seed)) == format_corpus(oracle_corpus(config, seed))

    # sha256 of format_corpus(gen_synthetic(config, seed)), fixed before the
    # generator shared its turns.
    @pytest.mark.parametrize(
        ("config", "seed", "digest"),
        [
            (bench_config("grid", 77), 0, "2824dd9ae175a0969e8ade3b827544f2f477353222382f7e16db7dbf8663ccf2"),
            (bench_config("eval", 770), 1, "36f0d4963909c46ba41ecad8d15385b70a034f926452ee2ac819ae584e35d818"),
            (README_CONFIG, 7, "e96b617ac63c1ff20203aad3b8fc99b8877a435ec57471bf19fe84a7599d6174"),
            (NOISE_CONFIG, 5, "90e390f71cbb68ee28c2bb8ae955f6470e3a41d7976965e15bdb23f08f2e810e"),
        ],
        ids=["train-grid", "eval-100k", "readme", "noise"],
    )
    def test_pinned_output(self, config, seed, digest):
        text = format_corpus(gen_synthetic(config, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @settings(max_examples=100, deadline=None)
    @given(synthetic_corpora())
    def test_equal_turns_are_shared(self, corpus):
        turns = [(d.agents, turn) for d in corpus.dialogues for turn in d.turns]
        assert len({id(turn) for _, turn in turns}) == len(
            {(agents, t.speaker, t.ti_holder, t.di_holder, t.cues) for agents, t in turns}
        )
        for d in corpus.dialogues:
            assert Dialogue(d.id, d.agents, d.turns) == d


# ---------------------------------------------------------------------------
# Prediction points

_BOTH = {spec.kind for spec in canonical_specs() if spec.effect is CueEffect.BOTH}


def straight_points(dialogue: Dialogue) -> list[tuple]:
    """Each point as track and the analysis passes read it, derived turn by turn from TABLE_INDEX."""
    points = []
    for t in range(len(dialogue.turns) - 1):
        turn, nxt = dialogue.turns[t], dialogue.turns[t + 1]
        task = tuple(TABLE_INDEX[k, Dimension.TASK] for k in turn.cues if k in _BOTH)
        dialogue_tables = tuple(TABLE_INDEX[k, Dimension.DIALOGUE] for k in turn.cues)
        key = (
            (nxt.ti_holder == turn.ti_holder)
            + 2 * (nxt.di_holder == turn.di_holder)
            + 4 * (turn.ti_holder == turn.speaker)
            + 8 * (turn.di_holder == turn.speaker)
            + 16 * sum(2**i for i in dialogue_tables)
        )
        points.append((task, dialogue_tables, nxt.ti_holder == turn.speaker, nxt.di_holder == turn.speaker, key))
    return points


class TestPoints:
    @settings(max_examples=150, deadline=None)
    @given(generator_configs(), st.integers(0, 2**16))
    def test_points_are_the_straight_derivation(self, config, seed):
        generated, parsed, constructed = corpus_forms(gen_synthetic(config, seed))
        assert constructed == generated == parsed
        for corpus in (generated, parsed, constructed):
            for dialogue in corpus.dialogues:
                assert list(dialogue.points) == straight_points(dialogue)
                assert dialogue.points is dialogue.points
        for a, b in zip(parsed.dialogues, constructed.dialogues):
            for parsed_turn, turn in zip(a.turns, b.turns):
                assert parsed_turn == turn and parsed_turn.point_table == turn.point_table

    def test_table_of_a_cue_list(self):
        cues = (CueKind.QUESTION_DOMAIN, CueKind.NO_NEW_INFO_PROMPT)
        prompt = TABLE_INDEX[CueKind.NO_NEW_INFO_PROMPT, Dimension.TASK]
        dialogue_tables = tuple(TABLE_INDEX[k, Dimension.DIALOGUE] for k in cues)
        assert dialogue_tables == (10, 9)
        mask = (2**10 + 2**9) * 16
        # [TI now is speaker][DI now is speaker][TI next is speaker][DI next is speaker]; the
        # key's low bits are TI stays, DI stays, TI now is speaker, DI now is speaker.
        keys = [[[3, 1], [2, 0]], [[9, 11], [8, 10]]], [[[6, 4], [7, 5]], [[12, 14], [13, 15]]]
        for ti_now, di_now, ti, di in itertools.product((False, True), repeat=4):
            key = keys[ti_now][di_now][ti][di]
            assert point_table(cues)[ti_now][di_now][ti][di] == ((prompt,), dialogue_tables, ti, di, mask + key)
            assert point_table(())[ti_now][di_now][ti][di] == ((), (), ti, di, key)

    def test_derived_field_takes_no_part_in_equality_or_repr(self):
        turn = Turn("a", "b", "a", "b", (CueKind.END_SILENCE,))
        assert repr(turn) == "Turn(speaker='a', hearer='b', ti_holder='a', di_holder='b', cues=(<CueKind.END_SILENCE: 'end_silence'>,))"
        # The sub-table for the turn's holders: TI with its speaker, DI with its hearer.
        assert turn.point_table == point_table(turn.cues)[True][False]
        changed = dataclasses.replace(turn, cues=(CueKind.QUESTION_DOMAIN, CueKind.SUBOPTIMALITY))
        assert changed.point_table == point_table((CueKind.QUESTION_DOMAIN, CueKind.SUBOPTIMALITY))[True][False]
        for ti, di in itertools.product("ab", repeat=2):
            moved = dataclasses.replace(turn, ti_holder=ti, di_holder=di)
            assert moved.point_table == point_table(turn.cues)[ti == "a"][di == "a"]
        assert dataclasses.replace(changed, cues=turn.cues) == turn
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(turn, point_table=point_table(()))

    def test_copies_and_pickles_leave_out_the_points(self):
        corpus = gen_synthetic(README_CONFIG, 7)
        config = TrackerConfig()
        trained = train(corpus, config)
        run = evaluate(corpus, trained.model, config)
        assert all("points" in vars(d) for d in corpus.dialogues)
        for dialogue in corpus.dialogues:
            for clone in (pickle.loads(pickle.dumps(dialogue)), copy.copy(dialogue), copy.deepcopy(dialogue)):
                assert "points" not in vars(clone) and clone == dialogue
                assert clone.points == dialogue.points
        for clone in (pickle.loads(pickle.dumps(run)), copy.copy(run), copy.deepcopy(run)):
            assert clone == run
            if clone.dialogues is not run.dialogues:  # copy.copy shares them
                assert all("points" not in vars(d) for d in clone.dialogues)
            restored = Corpus(corpus.name, clone.dialogues)
            retrained = train(restored, config, init_model())
            assert retrained.run == trained.run and format_model(retrained.model) == format_model(trained.model)
            assert evaluate(restored, retrained.model, config) == run
