import io
import os
import re
import shutil
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, given, note, settings, strategies as st

import initrack
from initrack.cli import main
from initrack.corpus import GeneratorConfig, format_corpus, gen_synthetic, load_corpus, save_corpus
from initrack.cues import CueKind, format_model, init_model, load_model, save_model
from initrack.evalstats import baseline_run, evaluate
from initrack.evidence import MassFunction
from initrack.tracker import AdjustmentMethod, TrackerConfig, sweep, sweep_csv, train

GOOD = """\
corpus demo
dialogue d1 agents=system,manager
turn speaker=manager ti=manager di=manager cues=question:domain
turn speaker=system ti=manager di=manager cues=no_new_info:prompt
end
"""

BAD = GOOD.replace("cues=no_new_info:prompt", "cues=promptz")

# The README quick-start corpus (200 turns): const training on it meets
# total conflict.
README_GEN = ["gen-synthetic", "--seed", "7", "--dialogues", "8", "--turns", "25", "--pairs", "4",
              "--cue-emit", "no_new_info:prompt=0.35", "--cue-shift", "no_new_info:prompt=0.9"]

# Corpora the parser accepts but on which no prediction is made: no dialogue
# at all, and dialogues of one turn each.
NO_POINT_CORPORA = {
    "no-dialogue": "corpus x\n",
    "one-turn": (
        "corpus x\n"
        "dialogue d1 agents=a,b\nturn speaker=a ti=a di=a cues=-\nend\n"
        "dialogue d2 agents=c,d\nturn speaker=c ti=c di=c cues=-\nend\n"
    ),
}

SUBCOMMANDS = [
    "validate",
    "distribution",
    "train",
    "eval",
    "baseline",
    "xval",
    "sweep",
    "report-errors",
    "compare",
    "kappa",
    "cochran-q",
    "gen-synthetic",
]


@pytest.fixture
def good_corpus(tmp_path):
    path = tmp_path / "good.dti"
    path.write_text(GOOD, encoding="utf-8")
    return path


@pytest.fixture
def synth_corpus(tmp_path):
    config = GeneratorConfig(
        dialogues=6,
        turns_per_dialogue=12,
        pairs=3,
        cue_emit={CueKind.NO_NEW_INFO_PROMPT: 0.4},
        cue_shift={CueKind.NO_NEW_INFO_PROMPT: 0.9},
    )
    path = tmp_path / "synth.dti"
    save_corpus(gen_synthetic(config, 9), path)
    return path


class TestUsage:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_smoke(self, command, capsys):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--" in out or command == "validate"

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 64
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["validate"]) == 64

    def test_no_args(self):
        assert main([]) == 64

    @pytest.mark.parametrize("command", ["eval", "report-errors", "compare"])
    @pytest.mark.parametrize("flag", [["--delta", "0.35"], ["--method", "const"]])
    def test_frozen_commands_take_no_training_flags(self, command, flag, good_corpus, tmp_path, capsys):
        focus = ["--focus-agent", "manager"] if command == "compare" else []
        argv = [command, "--corpus", str(good_corpus), "--model", str(tmp_path / "m.model"), *focus, *flag]
        assert main(argv) == 64
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestValidate:
    def test_ok(self, good_corpus, capsys):
        assert main(["validate", "--corpus", str(good_corpus)]) == 0
        assert "2 turns" in capsys.readouterr().out

    def test_bad_exit_2_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.dti"
        path.write_text(BAD, encoding="utf-8")
        assert main(["validate", "--corpus", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad.dti:4" in err
        assert "promptz" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--corpus", str(tmp_path / "nope.dti")]) == 2


class TestTrainEval:
    def test_train_writes_model(self, good_corpus, tmp_path, capsys):
        model_path = tmp_path / "out.model"
        code = main(
            [
                "train",
                "--corpus",
                str(good_corpus),
                "--delta",
                "0.35",
                "--method",
                "const-counter",
                "--model",
                str(model_path),
            ]
        )
        assert code == 0
        assert model_path.exists()
        captured = capsys.readouterr()
        assert "task" in captured.out
        assert "wrote model" in captured.err

    def test_train_deterministic_bytes(self, synth_corpus, tmp_path):
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        assert main(["train", "--corpus", str(synth_corpus), "--model", str(a)]) == 0
        assert main(["train", "--corpus", str(synth_corpus), "--model", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_eval_round_trip(self, synth_corpus, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        main(["train", "--corpus", str(synth_corpus), "--model", str(model_path)])
        capsys.readouterr()
        assert main(["eval", "--corpus", str(synth_corpus), "--model", str(model_path), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("dim,correct,total,accuracy")

    def test_eval_teacher_forcing_flag(self, synth_corpus, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        main(["train", "--corpus", str(synth_corpus), "--model", str(model_path)])
        capsys.readouterr()
        assert (
            main(
                [
                    "eval",
                    "--corpus",
                    str(synth_corpus),
                    "--model",
                    str(model_path),
                    "--teacher-forcing",
                    "false",
                ]
            )
            == 0
        )

    def test_bad_delta_is_validation_error(self, good_corpus, capsys):
        assert main(["train", "--corpus", str(good_corpus), "--delta", "1.5"]) == 2


class TestReports:
    def test_distribution_text_and_csv(self, good_corpus, capsys):
        assert main(["distribution", "--corpus", str(good_corpus), "--focus-agent", "manager"]) == 0
        out = capsys.readouterr().out
        assert "focus agent manager" in out
        assert main(
            ["distribution", "--corpus", str(good_corpus), "--focus-agent", "manager", "--format", "csv"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("ti,di,count,pct")

    def test_baseline(self, good_corpus, capsys):
        assert main(["baseline", "--corpus", str(good_corpus)]) == 0
        assert "baseline:" in capsys.readouterr().out

    def test_xval(self, synth_corpus, capsys):
        assert main(["xval", "--corpus", str(synth_corpus), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fold,dim,correct,total,accuracy")
        assert "all,task," in out

    def test_sweep_default_grid(self, good_corpus, capsys):
        assert main(["sweep", "--corpus", str(good_corpus), "--method", "const"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "delta,task_accuracy,dialogue_accuracy"
        assert len(lines) == 20
        assert lines[1].startswith("0.025,")
        assert lines[-1].startswith("0.475,")

    def test_sweep_custom_grid(self, good_corpus, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--corpus",
                    str(good_corpus),
                    "--method",
                    "const",
                    "--sweep-from",
                    "0.1",
                    "--sweep-to",
                    "0.3",
                    "--sweep-step",
                    "0.1",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4

    def test_sweep_failure_names_delta_and_method(self, tmp_path, capsys):
        # const training on the README corpus breaks down at 0.1.
        demo = tmp_path / "demo.dti"
        assert main([*README_GEN, "--out", str(demo)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--corpus", str(demo), "--method", "const"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: delta=0.1 method=const: masses must sum to 1, got ")

    @pytest.mark.parametrize("flag", ["--sweep-from", "--sweep-to", "--sweep-step"])
    def test_sweep_non_finite_grid_exit_2(self, good_corpus, flag, capsys):
        assert main(["sweep", "--corpus", str(good_corpus), "--method", "const", flag, "nan"]) == 2
        assert capsys.readouterr().err == "error: delta grid bounds and step must be finite\n"

    def test_sweep_takes_no_delta(self, good_corpus, capsys):
        # The grid sets every delta, so a --delta would be read by no run.
        assert main(["sweep", "--corpus", str(good_corpus), "--delta", "0.3"]) == 64
        assert "unrecognized arguments: --delta 0.3" in capsys.readouterr().err

    def test_unknown_flag_shows_the_subcommand_usage(self, good_corpus, capsys):
        assert main(["sweep", "--corpus", str(good_corpus), "--delta", "1.5"]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage: initrack sweep ")
        assert err.endswith("initrack sweep: error: unrecognized arguments: --delta 1.5\n")

    def test_sweep_zero_step_exit_2(self, good_corpus, capsys):
        assert main(["sweep", "--corpus", str(good_corpus), "--sweep-step", "0"]) == 2
        assert capsys.readouterr().err == "error: delta grid step must be positive, got 0.0\n"

    def test_sweep_grid_too_fine_exit_2(self, good_corpus, capsys):
        assert main(["sweep", "--corpus", str(good_corpus), "--sweep-step", "1e-300"]) == 2
        assert capsys.readouterr().err == "error: delta grid would have more than 10000 points\n"

    def test_sweep_empty_grid_exit_2(self, good_corpus, capsys):
        assert main(["sweep", "--corpus", str(good_corpus), "--sweep-from", "0.3", "--sweep-to", "0.1"]) == 2
        assert capsys.readouterr().err == "error: sweep requires at least one delta\n"

    def test_sweep_runs_the_library_config(self, tmp_path, capsys):
        demo = tmp_path / "demo.dti"
        assert main([*README_GEN, "--out", str(demo)]) == 0
        argv = ["sweep", "--corpus", str(demo), "--xval", "--method", "var-counter",
                "--default-x", "0.7", "--reset-strength", "0.6"]
        capsys.readouterr()
        assert main(argv) == 0
        config = TrackerConfig(method=AdjustmentMethod.VARIABLE_INCREMENT_WITH_COUNTER, default_x=0.7, reset_strength=0.6)
        assert capsys.readouterr().out == sweep_csv(sweep(load_corpus(demo), config, cross_validated=True))

    def test_report_errors(self, synth_corpus, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        main(["train", "--corpus", str(synth_corpus), "--model", str(model_path)])
        capsys.readouterr()
        assert (
            main(
                [
                    "report-errors",
                    "--corpus",
                    str(synth_corpus),
                    "--model",
                    str(model_path),
                    "--format",
                    "csv",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.startswith("cue,dim,shift_err,shift_tot,noshift_err,noshift_tot")
        assert len(out.strip().split("\n")) == 29

    def test_compare(self, synth_corpus, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        main(["train", "--corpus", str(synth_corpus), "--model", str(model_path)])
        capsys.readouterr()
        assert (
            main(
                [
                    "compare",
                    "--corpus",
                    str(synth_corpus),
                    "--model",
                    str(model_path),
                    "--focus-agent",
                    "a0",
                    "--format",
                    "csv",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.startswith("corpus,dim,expert_pct,baseline_pct,trained_pct,improvement_pts")

    def test_compare_unknown_focus_agent_exit_2(self, synth_corpus, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        main(["train", "--corpus", str(synth_corpus), "--model", str(model_path)])
        capsys.readouterr()
        argv = ["compare", "--corpus", str(synth_corpus), "--model", str(model_path), "--focus-agent", "nobody"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: agent 'nobody' takes part in no dialogue of corpus 'synthetic' ({synth_corpus})\n"

    def test_out_file(self, good_corpus, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        assert (
            main(["sweep", "--corpus", str(good_corpus), "--method", "const", "--out", str(out_path)]) == 0
        )
        assert capsys.readouterr().out == ""
        assert out_path.read_text().startswith("delta,")


class TestWarnings:
    @pytest.mark.parametrize(
        "argv, deltas",
        [
            (["train", "--delta", "0.5"], ["0.5"]),
            (["sweep", "--sweep-from", "0.5", "--sweep-to", "0.6", "--sweep-step", "0.1"], ["0.5", "0.6"]),
        ],
        ids=["train", "sweep"],
    )
    def test_one_line_per_warning(self, argv, deltas, good_corpus, capsys):
        handler = warnings.showwarning
        assert main([*argv, "--corpus", str(good_corpus)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "".join(f"warning: delta={d} is outside the recommended (0, 0.5) range\n" for d in deltas)
        assert captured.out
        assert warnings.showwarning is handler


class TestNoPredictionPoint:
    @pytest.mark.parametrize("corpus_text", NO_POINT_CORPORA.values(), ids=NO_POINT_CORPORA.keys())
    @pytest.mark.parametrize(
        "command",
        [
            ["train", "--model", "{out}"],
            ["eval", "--model", "{model}"],
            ["baseline"],
            ["xval"],
            ["sweep"],
            ["sweep", "--xval"],
            ["report-errors", "--model", "{model}"],
            ["compare", "--model", "{model}", "--focus-agent", "a"],
        ],
        ids=["train", "eval", "baseline", "xval", "sweep", "sweep-xval", "report-errors", "compare"],
    )
    def test_exit_3(self, command, corpus_text, tmp_path, capsys):
        corpus_path = tmp_path / "c.dti"
        corpus_path.write_text(corpus_text, encoding="utf-8")
        model_path, out_path = tmp_path / "m.model", tmp_path / "trained.model"
        save_model(init_model(), model_path)
        argv = [arg.format(model=model_path, out=out_path) for arg in command]
        assert main([*argv, "--corpus", str(corpus_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: corpus 'x' ({corpus_path}) has no prediction point: no dialogue has two turns\n"
        )
        assert not out_path.exists()

    def test_xval_held_out_pair_without_point_exit_3(self, tmp_path, capsys):
        corpus_path = tmp_path / "c.dti"
        corpus_path.write_text(
            "corpus x\n"
            "dialogue d1 agents=a,b\nturn speaker=a ti=a di=a cues=-\nturn speaker=b ti=a di=b cues=-\nend\n"
            "dialogue d2 agents=c,d\nturn speaker=c ti=c di=c cues=-\nend\n",
            encoding="utf-8",
        )
        assert main(["xval", "--corpus", str(corpus_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: corpus 'x[c,d]' ({corpus_path}) has no prediction point: no dialogue has two turns\n"
        )


class TestStatistics:
    def test_kappa_file(self, tmp_path, capsys):
        path = tmp_path / "ratings.txt"
        path.write_text("x x x\nx x y\n", encoding="utf-8")
        assert main(["kappa", "--ratings", str(path)]) == 0
        assert "kappa = -0.2" in capsys.readouterr().out

    def test_kappa_degenerate_exit_3(self, tmp_path, capsys):
        path = tmp_path / "ratings.txt"
        path.write_text("x x\nx x\n", encoding="utf-8")
        assert main(["kappa", "--ratings", str(path)]) == 3

    def test_cochran_file(self, tmp_path, capsys):
        path = tmp_path / "outcomes.txt"
        path.write_text("1 1\n1 0\n0 0\n", encoding="utf-8")
        assert main(["cochran-q", "--outcomes", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Q = 1.000000" in out
        assert "df = 1" in out

    @pytest.mark.parametrize(
        "rows, expected",
        [
            # Odd df: the erfc branch of the chi-square tail.
            ("1 0/1 0/1 0/0 1/1 1/0 0/1 0", "Q = 1.800000, df = 1, p = 0.179712\n"),
            # Even df: the exponential-sum branch.
            ("1 0 0/1 1 0/1 0 1/0 1 0/1 1 1/0 0 0/1 1 0/1 0 0", "Q = 4.000000, df = 2, p = 0.135335\n"),
        ],
    )
    def test_cochran_exact_lines(self, tmp_path, capsys, rows, expected):
        path = tmp_path / "outcomes.txt"
        path.write_text(rows.replace("/", "\n") + "\n", encoding="utf-8")
        assert main(["cochran-q", "--outcomes", str(path)]) == 0
        assert capsys.readouterr().out == expected

    def test_cochran_ragged_rows_exit_2(self, tmp_path, capsys):
        path = tmp_path / "outcomes.txt"
        path.write_text("1 1\n1 0 1\n", encoding="utf-8")
        assert main(["cochran-q", "--outcomes", str(path)]) == 2
        assert "same number of treatments" in capsys.readouterr().err


class TestGenSynthetic:
    def test_deterministic_output(self, capsys):
        argv = [
            "gen-synthetic",
            "--seed",
            "5",
            "--dialogues",
            "2",
            "--turns",
            "10",
            "--cue-emit",
            "no_new_info:prompt=0.4",
            "--cue-shift",
            "no_new_info:prompt=0.9",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("corpus synthetic")

    def test_generated_corpus_validates(self, tmp_path, capsys):
        out_path = tmp_path / "gen.dti"
        assert main(["gen-synthetic", "--seed", "1", "--out", str(out_path)]) == 0
        assert main(["validate", "--corpus", str(out_path)]) == 0

    def test_defaults_are_the_library_defaults(self, capsys):
        assert main(["gen-synthetic", "--seed", "0"]) == 0
        assert capsys.readouterr().out == format_corpus(gen_synthetic(GeneratorConfig(), 0))

    def test_bad_cue_kind(self, capsys):
        assert main(["gen-synthetic", "--cue-emit", "nope=0.5"]) == 2

    def test_bad_probability(self, capsys):
        assert main(["gen-synthetic", "--cue-emit", "end_silence=1.5"]) == 2

    @pytest.mark.parametrize("name", ["my corpus", ""])
    def test_name_that_cannot_read_back(self, tmp_path, capsys, name):
        out_path = tmp_path / "x.dti"
        assert main(["gen-synthetic", "--name", name, "--out", str(out_path)]) == 2
        assert repr(name) in capsys.readouterr().err
        assert not out_path.exists()


def test_cli_import_loads_no_importlib_resources():
    src = str(Path(initrack.__file__).resolve().parent.parent)
    code = "import initrack.cli, sys; print('importlib.resources' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_validate_replica_from_a_copied_package(tmp_path):
    package = Path(initrack.__file__).resolve().parent
    shutil.copytree(package, tmp_path / "lib" / "initrack", ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "lib")}

    def run(*args: str) -> str:
        return subprocess.run(
            [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True, check=True
        ).stdout

    replica = run("-c", "from initrack import REPLICA_PATH; print(REPLICA_PATH)").strip()
    assert Path(replica).is_relative_to(tmp_path / "lib" / "initrack")
    out = run("-m", "initrack.cli", "validate", "--corpus", replica)
    assert out == "ok: corpus replica_trains91: 8 dialogues, 1042 turns\n"


# ---------------------------------------------------------------------------
# One property over the whole CLI: every accepted or rejected input ends in a
# named exit code.


def _values(typical, odd):
    """Flag values, half of them typical and half boundary or malformed."""
    return st.sampled_from(typical) | st.sampled_from(odd)


_FLOATS = _values(["0.025", "0.1", "0.35", "0.75"], ["nan", "inf", "-inf", "0", "1", "-1", "1e-300", "x"])
_INTS = _values(["1", "2", "3"], ["0", "-1", "1.5", "x"])
_FORMATS = _values(["text", "csv"], ["json"])
_BOOLS = _values(["true", "false"], ["1", "off", "maybe"])
_CUE_ENTRIES = st.sampled_from(
    ["end_silence=0.5", "question:domain=1", "no_new_info:prompt=0", "nope=0.5", "end_silence=nan",
     "end_silence=1.5", "end_silence=-0.1", "end_silence", "=0.5", "end_silence=1e-300"]
)


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """The directory of small input files that the CLI property draws from."""
    root = tmp_path_factory.mktemp("cli_property")
    corpora = {
        "zero-point": "corpus x\n",
        "one-pair": format_corpus(gen_synthetic(GeneratorConfig(dialogues=3, turns_per_dialogue=10), 1)),
        "cue-dense": format_corpus(gen_synthetic(GeneratorConfig(
            dialogues=4, turns_per_dialogue=15, pairs=2,
            cue_emit={kind: 0.5 for kind in list(CueKind)[:8]},
            cue_shift={CueKind.QUESTION_DOMAIN: 0.9, CueKind.END_SILENCE: 0.8},
        ), 2)),
        "unknown-cue": BAD,
    }
    for name, text in corpora.items():
        (root / f"{name}.dti").write_text(text, encoding="utf-8")
    assert main([*README_GEN, "--out", str(root / "saturating.dti")]) == 0
    save_model(init_model(), root / "vacuous.model")
    saturated = init_model()
    saturated.params[CueKind.NO_NEW_INFO_PROMPT].dialogue_bpa = MassFunction(0.0, 1.0, 0.0)
    save_model(saturated, root / "saturated.model")
    (root / "broken.model").write_text("not a model\n", encoding="utf-8")
    for name, text in {
        "ratings": "x x x\nx x y\n", "ratings-same": "x x\nx x\n", "ratings-ragged": "x x\nx\n",
        "outcomes": "1 1\n1 0\n0 0\n", "outcomes-same": "1 1\n1 1\n", "outcomes-bad": "1 2\n0 x\n", "empty": "",
    }.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def _cli_flags(root: Path) -> dict:
    """Each subcommand's flags: (flag, value strategy or None for a switch, required)."""
    corpora = st.sampled_from(sorted(str(p) for p in root.glob("*.dti")) + [str(root / "missing.dti")])
    models = st.sampled_from([str(root / m) for m in ("vacuous.model", "saturated.model", "broken.model", "none.model")])
    index = [("--default-x", _FLOATS, False), ("--reset-strength", _FLOATS, False)]
    method = [("--method", _values(["const", "const-counter", "var-counter"], ["constant"]), False), *index]
    tracker = [("--delta", _FLOATS, False), *method]
    output = [("--format", _FORMATS, False), ("--out", st.just(str(root / "out.txt")), False)]
    focus = ("--focus-agent", st.sampled_from(["a0", "a1", "manager", "nobody"]), True)
    frozen = [("--corpus", corpora, True), ("--model", models, True), ("--teacher-forcing", _BOOLS, False), *index, *output]
    return {
        "validate": [("--corpus", corpora, True)],
        "distribution": [("--corpus", corpora, True), focus, *output],
        "train": [("--corpus", corpora, True), ("--model", st.just(str(root / "trained.model")), False), *tracker, *output],
        "eval": frozen,
        "baseline": [("--corpus", corpora, True), *output],
        "xval": [("--corpus", corpora, True), ("--teacher-forcing", _BOOLS, False), *tracker, *output],
        "sweep": [
            ("--corpus", corpora, True),
            ("--sweep-from", _values(["0.025", "0.1"], ["0", "1e-300", "nan", "-inf"]), False),
            ("--sweep-to", _values(["0.2", "0.475"], ["1", "inf", "x"]), False),
            ("--sweep-step", _values(["0.025", "0.1"], ["0.5", "0", "-0.1", "1e-300", "nan"]), False),
            ("--xval", None, False),
            *method,
            *output,
        ],
        "report-errors": frozen,
        "compare": [*frozen, ("--corpus", corpora, False), focus],
        "kappa": [("--ratings", st.sampled_from([str(root / f) for f in ("ratings", "ratings-same", "ratings-ragged", "empty")]), True), *output],
        "cochran-q": [("--outcomes", st.sampled_from([str(root / f) for f in ("outcomes", "outcomes-same", "outcomes-bad", "empty")]), True), *output],
        "gen-synthetic": [
            ("--seed", _INTS, False),
            ("--name", st.sampled_from(["synthetic", "x", "my corpus", ""]), False),
            ("--dialogues", _INTS, False),
            ("--turns", _INTS, False),
            ("--pairs", _INTS, False),
            ("--cue-emit", _CUE_ENTRIES, False),
            ("--cue-shift", _CUE_ENTRIES, False),
            ("--base-shift-task", _FLOATS, False),
            ("--base-shift-dialogue", _FLOATS, False),
            ("--out", st.just(str(root / "out.txt")), False),
        ],
    }


def _printed_counts(report: str) -> tuple[int, int, int]:
    """(task correct, dialogue correct, points) from an accuracy report, text or csv."""
    if report.startswith("dim,"):
        (task, t_correct, t_total, _), (dialogue, d_correct, d_total, _) = (
            line.split(",") for line in report.splitlines()[1:])
        assert (task, dialogue) == ("task", "dialogue")
    else:
        t_correct, t_total, d_correct, d_total = re.fullmatch(
            r"\w+: task (\d+)/(\d+) \([^)]*\), dialogue (\d+)/(\d+) \([^)]*\)\n", report).groups()
    assert t_total == d_total
    return int(t_correct), int(d_correct), int(t_total)


def _library_counts(argv: list[str]) -> tuple[int, int, int]:
    """What `baseline_run`, `train` or `evaluate` counts on the inputs of a baseline, train or eval command."""
    command, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    corpus = load_corpus(opts["--corpus"])
    if command == "baseline":
        run = baseline_run(corpus)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # delta >= 0.5
            config = TrackerConfig(
                delta=float(opts.get("--delta", TrackerConfig.delta)),
                method=AdjustmentMethod(opts.get("--method", TrackerConfig.method.value)),
                default_x=float(opts.get("--default-x", TrackerConfig.default_x)),
                reset_strength=float(opts.get("--reset-strength", TrackerConfig.reset_strength)),
            )
        if command == "train":
            result = train(corpus, config)
            if "--model" in opts:
                assert Path(opts["--model"]).read_text(encoding="utf-8") == format_model(result.model)
            run = result.run
        else:
            teacher_forcing = opts.get("--teacher-forcing", "true").lower() in ("true", "1", "yes", "on")
            run = evaluate(corpus, load_model(opts["--model"]), config, teacher_forcing=teacher_forcing)
    return run.task_correct, run.dialogue_correct, run.predictions


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ["baseline", "--corpus", "cue-dense.dti"],
        ["train", "--corpus", "cue-dense.dti", "--method", "const-counter", "--delta", "0.2", "--model", "t.model"],
        ["train", "--corpus", "cue-dense.dti", "--method", "var-counter", "--delta", "0.35",
         "--default-x", "0.3", "--reset-strength", "0.1"],
        ["eval", "--corpus", "cue-dense.dti", "--model", "vacuous.model"],
        ["eval", "--corpus", "one-pair.dti", "--model", "saturated.model", "--teacher-forcing", "false"],
        ["eval", "--corpus", "cue-dense.dti", "--model", "vacuous.model", "--teacher-forcing", "off",
         "--default-x", "0.3", "--reset-strength", "0.6"],
    ],
    ids=["baseline", "train", "train-index", "eval", "eval-closed-loop", "eval-index"],
)
def test_zero_exit_prints_the_library_counts(cli_inputs, argv, fmt, capsys):
    argv = [str(cli_inputs / arg) if arg.endswith((".dti", ".model")) else arg for arg in argv]
    assert main([*argv, "--format", fmt]) == 0
    assert _printed_counts(capsys.readouterr().out) == _library_counts(argv)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_input_ends_in_a_named_exit_code(cli_inputs, data):
    """Exit 0, 2, 3 or 64, never 1; no traceback; stdout empty unless exit 0, and no nan then.

    A zero exit of baseline, train or eval prints the counts that
    `baseline_run`, `train` or `evaluate` give on the same inputs, and
    train's --model file holds the model that `train` returns.

    Saturating inputs may exit 2 with "cannot combine totally conflicting
    mass functions" or "masses must sum to 1": tracking is not yet total.
    """
    flags = _cli_flags(cli_inputs)
    command = data.draw(st.sampled_from(sorted(flags)), label="command")
    argv = [command]
    for flag, values, required in flags[command]:
        if required or data.draw(st.integers(0, 2)) == 0:
            argv += [flag] if values is None else [flag, data.draw(values)]
    if data.draw(st.integers(0, 30)) == 0:
        argv.append("--help")
    note(argv)
    out_file = cli_inputs / "out.txt"
    out_file.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    event(f"{command} exit {code}")
    assert code in (0, 2, 3, 64), err
    assert "Traceback" not in err
    if code:
        assert out == ""
        assert not out_file.exists()
    else:
        written = out_file.read_text(encoding="utf-8") if out_file.exists() else ""
        assert not re.search(r"\bnan\b", out + written, re.IGNORECASE)
        if command in ("baseline", "train", "eval") and "--help" not in argv:
            assert _printed_counts(out + written) == _library_counts(argv)
