import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import initrack
from initrack.cli import main
from initrack.corpus import GeneratorConfig, gen_synthetic, save_corpus
from initrack.cues import CueKind, init_model, save_model

GOOD = """\
corpus demo
dialogue d1 agents=system,manager
turn speaker=manager ti=manager di=manager cues=question:domain
turn speaker=system ti=manager di=manager cues=no_new_info:prompt
end
"""

BAD = GOOD.replace("cues=no_new_info:prompt", "cues=promptz")

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
        # The README quick-start corpus: const training breaks down at 0.1.
        demo = tmp_path / "demo.dti"
        gen = ["gen-synthetic", "--seed", "7", "--dialogues", "8", "--turns", "25", "--pairs", "4",
               "--cue-emit", "no_new_info:prompt=0.35", "--cue-shift", "no_new_info:prompt=0.9"]
        assert main([*gen, "--out", str(demo)]) == 0
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
