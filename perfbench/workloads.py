"""The benchmark's three workloads.

Every input comes from `initrack.gen_synthetic` with the corpus make-up
below, from the README quick-start, or from the bundled replica corpus.
Which operations fail depends on the corpus, so the corpora whose
operations fail (the training grid, the closed-loop probe, the quick-start
corpus) use seeds fixed here; the run's `--seed` picks the 100k-turn
evaluation corpus, the order of the training grid and the statistics inputs.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from harness import Bench
from reference import SCOPE

# Corpus make-up shared by eval-100k and train-grid: all 14 cue kinds at low
# emission rates, each handing the initiative(s) in its scope to its expected
# holder with a high probability, plus rare spontaneous shifts.
CUES = (  # cue, emission probability per turn, shift probability
    ("explicit_giveup", 0.02, 0.95),
    ("explicit_takeover", 0.02, 0.95),
    ("end_silence", 0.03, 0.90),
    ("no_new_info:repetition", 0.04, 0.85),
    ("no_new_info:prompt", 0.05, 0.90),
    ("question:domain", 0.05, 0.90),
    ("question:evaluation", 0.03, 0.85),
    ("obligation_fulfilled:task", 0.04, 0.90),
    ("obligation_fulfilled:discourse", 0.05, 0.85),
    ("invalidity:action", 0.03, 0.90),
    ("invalidity:belief", 0.03, 0.85),
    ("suboptimality", 0.02, 0.85),
    ("ambiguity:action", 0.03, 0.85),
    ("ambiguity:belief", 0.03, 0.85),
)
# The taxonomy's expected holders: these two cues hand the initiative to the
# speaker, every other cue to the hearer.
TO_SPEAKER = {"explicit_takeover", "question:domain"}
SPONTANEOUS_TASK, SPONTANEOUS_DIALOGUE = 0.005, 0.01
TURNS, PAIRS = 130, 8
# Mass the eval-100k model leaves uncommitted in every table, at least.
MIN_THETA = 0.4

GRID_SEED = 0  # train-grid corpus
PROBE_SEED = 1  # closed-loop probe of eval-100k
METHODS = ("const", "const-counter", "var-counter")
DELTAS = tuple(0.025 + 0.025 * i for i in range(19))  # the package's sweep grid

SIZES = {  # dialogues per corpus: eval-100k, closed-loop probe, train-grid
    "full": (770, 16, 77),
    "smoke": (24, 8, 77),
}

README_GEN = ["--seed", "7", "--dialogues", "8", "--turns", "25", "--pairs", "4",
              "--cue-emit", "no_new_info:prompt=0.35", "--cue-shift", "no_new_info:prompt=0.9"]
REPLICA_CELLS = [37, 274, 4, 727]
COLD_STARTS = 3  # cold-start samples per round of eval-100k and train-grid  # published TRAINS-91 distribution for the system agent


def generator_config(dialogues: int, name: str):
    from initrack import CueKind, GeneratorConfig

    return GeneratorConfig(
        name=name, dialogues=dialogues, turns_per_dialogue=TURNS, pairs=PAIRS,
        cue_emit={CueKind(c): emit for c, emit, _ in CUES},
        cue_shift={CueKind(c): shift for c, _, shift in CUES},
        base_shift_task=SPONTANEOUS_TASK, base_shift_dialogue=SPONTANEOUS_DIALOGUE,
    )


def generator_model_text() -> str:
    """A model file built from the generator's cue parameters.

    Each table puts (1 - MIN_THETA) times the cue's shift probability on its
    expected holder and leaves the rest uncommitted.
    """
    lines = ["initrack-model v1"]
    for cue, _, shift in CUES:
        m = (1.0 - MIN_THETA) * shift
        speaker, hearer = (m, 0.0) if cue in TO_SPEAKER else (0.0, m)
        dims = ("task", "dialogue") if SCOPE[cue] == "both" else ("dialogue",)
        for dim in dims:
            lines.append(f"cue={cue} dim={dim} m_speaker={speaker:.17g} m_hearer={hearer:.17g}"
                         f" m_theta={1.0 - m:.17g} counter=0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Helpers shared by the workloads


def codes(corpus, records) -> str:
    """One digit per prediction point: 2 * (TI predicted for the dialogue's
    first agent) + (DI predicted for it), as reference.py writes them."""
    first = {d.id: d.agents[0] for d in corpus.dialogues}
    return "".join(str(2 * (r.predicted_ti_agent == first[r.dialogue_id]) + (r.predicted_di_agent == first[r.dialogue_id]))
                   for r in records)


def read_counts(run) -> tuple[int, int, int, float, float]:
    return run.predictions, run.task_correct, run.dialogue_correct, run.task_accuracy, run.dialogue_accuracy


def check_counts(b: Bench, what: str, got: tuple, ref: dict) -> None:
    n, tc, dc = ref["points"], ref["task_correct"], ref["dialogue_correct"]
    b.check(tuple(got[:3]) == (n, tc, dc), f"{what}: counts {tuple(got[:3])} != reference {(n, tc, dc)}")
    if len(got) == 5:
        b.check(got[3:] == (tc / n, dc / n), f"{what}: accuracies {got[3:]} disagree with the counts")


def check_cells(b: Bench, what: str, report, ref_cells: dict) -> None:
    from initrack import CueKind, Dimension

    for key, want in ref_cells.items():
        cue, dim = key.split(",")
        cell = report.cell(CueKind(cue), Dimension(dim))
        got = [cell.shift_errors, cell.shift_total, cell.noshift_errors, cell.noshift_total]
        b.check(got == want, f"{what}: cell {key} {got} != reference {want}")


def check_model(b: Bench, what: str, model, ref_tables: dict) -> None:
    """Every table is a valid mass function and within 1e-12 of the reference's."""
    from initrack import CueKind

    b.check(len(ref_tables) == 23, f"{what}: reference has {len(ref_tables)} tables")
    for key, want in ref_tables.items():
        cue, dim = key.split(",")
        p = model.params[CueKind(cue)]
        bpa, counter = (p.task_bpa, p.task_counter) if dim == "task" else (p.dialogue_bpa, p.dialogue_counter)
        masses = (bpa.speaker, bpa.hearer, bpa.theta)
        b.check(min(masses) >= 0.0 and abs(sum(masses) - 1.0) <= 1e-9, f"{what}: invalid table {key}")
        close = all(abs(x - y) <= 1e-12 for x, y in zip(masses, want[:3]))
        b.check(close and counter == want[3], f"{what}: table {key} differs from the reference replay")


def cli_counts(stdout: str, label: str) -> tuple[int, int, int]:
    """(points, task correct, dialogue correct) from an accuracy line."""
    line = next(ln for ln in stdout.splitlines() if ln.startswith(label + ":"))
    task, dialogue = line.split("task ")[1].split(",")[0], line.split("dialogue ")[1]
    tc, n = task.split(" ")[0].split("/")
    dc, _ = dialogue.split(" ")[0].split("/")
    return int(n), int(tc), int(dc)


def check_validate(b: Bench, stdout: str, name: str, facts: dict) -> None:
    want = f"ok: corpus {name}: {facts['dialogues']} dialogues, {facts['turns']} turns\n"
    b.check(stdout == want, f"validate printed {stdout!r}, expected {want!r}")


def replica_path(b: Bench) -> Path:
    return b.src / "initrack" / "data" / "replica_trains91.dti"


def cli_steps(b: Bench, corpus_path: Path, facts: dict, replica_facts: dict) -> None:
    """The command-line part of a library workload's round: three cold starts
    (`validate` on the replica) and `baseline` on the workload's corpus."""
    for _ in range(COLD_STARTS):
        out = b.cli(["validate", "--corpus", str(replica_path(b))], cold=True)
        check_validate(b, out, "replica_trains91", replica_facts)
    out = b.cli(["baseline", "--corpus", str(corpus_path)])
    b.check(cli_counts(out, "baseline") == tuple(facts["baseline"].values()), "initrack baseline counts")


def write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# eval-100k


def eval_100k(b: Bench, seconds: float) -> None:
    import initrack as lib  # called as lib.X, so that the traced run's wrappers see the calls
    from initrack import TrackerConfig

    eval_dialogues, probe_dialogues, _ = SIZES[b.size]
    corpus_path, probe_path, model_path = b.work / "eval.dti", b.work / "probe.dti", b.work / "eval.model"
    model_text = generator_model_text()

    def setup() -> None:
        write(corpus_path, lib.format_corpus(lib.gen_synthetic(generator_config(eval_dialogues, "eval"), b.seed)))
        write(probe_path, lib.format_corpus(lib.gen_synthetic(generator_config(probe_dialogues, "probe"), PROBE_SEED)))
        write(model_path, model_text)

    b.setup(setup)
    tf, closed, facts, replica_facts = b.reference([
        {"kind": "track", "corpus": str(corpus_path), "model": str(model_path), "cells": True},
        {"kind": "track", "corpus": str(probe_path), "model": str(model_path), "teacher_forced": False},
        {"kind": "facts", "corpus": str(corpus_path)},
        {"kind": "facts", "corpus": str(replica_path(b))},
    ])
    b.check(tf["fault"] is None, "reference: teacher-forced replay of the eval corpus breaks down")
    b.check(closed["fault"] == "Unnormalised", "reference: the closed-loop probe does not show F2")
    corpus = lib.load_corpus(corpus_path)
    b.check(lib.parse_corpus(lib.format_corpus(corpus)) == corpus, "parse_corpus(format_corpus(c)) != c")
    probe = lib.load_corpus(probe_path)
    del corpus
    config = TrackerConfig()
    points = facts["baseline"]["points"]

    def one_round() -> None:
        corpus = b.op("load", lambda: lib.load_corpus(corpus_path), units=lambda c: c.turn_count)
        model = b.op(None, lambda: lib.load_model(model_path))
        b.check(lib.format_model(model) == model_text, "the model file does not round-trip byte for byte")

        def frozen():
            run = lib.evaluate(corpus, model, config)
            return run, read_counts(run)

        run, counts = b.op("tracker", frozen, units=lambda r: r[1][0])
        b.check(codes(corpus, run.records) == tf["predictions"], "teacher-forced predictions differ from the reference")
        check_counts(b, "evaluate", counts, tf["counts"])

        base = b.op("analysis", lambda: read_counts(lib.baseline_run(corpus)), units=lambda c: c[0])
        check_counts(b, "baseline_run", base, facts["baseline"])
        report = b.op("analysis", lambda: lib.error_report(run, corpus), units=lambda _: points)
        check_cells(b, "error_report", report, tf["cells"])
        b.op(None, lambda: lib.evaluate(probe, model, config, teacher_forcing=False), fault="F2")
        cli_steps(b, corpus_path, facts, replica_facts)

    b.measure(one_round, seconds)


# ---------------------------------------------------------------------------
# train-grid


def train_grid(b: Bench, seconds: float) -> None:
    import initrack as lib
    from initrack import AdjustmentMethod, TrackerConfig

    _, _, grid_dialogues = SIZES[b.size]
    corpus_path = b.work / "grid.dti"

    def setup() -> None:
        write(corpus_path, lib.format_corpus(lib.gen_synthetic(generator_config(grid_dialogues, "grid"), GRID_SEED)))

    b.setup(setup)
    grid = [(m, d) for m in METHODS for d in DELTAS]
    jobs = [{"kind": "facts", "corpus": str(corpus_path)}, {"kind": "facts", "corpus": str(replica_path(b))}]
    jobs += [{"kind": "train_eval", "corpus": str(corpus_path), "method": m, "delta": d} for m, d in grid]
    jobs += [{"kind": "xval", "corpus": str(corpus_path), "method": m, "delta": 0.35} for m in METHODS]
    answers = b.reference(jobs)
    facts, replica_facts = answers[:2]
    refs, xrefs = dict(zip(grid, answers[2:2 + len(grid)])), answers[2 + len(grid):]
    base = facts["baseline"]
    rng = random.Random(b.seed)
    order = [(m, rng.sample(DELTAS, len(DELTAS))) for m in rng.sample(METHODS, len(METHODS))]

    def one_round() -> None:
        for method, deltas in order:
            # One load per method, as `initrack sweep --method M` does.
            corpus = b.op("load", lambda: lib.load_corpus(corpus_path), units=lambda c: c.turn_count)
            for delta in deltas:
                train_point(corpus, method, delta)
        b.check(b.op("analysis", lambda: read_counts(lib.baseline_run(corpus)), units=lambda c: c[0])[:3]
                == tuple(base.values()), "baseline_run counts differ from the recount")
        for method, xref in zip(METHODS, xrefs):
            config = TrackerConfig(method=AdjustmentMethod(method))
            xval = b.op(None, lambda: lib.cross_validate(corpus, config), fault="F1")
            b.check((xval is None) == ("fault" in xref), f"cross_validate {method}: library and reference disagree")
            if xval is not None and "fault" not in xref:
                check_counts(b, f"cross_validate {method}", read_counts(xval.aggregate), xref)
        cli_steps(b, corpus_path, facts, replica_facts)

    def train_point(corpus, method: str, delta: float) -> None:
        config = TrackerConfig(delta=delta, method=AdjustmentMethod(method))
        ref, what = refs[(method, delta)], f"{method} delta={delta:.3f}"
        trained = b.op("tracker", lambda: lib.train(corpus, config), units=lambda r: len(r.records), fault="F1")
        b.check((trained is None) == (ref["train_fault"] is not None),
                f"train {what}: library and reference disagree on failing")
        if trained is None or ref["train_fault"] is not None:
            return
        b.check(codes(corpus, trained.records) == ref["train_predictions"], f"train {what}: predictions differ")
        check_model(b, f"train {what}", trained.model, ref["tables"])
        saved = lib.format_model(trained.model)

        def frozen():
            run = lib.evaluate(corpus, trained.model, config)
            return run, read_counts(run)

        result = b.op("tracker", frozen, units=lambda r: r[1][0], fault="F1")
        b.check(lib.format_model(trained.model) == saved, f"evaluate {what}: changed the model")
        b.check((result is None) == (ref["eval_fault"] is not None),
                f"evaluate {what}: library and reference disagree on failing")
        if result is None or ref["eval_fault"] is not None:
            return
        run, counts = result
        b.check(codes(corpus, run.records) == ref["eval_predictions"], f"evaluate {what}: predictions differ")
        check_counts(b, f"evaluate {what}", counts, ref["eval_counts"])
        # The paper's claim: a trained model beats keep-the-holder on both initiatives.
        b.check(counts[1] > base["task_correct"] and counts[2] > base["dialogue_correct"],
                f"evaluate {what}: does not beat the baseline")
        report = b.op("analysis", lambda: lib.error_report(run, corpus), units=lambda _: counts[0])
        check_cells(b, f"error_report {what}", report, ref["eval_cells"])

    b.measure(one_round, seconds)


# ---------------------------------------------------------------------------
# cli-quickstart


def statistics_inputs(seed: int) -> tuple[str, str]:
    """A ratings file for `kappa` and an outcomes file for `cochran-q`."""
    rng = random.Random(seed)
    labels = ("system", "user", "both", "none")
    ratings = [["system", "user", "user", "none"]]  # two categories at least: kappa is defined
    for _ in range(59):
        truth = rng.choice(labels)
        ratings.append([truth if rng.random() < 0.7 else rng.choice(labels) for _ in range(4)])
    outcomes = [[1, 0, 0]]  # one row that varies: Q is not the trivial 0/0 case
    for _ in range(79):
        p = rng.random()
        outcomes.append([int(rng.random() < p + shift) for shift in (0.0, 0.1, 0.2)])
    return ("".join(" ".join(row) + "\n" for row in ratings),
            "".join(" ".join(map(str, row)) + "\n" for row in outcomes))


def cli_quickstart(b: Bench, seconds: float) -> None:
    import initrack as lib
    from initrack import CueKind, GeneratorConfig

    w = b.work
    demo, replica = w / "demo.dti", replica_path(b)
    ratings_text, outcomes_text = statistics_inputs(b.seed)

    def setup() -> None:
        config = GeneratorConfig(dialogues=8, turns_per_dialogue=25, pairs=4,
                                 cue_emit={CueKind.NO_NEW_INFO_PROMPT: 0.35},
                                 cue_shift={CueKind.NO_NEW_INFO_PROMPT: 0.9})
        write(demo, lib.format_corpus(lib.gen_synthetic(config, 7)))
        write(w / "ratings.txt", ratings_text)
        write(w / "outcomes.txt", outcomes_text)
        b.process([sys.executable, "-m", "initrack.cli", "validate", "--corpus", str(demo)])  # warms the caches

    b.setup(setup)
    demo_text = demo.read_text(encoding="utf-8")
    answers = b.reference(
        [{"kind": "facts", "corpus": str(demo), "focus": "a0"},
         {"kind": "facts", "corpus": str(replica), "focus": "system"}]
        + [{"kind": "train_eval", "corpus": str(demo), "method": m, "delta": 0.35} for m in METHODS]
        + [{"kind": "xval", "corpus": str(demo), "method": "const-counter", "delta": 0.35},
           {"kind": "sweep", "corpus": str(demo), "method": "const-counter", "deltas": list(DELTAS)},
           {"kind": "kappa", "ratings": str(w / "ratings.txt")},
           {"kind": "cochran_q", "outcomes": str(w / "outcomes.txt")}])
    facts, replica_facts, trains, xref, sweep_ref, kappa_ref, q_ref = (
        answers[0], answers[1], dict(zip(METHODS, answers[2:5])), *answers[5:])
    b.check(replica_facts["distribution"] == REPLICA_CELLS, "reference: replica distribution")
    b.check(trains["const"]["train_fault"] is not None, "reference: const training on the demo corpus completes")
    points = facts["baseline"]["points"]
    model = w / "demo.model"

    def one_round() -> None:
        gen_out = w / "gen.dti"
        b.cli(["gen-synthetic", *README_GEN, "--out", str(gen_out)])
        b.check(gen_out.read_text(encoding="utf-8") == demo_text, "gen-synthetic output differs from the generator")
        out = b.cli(["validate", "--corpus", str(replica)], kind="load", units=replica_facts["turns"], cold=True)
        check_validate(b, out, "replica_trains91", replica_facts)
        out = b.cli(["validate", "--corpus", str(demo)], kind="load", units=facts["turns"])
        check_validate(b, out, "synthetic", facts)
        for method in METHODS:
            ref = trains[method]
            path = model if method == "const-counter" else w / f"demo.{method}.model"
            out = b.cli(["train", "--corpus", str(demo), "--delta", "0.35", "--method", method, "--model", str(path)],
                        kind="tracker", units=points, fault="F1")
            b.check((out is None) == (ref["train_fault"] is not None), f"train {method}: exit status vs reference")
            if out is not None:
                check_counts(b, f"train {method}", cli_counts(out, "train"), ref["train_counts"])
                check_model(b, f"train {method}", lib.load_model(path), ref["tables"])
        ref = trains["const-counter"]
        out = b.cli(["eval", "--corpus", str(demo), "--model", str(model)], kind="tracker", units=points)
        check_counts(b, "eval", cli_counts(out, "eval"), ref["eval_counts"])
        out = b.cli(["baseline", "--corpus", str(demo)], kind="analysis", units=points)
        check_counts(b, "baseline", cli_counts(out, "baseline"), facts["baseline"])
        out = b.cli(["xval", "--corpus", str(demo)])
        check_counts(b, "xval", cli_counts(out, "aggregate"), xref)
        out = b.cli(["sweep", "--corpus", str(demo), "--method", "const-counter"])
        rows = [line.split(",") for line in out.splitlines()[1:]]
        b.check(len(rows) == 19 and [r[0] for r in rows] == [f"{d:.3f}" for d in DELTAS], "sweep: rows")
        for row, (delta, c) in zip(rows, sweep_ref["rows"]):
            want = [f"{c['task_correct'] / c['points']:.6f}", f"{c['dialogue_correct'] / c['points']:.6f}"]
            b.check(row[1:] == want, f"sweep: delta {row[0]} gives {row[1:]}, reference {want}")
        out = b.cli(["report-errors", "--corpus", str(demo), "--model", str(model), "--format", "csv"],
                    kind="analysis", units=points)
        got = {f"{r[0]},{r[1]}": [int(v) for v in r[2:]] for r in (ln.split(",") for ln in out.splitlines()[1:])}
        b.check(got == ref["eval_cells"], "report-errors: cells differ from the reference")
        out = b.cli(["compare", "--corpus", str(demo), "--model", str(model), "--focus-agent", "a0",
                     "--format", "csv"])
        rows = [line.split(",") for line in out.splitlines()[1:]]
        b.check([r[1] for r in rows] == ["task", "dialogue"], f"compare: rows {rows}")
        cells, n_turns = facts["distribution"], facts["turns"]
        for row, expert, base, trained in zip(
                rows, (cells[0] + cells[2], cells[0] + cells[1]),
                (facts["baseline"]["task_correct"], facts["baseline"]["dialogue_correct"]),
                (ref["eval_counts"]["task_correct"], ref["eval_counts"]["dialogue_correct"])):
            want = [f"{100 * expert / n_turns:.6f}", f"{100 * base / points:.6f}", f"{100 * trained / points:.6f}"]
            b.check(row[2:5] == want, f"compare: {row} disagrees with {want}")
        out = b.cli(["distribution", "--corpus", str(replica), "--focus-agent", "system", "--format", "csv"])
        got = [int(line.split(",")[2]) for line in out.splitlines()[1:]]
        b.check(got == REPLICA_CELLS == replica_facts["distribution"], f"distribution: {got}")
        out = b.cli(["kappa", "--ratings", str(w / "ratings.txt")])
        b.check(abs(float(out.split("=")[1]) - kappa_ref["kappa"]) <= 5e-7, f"kappa: {out.strip()} vs {kappa_ref}")
        out = b.cli(["cochran-q", "--outcomes", str(w / "outcomes.txt")])
        q, df, p = (part.split("=")[1] for part in out.strip().split(","))
        b.check(abs(float(q) - q_ref["q"]) <= 5e-7 and int(df) == q_ref["df"]
                and abs(float(p) - q_ref["p"]) <= 1e-5 * q_ref["p"], f"cochran-q: {out.strip()} vs {q_ref}")

    b.measure(one_round, seconds)


WORKLOADS = {
    "eval-100k": eval_100k,
    "train-grid": train_grid,
    "cli-quickstart": cli_quickstart,
}
