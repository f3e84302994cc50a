"""Shared machinery of the benchmark: timed operations, CLI processes, the
reference subprocess, whole-round measurement and the metric report."""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable

from tracing import Tracer

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
PROCESS_TIMEOUT_S = 120

# The two faults the workloads keep.  F1: training saturates a cue table and a
# later combination meets total or near-total conflict.  F2: closed-loop
# tracking lets rounding build up in the index until the sum check trips.
FAULTS = {
    "F1": ("cannot combine totally conflicting mass functions", "masses must sum to 1"),
    "F2": ("masses must sum to 1",),
}

CLI_SUBCOMMANDS = (
    "gen-synthetic", "validate", "train", "eval", "baseline", "xval", "sweep",
    "report-errors", "compare", "distribution", "kappa", "cochran-q",
)


class BenchError(Exception):
    """An operation failed in a way that no named fault explains."""


def _fault_matches(fault: str, exc: BaseException) -> bool:
    from initrack import TotalConflictError

    if fault == "F1" and isinstance(exc, TotalConflictError):
        return True
    return type(exc) is ValueError and any(msg in str(exc) for msg in FAULTS[fault])


class Bench:
    """One run of one workload: counts, timings per round and checks."""

    def __init__(self, src: Path, work: Path, seed: int, trace: bool, size: str) -> None:
        self.src = src
        self.work = work
        self.seed = seed
        self.size = size
        self.tracer = Tracer() if trace else None
        self._patched = False
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.totals: dict[str, list[float]] = {}  # kind -> [units, seconds] of completed calls
        self.round_s: list[float] = []
        self.traced_rounds = 0
        self.cold_ms: list[float] = []
        self.child_rss_kb = 0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(src)

    # -- checks and operations ------------------------------------------------

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 50:
            self.problems.append(message)

    def _record(self, kind: str | None, units: float, seconds: float) -> None:
        if kind:
            acc = self.totals.setdefault(kind, [0.0, 0.0])
            acc[0] += units
            acc[1] += seconds

    def op(self, kind: str | None, fn: Callable, units: Callable = lambda result: 0, fault: str | None = None):
        """Run one library call.  Returns None when it fails with the named fault."""
        self.attempted += 1
        gc.collect()  # every call starts from the same heap, whatever the last one left
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            if fault is not None and _fault_matches(fault, exc):
                self.failed += 1
                return None
            raise BenchError(f"unexpected {type(exc).__name__}: {exc}") from exc
        self._record(kind, units(result), time.perf_counter() - start)
        return result

    def cli(self, argv: list[str], *, kind: str | None = None, units: float = 0, fault: str | None = None,
            cold: bool = False) -> str | None:
        """Run one `initrack` command as a fresh process; in the traced run,
        in-process through `initrack.cli.main`.

        Returns its standard output, or None when it fails with the named
        fault (exit 2 and the fault's message).
        """
        self.attempted += 1
        if self.tracer is not None:
            import initrack.cli

            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                if self._patched:
                    code = self.tracer.call(f"cli.main.{argv[0]}", initrack.cli.main, argv)
                else:
                    code = initrack.cli.main(argv)
            elapsed = time.perf_counter() - start
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            code, stdout, stderr, elapsed = self.process([sys.executable, "-m", "initrack.cli", *argv])
        if code != 0:
            if fault is not None and code == 2 and any(msg in stderr for msg in FAULTS[fault]):
                self.failed += 1
                return None
            raise BenchError(f"initrack {' '.join(argv)} exited {code}: {stderr.strip()[-300:]}")
        self._record("cli", 1, elapsed)
        self._record(kind, units, elapsed)
        if cold:
            self.cold_ms.append(1000.0 * elapsed)
        return stdout

    def process(self, cmd: list[str]) -> tuple[int, str, str, float]:
        out_path, err_path = self.work / "cmd.out", self.work / "cmd.err"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work)
            killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read().decode(), err.read().decode(), elapsed

    def reference(self, jobs: list[dict]) -> list[dict]:
        """Answer jobs with reference.py in its own isolated interpreter."""
        jobs_path, out_path = self.work / "ref-jobs.json", self.work / "ref-out.json"
        jobs_path.write_text(json.dumps(jobs), encoding="utf-8")
        subprocess.run([sys.executable, "-I", str(HERE / "reference.py"), str(jobs_path), str(out_path)],
                       check=True, timeout=PROCESS_TIMEOUT_S, cwd=self.work)
        return json.loads(out_path.read_text(encoding="utf-8"))

    # -- tracing --------------------------------------------------------------

    def _patch(self) -> None:
        if self.tracer is None or self._patched:
            return
        import initrack.cli  # noqa: F401  (so that its imported names get traced too)
        from initrack import RunResult

        t = self.tracer
        points = lambda args, result: len(result.records)  # noqa: E731
        t.patch("initrack.corpus", "parse_corpus", units=lambda a, r: r.turn_count)
        t.patch("initrack.corpus", "format_corpus", units=lambda a, r: a[0].turn_count)
        t.patch("initrack.corpus", "gen_synthetic", units=lambda a, r: r.turn_count)
        t.patch("initrack.corpus", "partition_by_pair")
        t.patch("initrack.cues", "parse_model")
        t.patch("initrack.cues", "format_model")
        t.patch("initrack.evidence", "combine", hot=True)
        t.patch("initrack.tracker", "step_predict", hot=True)
        t.patch("initrack.tracker", "adjust_bpa", hot=True)
        t.patch("initrack.tracker", "credit_counters", hot=True)
        t.patch("initrack.tracker", "run_dialogue", hot=True)
        t.patch("initrack.tracker", "train", units=points)
        t.patch("initrack.evalstats", "evaluate", units=points)
        t.patch("initrack.evalstats", "baseline_run", units=points)
        t.patch("initrack.evalstats", "error_report", units=lambda a, r: len(a[0].records))
        t.patch("initrack.evalstats", "cross_validate")
        t.patch("initrack.evalstats", "kappa")
        t.patch("initrack.evalstats", "cochran_q")
        t.patch_properties(RunResult, ["task_vector", "dialogue_vector", "predictions", "task_correct",
                                       "dialogue_correct", "task_accuracy", "dialogue_accuracy"],
                           "evalstats.run_result_props")
        self._patched = True

    def _unpatch(self) -> None:
        if self._patched:
            self.tracer.unpatch()
            self._patched = False

    # -- set-up and measurement -----------------------------------------------

    def setup(self, fn: Callable[[], None]) -> None:
        """Set up at least SETUP_REPEATS times and for at least SETUP_MIN_S;
        set-up time is reported as the median."""
        self._patch()
        try:
            start = time.perf_counter()
            while len(self.setup_s) < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
                t0 = time.perf_counter()
                fn()
                self.setup_s.append(time.perf_counter() - t0)
        finally:
            self._unpatch()

    def measure(self, one_round: Callable[[], None], seconds: float) -> None:
        """Run whole rounds for about `seconds`.

        The traced run's first round is an untraced warm-up; after it, rounds
        alternate untraced and traced, so that the tracing overhead compares
        rounds run in the same stretch of time.  It runs at least one of each.
        """
        start = time.perf_counter()
        while True:
            traced = self.tracer is not None and len(self.round_s) % 2 == 0 and bool(self.round_s)
            if traced:
                self._patch()
                self.traced_rounds += 1
            t0 = time.perf_counter()
            try:
                one_round()
            finally:
                self.round_s.append(time.perf_counter() - t0)
                self._unpatch()
            elapsed = time.perf_counter() - start
            if self.tracer is not None and not self.traced_rounds:
                continue
            if elapsed + statistics.median(self.round_s) / 2 > seconds:
                break
        print(f"perfbench: {len(self.round_s)} rounds, median {statistics.median(self.round_s):.3f} s"
              f" (min {min(self.round_s):.3f}, max {max(self.round_s):.3f});"
              f" {len(self.setup_s)} set-ups, median {statistics.median(self.setup_s):.3f} s", file=sys.stderr)

    # -- report ---------------------------------------------------------------

    def _rate(self, kind: str) -> float:
        """Units per second over all completed calls of one kind in the run."""
        units, seconds = self.totals.get(kind, (0.0, 0.0))
        if not seconds:
            raise BenchError(f"no completed {kind} operation to measure")
        return units / seconds

    def end_to_end(self) -> dict[str, dict]:
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, self.child_rss_kb)
        values = {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "load_turns_per_s": (self._rate("load"), "turns/s"),
            "tracker_turns_per_s": (self._rate("tracker"), "turns/s"),
            "analysis_turns_per_s": (self._rate("analysis"), "turns/s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "cli_cold_start_ms": (statistics.median(self.cold_ms), "ms"),
            "cli_cmds_per_s": (self._rate("cli"), "commands/s"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    def import_times(self, samples: int = 3) -> tuple[float, float]:
        """Median ms of a fresh `import initrack`, and of its numpy share."""
        totals, numpy_ms = [], []
        for _ in range(samples):
            code, _, stderr, _ = self.process([sys.executable, "-X", "importtime", "-c", "import initrack"])
            if code != 0:
                raise BenchError("import initrack failed in a fresh interpreter")
            cumulative = {}
            for line in stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[1].strip().isdigit():
                    cumulative[parts[2].strip()] = int(parts[1]) / 1000.0
            totals.append(cumulative["initrack"])
            numpy_ms.append(cumulative.get("numpy", 0.0))
        return statistics.median(totals), statistics.median(numpy_ms)

    def per_layer(self) -> dict[str, dict]:
        stats = self.tracer.stats
        rounds = max(self.traced_rounds, 1)

        def stat(name: str):
            return stats.get(name)

        def per_unit(name: str, scale: float) -> float:
            s = stat(name)
            return s.ok_ns / s.units / scale if s and s.units else 0.0

        def per_call(name: str, scale: float) -> float:
            s = stat(name)
            return s.ns / s.calls / scale if s and s.calls else 0.0

        def calls(name: str) -> float:
            s = stat(name)
            return s.calls / rounds if s else 0.0

        rd, sp = stat("tracker.run_dialogue"), stat("tracker.step_predict")
        import_ms, numpy_ms = self.import_times()
        untraced = statistics.median(self.round_s[1::2])
        traced = statistics.median(self.round_s[2::2])
        props = stat("evalstats.run_result_props")
        values = {
            "corpus.parse_corpus.us_per_turn": (per_unit("corpus.parse_corpus", 1e3), "us"),
            "corpus.format_corpus.us_per_turn": (per_unit("corpus.format_corpus", 1e3), "us"),
            "corpus.gen_synthetic.us_per_turn": (per_unit("corpus.gen_synthetic", 1e3), "us"),
            "corpus.partition_by_pair.ms": (per_call("corpus.partition_by_pair", 1e6), "ms"),
            "cues.parse_model.us": (per_call("cues.parse_model", 1e3), "us"),
            "cues.format_model.us": (per_call("cues.format_model", 1e3), "us"),
            "evidence.combine.calls": (calls("evidence.combine"), "count"),
            "evidence.combine.ns_per_call": (per_call("evidence.combine", 1.0), "ns"),
            "tracker.step_predict.calls": (calls("tracker.step_predict"), "count"),
            "tracker.step_predict.us_per_call": (per_call("tracker.step_predict", 1e3), "us"),
            "tracker.adjust_bpa.calls": (calls("tracker.adjust_bpa"), "count"),
            "tracker.credit_counters.calls": (calls("tracker.credit_counters"), "count"),
            "tracker.train.us_per_turn": (per_unit("tracker.train", 1e3), "us"),
            "tracker.run_dialogue.self_us_per_turn": (
                (rd.ns - rd.child_ns) / sp.calls / 1e3 if rd and sp and sp.calls else 0.0, "us"),
            "evalstats.evaluate.us_per_turn": (per_unit("evalstats.evaluate", 1e3), "us"),
            "evalstats.run_result_props.ms": (props.ns / rounds / 1e6 if props else 0.0, "ms"),
            "evalstats.baseline_run.us_per_turn": (per_unit("evalstats.baseline_run", 1e3), "us"),
            "evalstats.error_report.us_per_turn": (per_unit("evalstats.error_report", 1e3), "us"),
            "evalstats.cross_validate.ms": (per_call("evalstats.cross_validate", 1e6), "ms"),
            "evalstats.kappa.us": (per_call("evalstats.kappa", 1e3), "us"),
            "evalstats.cochran_q.us": (per_call("evalstats.cochran_q", 1e3), "us"),
            "cli.import_ms": (import_ms, "ms"),
            "cli.import_numpy_ms": (numpy_ms, "ms"),
            "trace.overhead_pct": (100.0 * (traced / untraced - 1.0), "%"),
        }
        for sub in CLI_SUBCOMMANDS:
            values[f"cli.main.{sub}.ms"] = (per_call(f"cli.main.{sub}", 1e6), "ms")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
