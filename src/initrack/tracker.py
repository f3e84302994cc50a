"""Initiative tracking: per-turn prediction, error-driven training, sweeps.

The tracker keeps one mass function per initiative dimension, expressed in
the current turn's speaker/hearer frame.  Each turn it pools the current
index with the mass functions of the observed cues, predicts the next
holders, and (in training mode) adjusts cue parameters whenever a
prediction disagrees with the annotation.  Because speakers alternate,
moving to the next turn swaps the speaker/hearer components.

All of this runs in one loop, `track`, over each dialogue's derived
`points` and plain floats: it reads and adjusts the model's 23 (cue,
dimension) tables, `[speaker, hearer, theta]` lists with int counters beside
them, in place.  Every combination and every
table adjustment is checked as a `MassFunction` would be; a step that fails
the check is redone through `combine` or `MassFunction`, which raise its
error.  A run's outcome is stored once, as a `RunResult`: its dialogues and
two bits per prediction point.  The per-point `TurnRecord`s, named tuples
built with one tuple allocation each, are derived from those on request.
The object-level functions (`step_predict`, `adjust_bpa`, `credit_counters`,
`run_dialogue`) are adapters over the same pieces.
"""

from __future__ import annotations

import math
import warnings
from enum import Enum
from functools import cached_property
from itertools import count, islice
from typing import NamedTuple, Sequence

from .corpus import Corpus, Dialogue, _read_only
from .cues import CueKind, CueModel, Dimension, init_model, point_table
from .evidence import SUM_TOLERANCE, MassFunction, Role, combine, predicted_holder


class AdjustmentMethod(Enum):
    CONSTANT_INCREMENT = "const"
    CONSTANT_INCREMENT_WITH_COUNTER = "const-counter"
    VARIABLE_INCREMENT_WITH_COUNTER = "var-counter"

    def __str__(self) -> str:
        return self.value


class TrackerConfig(NamedTuple("TrackerConfig", [("delta", float), ("method", AdjustmentMethod), ("default_x", float),
                                                 ("reset_strength", float)])):
    """A run's settings: a named tuple whose constructor, and so `_replace`, checks them."""

    __slots__ = ()

    def __new__(cls, delta: float = 0.35, method: AdjustmentMethod = AdjustmentMethod.CONSTANT_INCREMENT_WITH_COUNTER,
                default_x: float = 0.5, reset_strength: float = 0.75) -> TrackerConfig:
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
        if delta >= 0.5:
            # A single observation would then out-mass the even prior.
            warnings.warn(f"delta={delta} is outside the recommended (0, 0.5) range", stacklevel=2)
        method = AdjustmentMethod(method)  # a member, or its value
        if not 0.0 <= default_x <= 1.0:
            raise ValueError(f"default_x must lie in [0, 1], got {default_x!r}")
        if not 0.0 < reset_strength < 1.0:
            # 0 or 1 would make the index absorbing under combination.
            raise ValueError(f"reset_strength must lie strictly in (0, 1), got {reset_strength!r}")
        if reset_strength <= 0.5:
            # A reset would then leave the index predicting the other agent.
            warnings.warn(f"reset_strength={reset_strength} is outside the recommended (0.5, 1) range", stacklevel=2)
        return tuple.__new__(cls, (delta, method, default_x, reset_strength))

    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` builds its copy through `_make`


class TrackerState(NamedTuple):
    """Current initiative indices, in the current turn's speaker/hearer frame."""

    m_t_cur: MassFunction
    m_d_cur: MassFunction


class StepPrediction(NamedTuple):
    m_t_new: MassFunction
    m_d_new: MassFunction
    ti_role: Role
    di_role: Role


class TurnRecord(NamedTuple):
    """One prediction point: made while processing `turn_index`, about the next turn.

    A prediction is correct when it names the agent that holds the
    initiative next, so `ti_correct` and `di_correct` are read off the
    predicted and actual agents.
    """

    dialogue_id: str
    turn_index: int
    predicted_ti: Role
    predicted_ti_agent: str
    predicted_di: Role
    predicted_di_agent: str
    actual_ti_agent: str
    actual_di_agent: str
    cues: tuple[CueKind, ...]

    @property
    def ti_correct(self) -> bool:
        return self.predicted_ti_agent == self.actual_ti_agent

    @property
    def di_correct(self) -> bool:
        return self.predicted_di_agent == self.actual_di_agent


# ---------------------------------------------------------------------------
# Runs


def _ratio(count: int, total: int) -> float:
    return count / total if total else float("nan")


class RunResult(NamedTuple("RunResult", [("dialogues", tuple), ("ti_ok", bytes), ("di_ok", bytes)])):
    """The outcomes of one tracking run, one byte per prediction point.

    `ti_ok` and `di_ok` hold 1 where the task/dialogue prediction named the
    next turn's holder.  The points are those of `dialogues`, in order, and
    a run whose vectors do not cover them cannot be built, by the
    constructor or by `_replace`.  `records` is derived from the points and
    the vectors on first access and kept.  Runs compare equal when their
    dialogues and vectors are equal, and hash by the vectors alone.
    """

    def __new__(cls, dialogues: tuple[Dialogue, ...], ti_ok: bytes, di_ok: bytes) -> RunResult:
        points = sum(len(d.turns) for d in dialogues) - len(dialogues)
        for ok in (ti_ok, di_ok):
            if len(ok) != points:
                raise ValueError(f"{len(ok)} outcome bytes for {points} prediction points")
        return tuple.__new__(cls, (dialogues, ti_ok, di_ok))

    _make = classmethod(lambda cls, fields: cls(*fields))
    __setattr__ = __delattr__ = _read_only

    def __hash__(self) -> int:
        return hash((self.ti_ok, self.di_ok))

    def __repr__(self) -> str:
        return (
            f"RunResult(predictions={self.predictions}, task_correct={self.task_correct}, "
            f"dialogue_correct={self.dialogue_correct})"
        )

    def __getstate__(self) -> None:
        return None  # copies and pickles carry the fields, not the derived records

    @classmethod
    def concat(cls, runs: Sequence[RunResult]) -> RunResult:
        """One run over the points of `runs`, in order."""
        return cls(
            tuple(d for run in runs for d in run.dialogues),
            b"".join(run.ti_ok for run in runs),
            b"".join(run.di_ok for run in runs),
        )

    @cached_property
    def records(self) -> tuple[TurnRecord, ...]:
        # tuple.__new__ builds each record in one call, skipping the
        # NamedTuple's Python-level __new__; fields in declaration order.  A
        # prediction named the speaker exactly when its hit byte equals the
        # point's "next holder is the speaker" bit.
        new, speaker, hearer = tuple.__new__, Role.SPEAKER, Role.HEARER
        ti_ok, di_ok = iter(self.ti_ok), iter(self.di_ok)
        records = []
        append = records.append
        for dialogue in self.dialogues:
            dialogue_id, turns = dialogue.id, dialogue.turns
            # islice ends first, so zip takes no outcome bytes past the dialogue.
            for t, turn, nxt, point, ti_hit, di_hit in zip(count(), turns, islice(turns, 1, None), dialogue.points, ti_ok, di_ok):
                ti, di = point[2] == ti_hit, point[3] == di_hit
                append(new(TurnRecord, (
                    dialogue_id,
                    t,
                    speaker if ti else hearer,
                    turn.speaker if ti else turn.hearer,
                    speaker if di else hearer,
                    turn.speaker if di else turn.hearer,
                    nxt.ti_holder,
                    nxt.di_holder,
                    turn.cues,
                )))
        return tuple(records)

    @property
    def task_vector(self) -> tuple[int, ...]:
        return tuple(self.ti_ok)

    @property
    def dialogue_vector(self) -> tuple[int, ...]:
        return tuple(self.di_ok)

    @property
    def predictions(self) -> int:
        return len(self.ti_ok)

    @property
    def task_correct(self) -> int:
        return self.ti_ok.count(1)

    @property
    def dialogue_correct(self) -> int:
        return self.di_ok.count(1)

    @property
    def task_accuracy(self) -> float:
        return _ratio(self.task_correct, self.predictions)

    @property
    def dialogue_accuracy(self) -> float:
        return _ratio(self.dialogue_correct, self.predictions)


# ---------------------------------------------------------------------------
# The plain-float kernel

Tables = list[list[float]]
# Enum members read as globals: attribute access on an Enum class is slow.
_CONST = AdjustmentMethod.CONSTANT_INCREMENT
_CONST_COUNTER = AdjustmentMethod.CONSTANT_INCREMENT_WITH_COUNTER


def _valid(s: float, h: float, t: float) -> bool:
    """What `MassFunction` accepts: no mass negative or NaN, and a sum of 1."""
    return abs(s + h + t - 1.0) <= SUM_TOLERANCE and s >= 0.0 and h >= 0.0 and t >= 0.0


def _fold(s: float, h: float, t: float, tables: Tables, slots: tuple[int, ...]) -> tuple[float, float, float]:
    """Combine the index (s, h, t) with each slot's table, left to right.

    This is `evidence.combine` on floats, with the same operand order and
    the same arithmetic.  A step that meets total conflict or gives an
    invalid result is handed to `combine`, which raises its error.
    """
    for i in slots:
        bs, bh, bt = tables[i]
        norm = 1.0 - (s * bh + h * bs)
        if norm > 0.0:
            s1, h1, t1 = (s * bs + s * bt + t * bs) / norm, (h * bh + h * bt + t * bh) / norm, (t * bt) / norm
            if abs(s1 + h1 + t1 - 1.0) <= SUM_TOLERANCE and s1 >= 0.0 and h1 >= 0.0 and t1 >= 0.0:  # _valid
                s, h, t = s1, h1, t1
                continue
        m = combine(MassFunction(s, h, t), MassFunction(bs, bh, bt))
        s, h, t = m.speaker, m.hearer, m.theta
    return s, h, t


def _adjust(tables: Tables, counters: list[int], slots: tuple[int, ...], to_speaker: bool, config: TrackerConfig) -> None:
    """Shift the slots' mass toward the actual holder after an error.

    Mass moves only from theta to the actual holder, never from the opposing
    singleton; the clamp keeps theta non-negative.
    """
    method, delta = config.method, config.delta
    for i in slots:
        counter = counters[i]
        if method is _CONST:
            step = delta
        else:
            counter -= 1
            if method is _CONST_COUNTER:
                if counter >= 0:
                    counters[i] = counter
                    continue
                step, counter = delta, 0
            else:
                # Variable increment: the remaining credit damps the step
                # exponentially; negative credit is clamped to 0 in the
                # exponent, and a step below the float range is 0.
                step = math.ldexp(delta, -(max(counter, 0) + 1))
        s, h, t = tables[i]
        inc = min(step, t)
        if to_speaker:
            s += inc
        else:
            h += inc
        t -= inc
        if not _valid(s, h, t):
            MassFunction(s, h, t)  # raises the check's error
        tables[i] = [s, h, t]
        counters[i] = counter


def _credit(counters: list[int], slots: tuple[int, ...]) -> None:
    for i in slots:
        counters[i] += 1


def track(
    dialogues: tuple[Dialogue, ...],
    model: CueModel,
    config: TrackerConfig,
    *,
    learn: bool,
    reset_on_error: bool = True,
) -> RunResult:
    """Track each dialogue from default indices; a dialogue's final turn is target only.

    With learn=True the model is adjusted/credited after each prediction
    (and holds every change made before an error, if one is raised); with
    learn=False it is left untouched (frozen evaluation).  reset_on_error
    controls whether a misprediction re-anchors the current index on the
    annotated holder.
    """
    tables, counters = model.masses, model.counters
    counting = learn and config.method is not AdjustmentMethod.CONSTANT_INCREMENT
    # The start index and the resets onto the speaker and the hearer.
    x, r = config.default_x, config.reset_strength
    index0, reset_s, reset_h = (x, 1.0 - x, 0.0), (r, 1.0 - r, 0.0), (1.0 - r, r, 0.0)
    ti_ok, di_ok = bytearray(), bytearray()
    ti_ok_append, di_ok_append = ti_ok.append, di_ok.append
    for dialogue in dialogues:
        ts, th, tt = ds, dh, dt = index0
        for task_slots, dialogue_slots, ti_actual, di_actual, _ in dialogue.points:
            if dialogue_slots:  # every cue has a dialogue table
                if task_slots:
                    ts, th, tt = _fold(ts, th, tt, tables, task_slots)
                ds, dh, dt = _fold(ds, dh, dt, tables, dialogue_slots)
            ti_hit, di_hit = (ts >= th) == ti_actual, (ds >= dh) == di_actual

            if ti_hit:
                if counting and task_slots:
                    _credit(counters, task_slots)
            else:
                if learn and task_slots:
                    _adjust(tables, counters, task_slots, ti_actual, config)
                if reset_on_error:
                    ts, th, tt = reset_s if ti_actual else reset_h
            if di_hit:
                if counting and dialogue_slots:
                    _credit(counters, dialogue_slots)
            else:
                if learn and dialogue_slots:
                    _adjust(tables, counters, dialogue_slots, di_actual, config)
                if reset_on_error:
                    ds, dh, dt = reset_s if di_actual else reset_h

            ti_ok_append(ti_hit)
            di_ok_append(di_hit)
            # The next turn's speaker is this turn's hearer.
            ts, th = th, ts
            ds, dh = dh, ds
    return RunResult(dialogues, bytes(ti_ok), bytes(di_ok))


# ---------------------------------------------------------------------------
# Object-level adapters


def step_predict(state: TrackerState, cues: Sequence[CueKind], model: CueModel) -> StepPrediction:
    """Pool the current indices with the observed cues' mass functions.

    The returned predictions name the next turn's holders, expressed in the
    current turn's role frame.  Dialogue-only cues contribute nothing on the
    task side.
    """
    tables = model.masses
    task_slots, dialogue_slots, *_ = point_table(tuple(cues))[0][0][0][0]
    m_t, m_d = state.m_t_cur, state.m_d_cur
    m_t_new = MassFunction(*_fold(m_t.speaker, m_t.hearer, m_t.theta, tables, task_slots))
    m_d_new = MassFunction(*_fold(m_d.speaker, m_d.hearer, m_d.theta, tables, dialogue_slots))
    return StepPrediction(m_t_new, m_d_new, predicted_holder(m_t_new), predicted_holder(m_d_new))


def adjust_bpa(
    model: CueModel,
    cues: Sequence[CueKind],
    dimension: Dimension,
    actual: Role,
    config: TrackerConfig,
) -> None:
    """Shift the observed cues' mass toward the actual holder after an error.

    For the task dimension only cues with both-initiative effect are touched.
    """
    slots = point_table(tuple(cues))[0][0][0][0][0 if dimension is Dimension.TASK else 1]
    _adjust(model.masses, model.counters, slots, actual is Role.SPEAKER, config)


def credit_counters(
    model: CueModel, cues: Sequence[CueKind], dimension: Dimension, config: TrackerConfig
) -> None:
    """Give each observed cue one unit of credit after a correct prediction."""
    if config.method is AdjustmentMethod.CONSTANT_INCREMENT:
        return
    _credit(model.counters, point_table(tuple(cues))[0][0][0][0][0 if dimension is Dimension.TASK else 1])


def run_dialogue(
    dialogue: Dialogue,
    model: CueModel,
    config: TrackerConfig,
    *,
    learn: bool,
    reset_on_error: bool = True,
) -> list[TurnRecord]:
    """Track one dialogue (see `track`) and return its records."""
    return list(track((dialogue,), model, config, learn=learn, reset_on_error=reset_on_error).records)


class TrainResult(NamedTuple):
    model: CueModel
    run: RunResult

    @property
    def records(self) -> tuple[TurnRecord, ...]:
        return self.run.records

    @property
    def task_accuracy(self) -> float:
        return self.run.task_accuracy

    @property
    def dialogue_accuracy(self) -> float:
        return self.run.dialogue_accuracy


def train(corpus: Corpus, config: TrackerConfig, model: CueModel | None = None) -> TrainResult:
    """One training pass over the corpus.

    Each dialogue starts from fresh default indices while the cue model
    accumulates across dialogues in corpus order.  Pass a model to continue
    training it; by default training starts from the all-vacuous model.
    """
    if model is None:
        model = init_model()
    return TrainResult(model, track(corpus.dialogues, model, config, learn=True))


MAX_GRID_POINTS = 10_000
# The standard sweep grid as delta_grid arguments (start, stop, step): 19 deltas.
DEFAULT_GRID = (0.025, 0.475, 0.025)


def delta_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """start + step * i for i = 0, 1, ... while it stays within stop (+1e-12 for rounding)."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("delta grid bounds and step must be finite")
    if step <= 0:
        raise ValueError(f"delta grid step must be positive, got {step!r}")
    grid = []
    while (value := start + len(grid) * step) <= stop + 1e-12:
        # A step too small to move start would otherwise grow the grid until memory runs out.
        if len(grid) == MAX_GRID_POINTS:
            raise ValueError(f"delta grid would have more than {MAX_GRID_POINTS} points")
        grid.append(value)
    return tuple(grid)


class SweepRow(NamedTuple):
    delta: float
    task_accuracy: float
    dialogue_accuracy: float


def sweep(
    corpus: Corpus,
    config: TrackerConfig,
    deltas: Sequence[float] | None = None,
    *,
    cross_validated: bool = False,
) -> list[SweepRow]:
    """One independent run of `config` per delta, rows in ascending delta order.

    Each row runs `config` with its delta replaced; `deltas` defaults to
    `delta_grid(*DEFAULT_GRID)`.  With cross_validated=True each row reports
    leave-one-pair-out accuracy instead of the training-pass accuracy.  Every
    delta's config is built before the first run, so a bad delta fails before
    any training.  A failing config or run aborts the sweep; its error names
    the delta and the method.
    """
    if deltas is None:
        deltas = delta_grid(*DEFAULT_GRID)
    if not deltas:
        raise ValueError("sweep requires at least one delta")
    configs, rows = [], []
    try:
        with warnings.catch_warnings():
            # The rows share config's reset_strength, which has warned once already.
            warnings.filterwarnings("ignore", "reset_strength=")
            for delta in sorted(deltas):
                configs.append(config._replace(delta=delta))
        for run_config in configs:
            delta = run_config.delta
            if cross_validated:
                from .evalstats import cross_validate

                result = cross_validate(corpus, run_config).aggregate
            else:
                result = train(corpus, run_config).run
            rows.append(SweepRow(delta, result.task_accuracy, result.dialogue_accuracy))
    except ValueError as exc:
        exc.args = (f"delta={delta:g} method={config.method}: {exc}",)
        raise
    return rows


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    lines = ["delta,task_accuracy,dialogue_accuracy"]
    for row in rows:
        lines.append(f"{row.delta:.3f},{row.task_accuracy:.6f},{row.dialogue_accuracy:.6f}")
    return "\n".join(lines) + "\n"
