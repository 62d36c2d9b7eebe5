"""serve: two tenants streamed through ``repro.api.run_serving``.

Hundreds of small Sparklet jobs, one per micro-batch, whose cost is per-job
overhead, small DFS writes, checkpoints, stream state, in-stream scoring
and fair-share scheduling: the opposite use of Sparklet from identify's few
large jobs.  The loop is closed in wall time: the replay receiver is drained
as fast as the driver runs, and the simulated clock only decides how the
stream is cut into batches.

One round is one ``run_serving`` call over both tenants; a run repeats whole
rounds.  Every micro-batch of every round is one operation, timed around
``SessionManager.run_next_batch``.  The rounds cycle through a fixed
ladder of tenant pairs, starting at the pair the run's seed picks; the seed
also draws the scoring model's training set.  A tenant's pulsar mix decides
how heavy its batches are, and one run averages over every mix of the
ladder instead of resting on one.  Mixes are heavy-tailed: about one round
in ten streamed two to five times the usual rows, and peak RSS follows the
heaviest round.  With a fresh pair drawn from the seed for every round,
``peak_rss_mb`` spread by IQR/median 0.197 over ten seeds, as runs did or
did not meet a heavy mix.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from common import SETUP_REPEATS, Outcome, median, run_for, tail_percentile

#: (tenant id, fair-share weight).
TENANTS = (("tenant-a", 2.0), ("tenant-b", 1.0))
#: Each tenant: this many pulsars drawn from its seed, over this many 20 s
#: GBT350Drift-like pointings.  With the survey's 140 s observations one
#: bright short-period pulsar can triple a tenant's stream: tenant sizes
#: over 20 seeds had IQR/median 1.19 (2.4k-16k SPEs), against 0.18 here.
N_PULSARS = 3
N_OBSERVATIONS = 6
OBS_LENGTH_S = 20.0
BATCH_INTERVAL_S = 0.1
#: Labelled set the scoring model is trained on at set-up.
TRAIN_POSITIVE, TRAIN_NEGATIVE = 60, 600


def _train_model(seed: int):
    from classify import build_set

    from repro.ml.forest import RandomForest

    bench = build_set(seed, TRAIN_POSITIVE, TRAIN_NEGATIVE)
    return RandomForest(n_trees=15, seed=0).fit(bench.features,
                                                bench.is_pulsar.astype(int))


#: Tenant pairs in the ladder.  A 15 s run makes nine to twelve rounds, so
#: it streams every pair at least once.
N_PAIRS = 8


def tenant_seed(seed: int, round_no: int, index: int) -> int:
    return 2 * ((seed + round_no) % N_PAIRS) + index


def run(seed: int, seconds: float, tracer, t_start: float) -> Outcome:
    import dataclasses

    import numpy as np
    from common import Tracer
    from identify import check_pulses, reference_pulses

    import repro.core.pipeline as pipeline_mod
    import repro.streaming.sessions as sessions
    from repro.api import (
        ExecutionConfig,
        KernelConfig,
        MemoConfig,
        PipelineConfig,
        ServingConfig,
        StreamingConfig,
        TenantConfig,
        run_serving,
    )
    from repro.astro import GBT350DRIFT
    from repro.execution import resolve_execution
    from repro.ml.forest import RandomForest
    from repro.ml.persistence import save_model

    import_s = time.perf_counter() - t_start
    out_dir = Path(__file__).resolve().parent / ".out"
    model_path = out_dir / f"serve-model-{os.getpid()}.pkl"

    train_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        model = _train_model(seed)
        save_model(model, model_path)
        train_s.append(time.perf_counter() - t0)

    execution = ExecutionConfig(backend="serial", num_workers=1,
                                kernel=KernelConfig(method="direct", impl="numpy"))
    survey = dataclasses.replace(GBT350DRIFT, obs_length_s=OBS_LENGTH_S)

    def serving_config(round_no: int) -> ServingConfig:
        tenants = tuple(
            TenantConfig(
                tenant_id=tid, weight=weight,
                streaming=StreamingConfig(
                    pipeline=PipelineConfig(
                        survey=survey, seed=tenant_seed(seed, round_no, i),
                        n_pulsars=N_PULSARS, n_observations=N_OBSERVATIONS,
                        execution=execution, memo_config=MemoConfig(enabled=False)),
                    batch_interval_s=BATCH_INTERVAL_S, model_path=str(model_path)),
            )
            for i, (tid, weight) in enumerate(TENANTS)
        )
        return ServingConfig(tenants=tenants, execution=execution)

    # The batch timer and the generation timer are part of the measurement,
    # so they run in untraced runs too; the traced run adds the layer timers.
    clock = Tracer()
    batch_ms: list[float] = []
    memos: list = []

    def on_batch(stats, _args, elapsed):
        if stats is not None:
            batch_ms.append(1e3 * elapsed)

    clock.hooks["sessions.run_next_batch"] = on_batch
    clock.wrap(sessions.SessionManager, "run_next_batch", "sessions.run_next_batch")
    clock.wrap(pipeline_mod.SinglePulsePipeline, "generate", "pipeline.generate")
    original_add = sessions.SessionManager.add_session

    def add_session(self, tenant_id, engine, **kw):
        memos.append(kw.get("memo"))
        return original_add(self, tenant_id, engine, **kw)

    sessions.SessionManager.add_session = add_session
    # Taken before the layer timers wrap it, so the checks add no samples.
    predict = RandomForest.predict
    layers_probe = _ServeLayers(tracer, batch_ms) if tracer is not None else None
    gen_per_round: list[float] = []
    rows_per_s: list[float] = []
    problems: list[str] = []
    f_values: list[float] = []

    def check_round(result) -> None:
        if result.rejected or set(result.tenants) != {t[0] for t in TENANTS}:
            problems.append(f"tenants rejected: {result.rejected}")
            return
        for tid, tres in result.tenants.items():
            f, found = check_pulses(tres.pulse_batch, reference_pulses(tres.observations))
            f_values.append(f)
            problems.extend(found)
            want = predict(model, tres.pulse_batch.features) if len(tres.pulse_batch) else []
            if tres.predicted is None or not np.array_equal(tres.predicted, want):
                problems.append(f"{tid}: labels differ from the model's predict()")
            if sum(b.n_scored for b in tres.batches) != len(tres.pulse_batch):
                problems.append(f"{tid}: not every pulse was scored in-stream")
            rows = sum(len(o.spes) + len(o.clusters) for o in tres.observations)
            if sum(b.n_rows for b in tres.batches) != rows:
                problems.append(f"{tid}: streamed {sum(b.n_rows for b in tres.batches)} "
                                f"of {rows} generated rows")

    def one_round():
        """One timed round, then its checks; only a summary is kept, so the
        run's memory does not grow with the number of rounds."""
        gen0 = clock.stats["pipeline.generate"].total_s
        first_batch = len(batch_ms)
        if layers_probe is not None:
            layers_probe.start_round()
        result = run_serving(serving_config(len(gen_per_round)))
        gen_per_round.append(clock.stats["pipeline.generate"].total_s - gen0)
        rows = sum(b.n_rows for t in result.tenants.values() for b in t.batches)
        rows_per_s.append(rows / (1e-3 * sum(batch_ms[first_batch:])))
        check_round(result)
        return (result.n_batches, rows,
                sum(len(o.spes) for t in result.tenants.values() for o in t.observations))

    try:
        _, rounds, failed = run_for(seconds, one_round)
    finally:
        sessions.SessionManager.add_session = original_add
        clock.restore()
        if tracer is not None:
            tracer.restore()
        model_path.unlink(missing_ok=True)

    if any(m is not None for m in memos):
        problems.append("a tenant ran with a memo session; memoization must be off")
    problems = list(dict.fromkeys(problems))

    n_rows = sum(rows for _, rows, _ in rounds)
    e2e = {
        "setup_s": import_s + median(train_s) + median(gen_per_round),
        "op_p50_ms": median(batch_ms),
        "items_per_s": median(rows_per_s),
        "f_measure": min(f_values, default=0.0),
    }
    layers = {
        "setup.import_s": import_s,
        "setup.generate_s": median(gen_per_round),
    }
    p95 = tail_percentile(batch_ms, 95.0)
    if tracer is not None:
        layers.update(layers_probe.metrics())
        layers["sessions.batch_p95_ms"] = p95 if p95 is not None else 0.0
    n_batches = [n for n, _, _ in rounds]
    return Outcome(
        e2e=e2e, layers=layers,
        attempted=len(batch_ms) + len(failed), failed=failed, problems=problems,
        config={
            "execution": repr(resolve_execution(execution)), "memo": "off",
            "tenants": [(tid, weight, f"seed {tenant_seed(seed, 0, i)} + 2 x round mod "
                         f"{2 * N_PAIRS}")
                        for i, (tid, weight) in enumerate(TENANTS)],
            "batch_interval_s": BATCH_INTERVAL_S, "rounds": len(rounds),
            "batches_per_round": n_batches,
            "rows_per_round": n_rows // max(len(rounds), 1),
            "spes_per_round": [spes for _, _, spes in rounds],
            "batch_p95_ms": p95,
            "model_train_set": f"{TRAIN_POSITIVE} positives, {TRAIN_NEGATIVE} negatives",
        },
    )


class _ServeLayers:
    """Per-batch layer timers of the serving path (traced runs only)."""

    def __init__(self, tracer, batch_ms: list[float]) -> None:
        import repro.dfs.client as dfs_client
        import repro.sparklet.scheduler as scheduler
        import repro.streaming.engine as engine
        from repro.ml.forest import RandomForest
        from repro.streaming.serving import StreamScorer

        self.tracer = tracer
        self.batch_ms = batch_ms
        self.per_batch: list[dict[str, float]] = []
        self.state_rows_max = 0
        self.checkpoint_ms: list[float] = []
        self.score_ms: list[float] = []
        self.predict_s: list[float] = []
        tracer.hooks["engine.execute"] = self._on_execute
        tracer.hooks["scheduler.run_job"] = self._on_job
        tracer.hooks["streaming.checkpoint"] = (
            lambda _o, _a, e: self.checkpoint_ms.append(1e3 * e))
        tracer.hooks["serving.score"] = lambda _o, _a, e: self.score_ms.append(1e3 * e)
        tracer.hooks["ml.predict"] = lambda _o, _a, e: self.predict_s.append(e)
        tracer.wrap(engine.MicroBatchEngine, "cut_next_batch", "engine.cut")
        tracer.wrap(engine.MicroBatchEngine, "execute_batch", "engine.execute")
        tracer.wrap(engine, "write_checkpoint", "streaming.checkpoint")
        tracer.wrap(scheduler.DAGScheduler, "run_job", "scheduler.run_job")
        tracer.wrap(dfs_client.DFSClient, "put", "dfs.put")
        tracer.wrap(StreamScorer, "score", "serving.score")
        tracer.wrap(RandomForest, "predict", "ml.predict")
        self._mark()

    def start_round(self) -> None:
        self._mark()

    def _mark(self) -> None:
        st = self.tracer.stats
        self._base = {name: st[name].total_s for name in ("engine.cut", "dfs.put")}
        self._job = {"jobs": 0, "task_s": 0.0, "tasks": 0}

    def _on_job(self, out, _args, _elapsed) -> None:
        self._job["jobs"] += 1
        self._job["task_s"] += out[1].total_task_seconds
        self._job["tasks"] += out[1].num_tasks

    def _on_execute(self, _stats, args, elapsed) -> None:
        st = self.tracer.stats
        engine = args[0]
        self.state_rows_max = max(self.state_rows_max, engine.state.n_buffered_rows)
        self.per_batch.append({
            "cut_ms": 1e3 * (st["engine.cut"].total_s - self._base["engine.cut"]),
            "execute_ms": 1e3 * elapsed,
            "jobs": self._job["jobs"],
            "tasks": self._job["tasks"],
            "overhead_ms": 1e3 * (elapsed - self._job["task_s"]),
            "dfs_ms": 1e3 * (st["dfs.put"].total_s - self._base["dfs.put"]),
        })
        self._mark()

    def metrics(self) -> dict[str, float]:
        rows = self.per_batch
        pick = lambda key: [r[key] for r in rows]
        schedule = [b - r["cut_ms"] - r["execute_ms"] for b, r in zip(self.batch_ms, rows)]
        return {
            "streaming.cut_ms": median(pick("cut_ms")),
            "streaming.execute_ms": median(pick("execute_ms")),
            "sessions.schedule_ms": median(schedule),
            "sparklet.jobs_per_batch": median(pick("jobs")),
            "sparklet.job_overhead_ms": median(pick("overhead_ms")),
            "dfs.write_ms": median(pick("dfs_ms")),
            "streaming.checkpoint_ms": median(self.checkpoint_ms) if self.checkpoint_ms else 0.0,
            "serving.score_ms": median(self.score_ms) if self.score_ms else 0.0,
            "ml.predict_s": median(self.predict_s) if self.predict_s else 0.0,
            "streaming.state_rows_max": float(self.state_rows_max),
            "sparklet.tasks": median(pick("tasks")),
        }
