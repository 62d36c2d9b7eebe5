"""identify: D-RAPID over a GBT350Drift-like survey on the parallel backend.

This is the paper's Fig. 4 path: observations go into a fresh DFS, the
Sparklet job parses both files, shuffles them onto one partitioner, joins
and runs Algorithm 1 plus feature extraction per cluster, and the ML files
are read back.  Observations are deliberately uneven in size, so the search
stage has a slowest task, as on the paper's cluster.

The seed changes every draw inside an observation (pulse phases, SNRs, DMs,
noise and RFI) but not the size ladder or the observation keys.  Keys decide
partition placement, so every seed gives the same task layout and nearly the
same amount of work; that is what keeps the timings comparable across seeds.
"""

from __future__ import annotations

import time

from common import SETUP_REPEATS, Outcome, median, run_for

#: Worker processes of the parallel backend (the host this was tuned on has
#: two CPUs).
N_WORKERS = 2
#: Hash partitions of the D-RAPID job (PipelineConfig's default).
N_PARTITIONS = 8
#: One entry per observation: the period of its one in-beam pulsar (None:
#: noise and RFI only).  Shorter periods give more pulses, hence more SPEs;
#: the ladder spans roughly 500 to 9,000 SPEs per observation.
PERIODS = (None, 1.6, 0.9, 0.6, 0.45, 0.35, 0.28, 0.22, 0.15, 0.10, 0.06, 0.04)


def make_observations(seed: int) -> list:
    from repro.astro.population import Pulsar
    from repro.astro.survey import GBT350DRIFT, generate_observation

    observations = []
    for i, period in enumerate(PERIODS):
        pulsars = []
        if period is not None:
            pulsars.append(Pulsar(
                name=f"PSR-{i:04d}", period_s=period, dm=40.0 + 3.0 * i, width_ms=5.0,
                mean_snr=12.0, snr_sigma=0.3, pulse_fraction=0.8, is_rrat=False,
                sky_position=f"J{i:02d}00+1000",
            ))
        observations.append(generate_observation(
            GBT350DRIFT, pulsars, mjd=55000.0 + i, beam=0,
            n_noise_clusters=40, n_rfi_bursts=2, grid_coarsen=10.0,
            seed=seed * 1000 + i,
        ))
    return observations


def _keyed(batch) -> dict:
    keys = zip(batch.observation_key.tolist(), batch.cluster_id.tolist(),
               batch.spe_start.tolist(), batch.spe_stop.tolist())
    return {k: i for i, k in enumerate(keys)}


def check_pulses(batch, reference) -> tuple[float, list[str]]:
    """F-measure of ``batch`` against ``reference`` and the problems found.

    A pulse matches when its (observation, cluster, SPE range) key is in the
    reference and its features are equal.  No tolerance is needed: both
    paths run on the values of the SPE and cluster files (see
    :func:`as_written`), and the features agree bit for bit.
    """
    got, want = _keyed(batch), _keyed(reference)
    problems = []
    if len(got) != len(batch):
        problems.append("duplicate pulse keys in the output")
    common = [k for k in want if k in got]
    a = batch.features[[got[k] for k in common]]
    b = reference.features[[want[k] for k in common]]
    matched = int((a == b).all(axis=1).sum())
    if len(common) != len(want) or len(got) != len(want):
        problems.append(f"pulse keys differ from the single-machine reference: "
                        f"{len(want) - len(common)} missing, {len(got) - len(common)} extra")
    if matched != len(common):
        problems.append(f"{len(common) - matched} pulses have different features")
    if not matched:
        return 0.0, problems
    precision, recall = matched / len(batch), matched / len(reference)
    return 2 * precision * recall / (precision + recall), problems


def as_written(obs):
    """The observation as D-RAPID reads it back from its SPE and cluster files.

    Both files carry DM and SNR at 3 decimals and times at 6.  Algorithm 1
    is sensitive to the last bits of the DMs: on the unrounded in-memory
    values (ladder DMs such as 8.200000000000001) it can end a pulse one SPE
    later than on the values in the files, so the single-machine reference
    runs on the values D-RAPID reads.
    """
    from dataclasses import replace

    spes = [replace(s, dm=round(s.dm, 3), snr=round(s.snr, 3), time_s=round(s.time_s, 6))
            for s in obs.spes]
    clusters = [replace(c, dm_lo=round(c.dm_lo, 3), dm_hi=round(c.dm_hi, 3),
                        t_lo=round(c.t_lo, 6), t_hi=round(c.t_hi, 6)) for c in obs.clusters]
    return replace(obs, spes=spes, clusters=clusters, _spe_batch=None)


def reference_pulses(observations):
    """Single-machine RAPID (no Sparklet, DFS or shuffle) on the same inputs."""
    from repro.core.rapid import run_rapid_observation_batch
    from repro.dataplane import PulseBatch

    return PulseBatch.concat(
        [run_rapid_observation_batch(as_written(o)).pulse_batch for o in observations]
    )


def _stage_split(job_metrics):
    parse = [s for s in job_metrics.stages if s.is_shuffle_map]
    search = [s for s in job_metrics.stages if not s.is_shuffle_map]
    return parse, search


def run(seed: int, seconds: float, tracer, t_start: float) -> Outcome:
    import repro.io.spe_files as spe_files
    from repro.api import ExecutionConfig, KernelConfig, MemoConfig, PipelineConfig, run_drapid
    from repro.dfs import DataNode, DFSClient
    from repro.execution import resolve_execution
    from repro.sparklet import executor
    from repro.sparklet.context import SparkletContext

    import_s = time.perf_counter() - t_start
    execution = ExecutionConfig(backend="parallel", num_workers=N_WORKERS,
                                kernel=KernelConfig(method="direct", impl="numpy"))
    config = PipelineConfig(survey="GBT350Drift", seed=seed, num_partitions=N_PARTITIONS,
                            execution=execution, memo_config=MemoConfig(enabled=False))
    resolved = resolve_execution(execution)

    def one_pass(observations, ctx):
        dfs = DFSClient([DataNode(f"dn{i}") for i in range(4)], replication=2)
        result = run_drapid(config, observations, dfs=dfs, ctx=ctx)
        return result, spe_files.read_ml_batch(dfs, result.ml_output_path)

    def new_context(backend):
        return SparkletContext(app_name="drapid", default_parallelism=4,
                               backend=backend, num_workers=resolved.num_workers,
                               memo=None)

    worker_pids: set[int] = set()
    gen_s, pool_s, setups = [], [], []
    ctx = None
    try:
        for _ in range(SETUP_REPEATS):
            if ctx is not None:
                worker_pids.update(executor.get_pool().worker_pids().values())
                ctx.close()
                executor.shutdown_pool()
            t0 = time.perf_counter()
            observations = make_observations(seed)
            t1 = time.perf_counter()
            ctx = new_context(resolved.backend)
            one_pass(observations, ctx)  # spawns the workers and warms them up
            t2 = time.perf_counter()
            gen_s.append(t1 - t0)
            pool_s.append(t2 - t1)
            setups.append(t2 - t0)
        worker_pids.update(executor.get_pool().worker_pids().values())

        if tracer is not None:
            tracer.wrap(spe_files, "upload_observations", "io.upload")
        jobs = []

        def timed_pass():
            if tracer is None:
                return one_pass(observations, ctx)[1]
            upload_before = tracer.stats["io.upload"].total_s
            result, batch = one_pass(observations, ctx)
            jobs.append((result.metrics, ctx.all_job_metrics(),
                         tracer.stats["io.upload"].total_s - upload_before))
            return batch

        samples, outputs, failed = run_for(seconds, timed_pass)
        memo_hits = 0 if ctx.runtime.memo is None else ctx.runtime.memo.store.stats.hits
        worker_pids.update(executor.get_pool().worker_pids().values())
    finally:
        if tracer is not None:
            tracer.restore()
        if ctx is not None:
            ctx.close()
        executor.shutdown_pool()

    reference = reference_pulses(observations)
    f_values, problems = [], []
    for batch in outputs:
        f, found = check_pulses(batch, reference)
        f_values.append(f)
        problems.extend(p for p in found if p not in problems)
    if memo_hits:
        problems.append(f"memo cache served {memo_hits} hits; memoization must be off")

    n_spes = sum(len(o.spes) for o in observations)
    e2e = {
        "setup_s": import_s + median(setups),
        "op_p50_ms": 1e3 * median(samples),
        "items_per_s": median([n_spes / s for s in samples]),
        "f_measure": min(f_values, default=0.0),
    }
    layers = {
        "setup.import_s": import_s,
        "setup.generate_s": median(gen_s),
        "setup.pool_s": median(pool_s),
    }
    if tracer is not None:
        layers.update(_sparklet_layers(jobs))
        layers.update(_serial_core_layers(observations, config, new_context, tracer))

    sizes = sorted(len(o.spes) for o in observations)
    return Outcome(
        e2e=e2e, layers=layers, attempted=len(samples) + len(failed), failed=failed,
        problems=problems,
        config={"execution": repr(resolved), "num_partitions": N_PARTITIONS,
                "memo": "off", "observations": len(observations),
                "spes_min_median_max": [sizes[0], sizes[len(sizes) // 2], sizes[-1]],
                "spes_total": n_spes, "pulses": len(reference)},
        worker_pids=sorted(worker_pids),
    )


def _sparklet_layers(jobs) -> dict[str, float]:
    parse_s, search_s, search_max, skew, shuffle_mb, tasks, diag_s, upload_s = (
        [], [], [], [], [], [], [], [])
    for production, everything, upload in jobs:
        parse, search = _stage_split(production)
        durations = [t.duration_s for s in search for t in s.tasks]
        parse_s.append(sum(s.total_task_seconds for s in parse))
        search_s.append(sum(durations))
        search_max.append(max(durations))
        skew.append(max(durations) / (sum(durations) / len(durations)))
        shuffle_mb.append(sum(s.total_shuffle_write for s in parse) / 1e6)
        tasks.append(production.num_tasks)
        diag = everything.stages[len(production.stages):]
        diag_s.append(sum(s.total_task_seconds for s in diag))
        upload_s.append(upload)
    return {
        "io.upload_s": median(upload_s),
        "sparklet.parse_task_s": median(parse_s),
        "sparklet.shuffle_write_mb": median(shuffle_mb),
        "sparklet.search_task_s": median(search_s),
        "sparklet.search_task_max_s": median(search_max),
        "sparklet.search_skew": median(skew),
        "sparklet.tasks": median(tasks),
        "drapid.diagnostics_s": median(diag_s),
    }


#: Serial passes made to attribute time inside tasks.
SERIAL_PASSES = 3


def _serial_core_layers(observations, config, new_context, tracer) -> dict[str, float]:
    """Algorithm 1 and feature time, traced where every task runs in-process."""
    import repro.core.drapid as drapid
    import repro.core.rapid as rapid
    from repro.api import run_drapid

    tracer.wrap(drapid, "run_rapid_on_cluster_batch", "core.rapid")
    tracer.wrap(rapid, "extract_pulse_features_matrix", "core.features")
    rapid_s, features_s = [], []
    ctx = new_context("serial")
    try:
        for _ in range(SERIAL_PASSES):
            rapid0 = tracer.stats["core.rapid"].self_s
            features0 = tracer.stats["core.features"].total_s
            run_drapid(config, observations, ctx=ctx)
            rapid_s.append(tracer.stats["core.rapid"].self_s - rapid0)
            features_s.append(tracer.stats["core.features"].total_s - features0)
    finally:
        tracer.restore()
        ctx.close()
    return {"core.rapid_s": median(rapid_s), "core.features_s": median(features_s)}
