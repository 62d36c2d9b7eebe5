"""classify: the paper's best labelling and learning configuration.

Each pass labels a GBT350Drift-like set with ALM scheme 8, ranks the
features by InfoGain on the paper's feature-selection fold, keeps the top
ten and runs 3-fold RandomForest cross-validation on the remaining
instances.  It loads ``core.alm`` and ``ml`` (ranking, fit, predict) and
nothing else; the labelled set is built once at set-up.

As in the paper, the labelled set is one fixed set and the seed draws the
cross-validation: pass ``j`` of a run draws its folds from ``1000 x seed +
j``.  The folds decide which ten features are kept and so how deep the
trees grow: with one fold draw per run, pass time moved by 0.44-0.62 s
between draws on one set.  A run's median over a fresh draw per pass
measures the typical pass, not one draw's luck.  A set drawn from the seed
as well made the hardest sets the slowest: over ten seeds pass time ran
382-603 ms and F 0.92-0.97, together.
"""

from __future__ import annotations

import itertools
import time

from common import SETUP_REPEATS, Outcome, median, run_for

#: Pulsar and non-pulsar instances (about 1:20, as in the paper's sets).
N_POSITIVE, N_NEGATIVE = 120, 2400
N_PULSARS = 48
#: The pulsar population and the observations of the set.  With 24 sources
#: drawn from the seed, a 150/3,000 set swung between easy and hard mixes of
#: sources: pass time ranged 0.34-0.82 s and F 0.85-0.98 over six seeds.
POPULATION_SEED = 1
SET_SEED = 0
SCHEME = "8"
TOP_K = 10
N_FOLDS = 3
N_TREES = 15
#: Floors on a run's median recall and F-measure, from the paper's best
#: GBT350Drift configuration (recall about 0.96, F-measure about 0.95), less
#: a margin for this smaller set: over 20 seeds recall ran 0.858-0.98 and F
#: 0.90-0.98, so the floors catch a broken classifier, not the spread
#: between seeds or fold draws.
RECALL_FLOOR = 0.96 - 0.16
F_FLOOR = 0.95 - 0.13


def build_set(seed: int, n_positive: int = N_POSITIVE, n_negative: int = N_NEGATIVE):
    """A labelled set, built as ``astro.benchmark.build_benchmark`` builds it
    (same observation recipe and per-class caps) but on the fixed population."""
    import numpy as np

    from repro.astro import GBT350DRIFT, generate_observation, synthesize_population
    from repro.astro.benchmark import Benchmark
    from repro.core.rapid import run_rapid_observation_batch
    from repro.dataplane import PulseBatch

    population = synthesize_population(N_PULSARS, rrat_fraction=0.15,
                                       max_dm=GBT350DRIFT.max_dm * 0.6, seed=POPULATION_SEED)
    rng = np.random.default_rng(seed)
    chunks, n_pos, n_neg, obs_i = [], 0, 0, 0
    while n_pos < n_positive or n_neg < n_negative:
        in_beam = [population[(obs_i * 2 + j) % N_PULSARS]
                   for j in range(int(rng.integers(1, 3)))]
        obs = generate_observation(
            GBT350DRIFT, in_beam if n_pos < n_positive else [], mjd=55000.0 + obs_i,
            n_noise_clusters=110, n_rfi_bursts=4, n_pulse_mimics=45,
            seed=seed * 1000 + obs_i, obs_length_s=90.0,
        )
        batch = run_rapid_observation_batch(obs).pulse_batch
        pos = np.nonzero(batch.is_pulsar)[0][:n_positive - n_pos]
        neg = np.nonzero(~batch.is_pulsar)[0][:n_negative - n_neg]
        chunks.append(batch.take(np.sort(np.concatenate([pos, neg]))))
        n_pos, n_neg, obs_i = n_pos + pos.size, n_neg + neg.size, obs_i + 1
    batch = PulseBatch.concat(chunks)
    batch = batch.take(np.argsort(rng.random(len(batch))))
    return Benchmark(
        survey_name=GBT350DRIFT.name, features=batch.features, is_pulsar=batch.is_pulsar,
        is_rrat=np.asarray(batch.is_rrat), source_names=batch.source_name.tolist(),
        pulses=[], pulse_batch=batch,
    )


def one_pass(bench, seed: int):
    import repro.core.alm as alm
    import repro.ml.feature_selection as fs
    from repro.ml.forest import RandomForest
    from repro.ml.validation import cross_validate, paper_protocol_split

    scheme = alm.ALM_SCHEMES[SCHEME]
    labels = alm.label_instances(scheme, bench.features, bench.is_pulsar, bench.is_rrat,
                                 source_names=bench.source_names)
    fs_idx, rest = paper_protocol_split(labels, seed=seed)
    merits = fs.rank_features("IG", bench.features[fs_idx], labels[fs_idx])
    top = fs.select_top_k(merits, TOP_K)
    report = cross_validate(
        lambda: RandomForest(n_trees=N_TREES, seed=0),
        bench.features[rest], labels[rest], n_folds=N_FOLDS,
        positive_collapse=scheme, feature_subset=top, seed=seed,
    )
    return labels, rest, top, report


def pass_seed(seed: int, j: int) -> int:
    return 1000 * seed + j


def check_report(bench, labels, rest, report, seed: int) -> list[str]:
    """Recompute recall, precision and F from per-instance outcomes and truth."""
    import numpy as np

    import repro.core.alm as alm
    from repro.ml.validation import stratified_kfold

    problems = []
    truth = bench.is_pulsar.astype(bool)
    if not np.array_equal(alm.binarize(SCHEME, labels).astype(bool), truth):
        problems.append("ALM labels disagree with the is_pulsar truth")
    truth_rest = truth[rest]
    if sorted(report.instance_correct) != list(range(len(rest))):
        return problems + ["report does not cover every instance exactly once"]
    correct = np.array([report.instance_correct[i] for i in range(len(rest))])
    recalls, precisions, fs_ = [], [], []
    for _train, test in stratified_kfold(labels[rest], N_FOLDS, seed=seed):
        pos, ok = truth_rest[test], correct[test]
        tp = int((pos & ok).sum())
        fn = int((pos & ~ok).sum())
        fp = int((~pos & ~ok).sum())
        r = tp / (tp + fn) if tp + fn else 0.0
        p = tp / (tp + fp) if tp + fp else 0.0
        recalls.append(r)
        precisions.append(p)
        fs_.append(2 * p * r / (p + r) if p + r else 0.0)
    for name, mine, theirs in (("recall", recalls, report.recall),
                               ("precision", precisions, report.precision),
                               ("f_measure", fs_, report.f_measure)):
        if abs(sum(mine) / len(mine) - theirs) > 1e-12:
            problems.append(f"{name}: report {theirs!r}, recomputed {sum(mine) / len(mine)!r}")
    return problems


def run(seed: int, seconds: float, tracer, t_start: float) -> Outcome:
    import repro.core.alm as alm
    import repro.ml.feature_selection as fs
    import repro.ml.validation  # noqa: F401  (imported here so import_s covers it)
    from repro.ml.forest import RandomForest

    import_s = time.perf_counter() - t_start
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        bench = build_set(SET_SEED)
        setups.append(time.perf_counter() - t0)

    nodes: list[float] = []
    if tracer is not None:
        tracer.hooks["ml.fit"] = lambda forest, _a, _e: nodes.append(forest.stats()["nodes"])
        tracer.wrap(alm, "label_instances", "alm.label")
        tracer.wrap(fs, "rank_features", "ml.rank")
        tracer.wrap(RandomForest, "fit", "ml.fit")
        tracer.wrap(RandomForest, "predict", "ml.predict")
    per_pass: list[dict[str, float]] = []

    pass_index = itertools.count()

    def timed_pass():
        j = next(pass_index)
        before = {k: v.total_s for k, v in tracer.stats.items()} if tracer else {}
        out = one_pass(bench, pass_seed(seed, j))
        if tracer is not None:
            per_pass.append({k: v.total_s - before[k] for k, v in tracer.stats.items()})
        return j, out

    try:
        samples, outputs, failed = run_for(seconds, timed_pass)
    finally:
        if tracer is not None:
            tracer.restore()

    problems = []
    for j, (labels, rest, _top, report) in outputs:
        problems.extend(p for p in check_report(bench, labels, rest, report, pass_seed(seed, j))
                        if p not in problems)
    f_values = [out[3].f_measure for _j, out in outputs]
    recall = median([out[3].recall for _j, out in outputs]) if outputs else 0.0
    if recall < RECALL_FLOOR:
        problems.append(f"median recall {recall:.3f} below floor {RECALL_FLOOR:.2f}")
    if outputs and median(f_values) < F_FLOOR:
        problems.append(f"median F-measure {median(f_values):.3f} below floor {F_FLOOR:.2f}")
    if outputs and one_pass(bench, pass_seed(seed, outputs[0][0]))[3].f_measure != f_values[0]:
        problems.append("a repeated pass gives another F-measure than the first")

    e2e = {
        "setup_s": import_s + median(setups),
        "op_p50_ms": 1e3 * median(samples),
        "items_per_s": median([bench.n_instances / s for s in samples]),
        "f_measure": median(f_values) if f_values else 0.0,
    }
    layers = {"setup.import_s": import_s, "setup.generate_s": median(setups)}
    if tracer is not None:
        for name, key in (("alm.label_s", "alm.label"), ("ml.rank_s", "ml.rank"),
                          ("ml.fit_s", "ml.fit"), ("ml.predict_s", "ml.predict")):
            layers[name] = median([p[key] for p in per_pass])
        layers["ml.tree_nodes"] = median(nodes)
    first = outputs[0][1] if outputs else None
    report = first[3] if first else None
    return Outcome(
        e2e=e2e, layers=layers, attempted=len(samples) + len(failed), failed=failed,
        problems=problems,
        config={
            "instances": bench.n_instances, "positives": bench.n_positive,
            "rrat": bench.n_rrat, "scheme": SCHEME, "top_k": TOP_K, "folds": N_FOLDS,
            "trees": N_TREES, "features_kept": first[2] if first else None,
            "recall_precision_f": (report.recall, report.precision, report.f_measure)
            if report else None,
        },
    )
