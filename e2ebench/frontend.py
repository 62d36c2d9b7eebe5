"""frontend: filterbank blocks through dedispersion, boxcar search and DBSCAN.

Synthetic blocks with injected dispersed pulses of known DM, time and width
go through the public kernel functions with the default ``KernelConfig``:
``dedisperse_grid``, ``single_pulse_block_search``, ``spes_from_search``,
then ``SinglePulseDBSCAN.fit_batch``.  It loads ``astro.kernels``,
``astro.spe`` and ``astro.clustering`` and no other layer.

Two shapes, each in ascending and in descending channel order (descending,
negative foff, is the SIGPROC convention):

- GBT350Drift-like, 128 channels x 2268 DMs x 2048 samples, where direct
  dedispersion is the fastest method today (direct 0.31 s, subband 0.50 s,
  tree 0.92 s on the reference host);
- PALFA-like, 128 channels x 1950 DMs x 2048 samples, where direct is the
  slowest (direct 0.36 s, subband 0.19 s, tree 0.26 s).

A method chosen from the input shape can show its gain on one shape and
must not lose on the other.  Routing the descending blocks through subband
today fails with ``ValueError: negative shift``; such a failure is counted
as a failed operation, one per block.

Set-up draws ``REALISATIONS`` sets of the four blocks, from seeds
``1000 x seed + r``; pass ``j`` of a run searches set ``j mod
REALISATIONS``.  DBSCAN's cost follows the SPE count, and the SPE count
follows the noise (see ``PULSES``).
"""

from __future__ import annotations

import itertools
import time

from common import SETUP_REPEATS, Outcome, median, run_for

#: (survey preset, channels, DM-grid coarsening, samples).
SHAPES = (("GBT350Drift", 128, 3, 2048), ("PALFA", 128, 4, 2048))
#: Injected pulses per block: (width ms, DM as a fraction of the shape's DM
#: range, per-channel amplitude in units of the channel noise sigma).  The
#: seed draws each pulse's arrival time and the noise.  DMs sit inside one
#: spacing band of the trial grid and low enough that every sweep lies
#: wholly inside the block.
#:
#: The amplitudes decide how many SPEs each pulse spreads over, hence
#: DBSCAN's share of the pass (its cost grows faster than linearly in the
#: SPE count), and the SPE count follows the noise.  At 0.25 for all three
#: and a 6-sigma threshold the wide pulses peaked at SNR 14-18, a pass
#: emitted 9,200-14,700 SPEs over eight seeds and DBSCAN took 0.74-1.59 s of
#: a 3.5-4.4 s pass.  The narrow pulse, though, peaked at SNR 10.1 (median)
#: and as low as 6.95 over about 150 draws.  So the narrow pulse is brighter
#: and the wide ones dimmer: at the 7-sigma threshold each pulse's median
#: peak SNR (12.7-15.4) lies at least 4 of its standard deviations above
#: it, a pass emits 4,200-6,000 SPEs and DBSCAN takes 0.21-0.51 s.
PULSES = ((0.6, 0.1, 0.32), (1.0, 0.5, 0.22), (1.4, 0.9, 0.2))
DM_RANGE = {"GBT350Drift": (1.5, 4.5), "PALFA": (35.0, 75.0)}
SNR_THRESHOLD = 7.0
REALISATIONS = 3
#: A pulse counts as found when an SPE lies within this many samples of its
#: arrival at the top of the band (plus the SPE's own boxcar width, since
#: windows are left-aligned) and within this many DM steps of its DM.
SAMPLE_WINDOW = 8
DM_STEP_WINDOW = 3.0
#: The SPE's SNR against the benchmark's own float64 shift-and-add: the
#: search runs in float64 too, so only summation order and the SPE's
#: three-decimal rounding separate them.
SNR_TOL = 2e-3


def make_blocks(seed: int) -> list[dict]:
    """Both shapes in both channel orders, with the injected truth."""
    import numpy as np

    from repro.astro import GBT350DRIFT, PALFA
    from repro.astro.filterbank import InjectedPulse, synthesize_filterbank

    surveys = {"GBT350Drift": GBT350DRIFT, "PALFA": PALFA}
    rng = np.random.default_rng(seed)
    blocks = []
    for i, (name, n_chan, coarsen, n_samp) in enumerate(SHAPES):
        survey = surveys[name]
        f_lo = survey.center_freq_mhz - survey.bandwidth_mhz / 2.0
        f_hi = survey.center_freq_mhz + survey.bandwidth_mhz / 2.0
        duration = n_samp * survey.sample_time_s
        dm_lo, dm_hi = DM_RANGE[name]
        pulses = [
            InjectedPulse(
                time_s=float(duration * (0.1 + 0.1 * k + 0.05 * rng.random())),
                dm=dm_lo + at * (dm_hi - dm_lo), width_ms=width, amplitude=amplitude,
            )
            for k, (width, at, amplitude) in enumerate(PULSES)
        ]
        fb = synthesize_filterbank(
            duration_s=duration, n_channels=n_chan, f_low_mhz=f_lo, f_high_mhz=f_hi,
            sample_time_s=survey.sample_time_s, pulses=pulses, seed=seed * 10 + i,
        )
        grid = survey.dm_grid(coarsen=coarsen)
        common = dict(shape=name, grid=grid, trial_dms=grid.trial_dms(), f_ref=f_hi,
                      sample_time_s=survey.sample_time_s, pulses=pulses)
        freqs = fb.channel_freqs_mhz
        blocks.append(dict(common, order="ascending", data=fb.data, freqs=freqs))
        blocks.append(dict(common, order="descending", data=fb.data[::-1].copy(),
                           freqs=freqs[::-1].copy()))
    return blocks


def search_block(block: dict) -> tuple[list, object]:
    """One block through the front end: SPEs, then their DBSCAN clusters."""
    import repro.astro.kernels as kernels
    import repro.astro.spe as spe
    from repro.astro.survey import default_clusterer
    from repro.dataplane import SPEBatch

    trial_dms = block["trial_dms"]
    dedispersed = kernels.dedisperse_grid(block["data"], block["freqs"], block["f_ref"],
                                          block["sample_time_s"], trial_dms)
    found = kernels.single_pulse_block_search(dedispersed, SNR_THRESHOLD)
    spes = spe.spes_from_search(trial_dms, block["sample_time_s"], *found)
    batch = SPEBatch.from_records(spes)
    grid = block["grid"]
    _labels, clusters = default_clusterer(grid).fit_batch(
        batch, batch.dm / grid.spacing_of(batch.dm))
    return spes, clusters


def own_snr(block: dict, dm: float, sample: int, width: int) -> float:
    """SNR of one boxcar window, by the benchmark's own float64 arithmetic."""
    import numpy as np

    from repro.astro.dispersion import K_DM

    data = block["data"]
    n_chan, n = data.shape
    series = np.zeros(n)
    for ch, f in enumerate(block["freqs"]):
        shift = int(round(K_DM * dm * (f ** -2.0 - block["f_ref"] ** -2.0)
                          / block["sample_time_s"]))
        if shift < n:
            series[: n - shift] += data[ch, shift:].astype(np.float64)
    series /= np.sqrt(n_chan)
    med = float(np.median(series))
    sigma = max(1.4826 * float(np.median(np.abs(series - med))), 1e-9)
    window = series[sample: sample + width].sum()
    return (window / np.sqrt(width) - np.sqrt(width) * med) / sigma


def check_block(block: dict, spes: list) -> tuple[int, list[str]]:
    """(injected pulses found, problems) for one block's SPEs."""
    import numpy as np

    problems = []
    grid, ts = block["grid"], block["sample_time_s"]
    dms = np.array([s.dm for s in spes])
    samples = np.array([s.sample for s in spes])
    widths = np.array([s.downfact for s in spes])
    found = 0
    for pulse in block["pulses"]:
        step = grid.spacing_at(pulse.dm)
        near = np.nonzero(
            (np.abs(dms - pulse.dm) <= DM_STEP_WINDOW * step)
            & (samples >= pulse.time_s / ts - SAMPLE_WINDOW - widths)
            & (samples <= pulse.time_s / ts + SAMPLE_WINDOW)
        )[0]
        if not near.size:
            problems.append(f"{block['shape']}/{block['order']}: pulse at DM "
                            f"{pulse.dm:.2f}, t={pulse.time_s:.4f} s not found")
            continue
        found += 1
        best = spes[int(near[np.argmax([spes[j].snr for j in near])])]
        mine = own_snr(block, best.dm, best.sample, best.downfact)
        if abs(mine - best.snr) > SNR_TOL:
            problems.append(f"{block['shape']}/{block['order']}: SPE SNR {best.snr} "
                            f"vs {mine:.4f} by float64 shift-and-add")
    return found, problems


def check_twins(asc: list, desc: list, label: str) -> list[str]:
    """Descending and ascending twins give the same SPEs.

    Direct dedispersion is exact per channel order; reversing the channels
    reorders the float64 sums, which moves an SNR by far less than the
    three-decimal rounding of the SPE record.
    """
    a = {(s.dm, s.sample, s.downfact): s.snr for s in asc}
    d = {(s.dm, s.sample, s.downfact): s.snr for s in desc}
    if a.keys() != d.keys():
        return [f"{label}: descending block gives {len(d.keys() - a.keys())} extra and "
                f"{len(a.keys() - d.keys())} missing SPEs against its ascending twin"]
    worst = max((abs(a[k] - d[k]) for k in a), default=0.0)
    if worst > 1.5e-3:
        return [f"{label}: twin SNRs differ by up to {worst}"]
    return []


def run(seed: int, seconds: float, tracer, t_start: float) -> Outcome:
    import repro.astro.kernels as kernels
    import repro.astro.spe as spe
    from repro.astro.clustering import SinglePulseDBSCAN
    from repro.execution import KernelConfig

    import_s = time.perf_counter() - t_start
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        sets = [make_blocks(1000 * seed + r) for r in range(REALISATIONS)]
        setups.append(time.perf_counter() - t0)

    if tracer is not None:
        tracer.wrap(kernels, "dedisperse_grid", "kernels.dedisperse")
        tracer.wrap(kernels, "single_pulse_block_search", "kernels.boxcar")
        tracer.wrap(spe, "spes_from_search", "spe.emit")
        tracer.wrap(SinglePulseDBSCAN, "fit_batch", "clustering.dbscan")
    per_pass: list[dict[str, float]] = []
    failed: list[str] = []
    n_spes: list[int] = []

    pass_index = itertools.count()
    # The outputs checked: the first pass over each set and the last pass of
    # the run.  The others are dropped, so memory does not grow with the run.
    first: dict[int, list] = {}
    last: list[tuple[int, list]] = []

    def one_pass():
        r = next(pass_index) % REALISATIONS
        blocks = sets[r]
        before = {k: v.total_s for k, v in tracer.stats.items()} if tracer else {}
        outputs = []
        for block in blocks:
            try:
                outputs.append(search_block(block))
            except Exception as exc:  # one failed block is one failed operation
                failed.append(f"{block['shape']}/{block['order']}: "
                              f"{type(exc).__name__}: {exc}")
                outputs.append(None)
        n_spes.append(sum(len(o[0]) for o in outputs if o is not None))
        if tracer is not None:
            per_pass.append({k: v.total_s - before[k] for k, v in tracer.stats.items()})
        first.setdefault(r, outputs)
        last[:] = [(r, outputs)]

    try:
        samples, _, errors = run_for(seconds, one_pass)
    finally:
        if tracer is not None:
            tracer.restore()

    problems = [f"pass raised {e}" for e in errors]
    recalls = []
    for r, outputs in list(first.items()) + last:
        blocks = sets[r]
        found = 0
        for block, out in zip(blocks, outputs):
            if out is None:
                continue
            n, found_problems = check_block(block, out[0])
            found += n
            problems.extend(p for p in found_problems if p not in problems)
        for i in range(0, len(blocks), 2):
            if outputs[i] is not None and outputs[i + 1] is not None:
                problems.extend(p for p in check_twins(outputs[i][0], outputs[i + 1][0],
                                                       blocks[i]["shape"])
                                if p not in problems)
        attempted_pulses = sum(len(b["pulses"]) for b, o in zip(blocks, outputs)
                               if o is not None)
        recalls.append(found / attempted_pulses if attempted_pulses else 0.0)

    blocks = sets[0]
    cells = sum(b["data"].size for b in blocks)
    e2e = {
        "setup_s": import_s + median(setups),
        "op_p50_ms": 1e3 * median(samples),
        "items_per_s": median([cells / s for s in samples]),
        "f_measure": min(recalls, default=0.0),
    }
    layers = {"setup.import_s": import_s, "setup.generate_s": median(setups)}
    if tracer is not None:
        for name, key in (("kernels.dedisperse_s", "kernels.dedisperse"),
                          ("kernels.boxcar_s", "kernels.boxcar"),
                          ("spe.emit_s", "spe.emit"),
                          ("clustering.dbscan_s", "clustering.dbscan")):
            layers[name] = median([p[key] for p in per_pass])
        layers["kernels.dedisperse_gop"] = sum(
            len(b["trial_dms"]) * b["data"].size for b in blocks) / 1e9
        layers["frontend.spes"] = median(n_spes)
    kernel = KernelConfig().resolved()
    return Outcome(
        e2e=e2e, layers=layers,
        attempted=len(samples) * len(blocks) + len(errors), failed=failed,
        problems=problems,
        config={
            "kernel": repr(kernel),
            "blocks": [(b["shape"], b["order"], b["data"].shape[0], len(b["trial_dms"]),
                        b["data"].shape[1]) for b in blocks],
            "pulses": [(b["shape"], round(p.dm, 2), round(p.time_s, 4), round(p.width_ms, 2),
                        round(p.amplitude, 2)) for b in blocks[::2] for p in b["pulses"]],
            "snr_threshold": SNR_THRESHOLD,
            "spes_per_pass": n_spes[0] if n_spes else 0,
        },
    )
