#!/usr/bin/env python3
"""Host-time benchmark of the persistent-thread BFS simulator.

Run from the repository root::

    python3 hostbench/run.py --workload road-rfan --seed 3 --seconds 15 --trace 0

One process, one thread, a closed loop of back-to-back launches.  After
set-up, whole rounds (one launch of every config of the workload) run
until ``--seconds`` have passed and at least ``MIN_LAUNCHES`` launches
were measured.  Every launch is checked outside its timed span; a launch
that raises or fails a check is counted in ``failed`` and never enters
the timings.

Reported seconds are host seconds at the reference speed: each timed
span is scaled by ``PROBE_REF_S`` over the median seconds of the speed
probes run right around it (see README.md).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics; its spans are written to ``hostbench/out/``.  The last
line of stdout is the JSON result.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from heapq import heappop, heappush  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

#: set-ups per run; ``setup_s`` is the imports plus their median.
SETUP_REPEATS = 3
#: measured launches at least: enough for a tail percentile (ten
#: samples beyond it) that lies well above the median.
MIN_LAUNCHES = 25
#: iterations of the speed probe, about 40 ms of host time.
PROBE_ROUNDS = 24_000
#: typical host seconds of the speed probe on the reference machine, a
#: 2-vCPU Xeon VM at 2.1 GHz.
PROBE_REF_S = 0.040

WORKLOAD_NAMES = ("road-rfan", "synthetic-rfan", "variant-mix", "road-flight")
VARIANTS = ("base", "an", "rfan", "grow", "sharded", "sharded_imb", "spill")


def speed_probe() -> float:
    """Host seconds of a fixed loop shaped like the simulator's hot path:
    heap pushes and pops, generator resumes through ``yield from``, dict
    updates and small NumPy gathers/scatters.

    The machine's speed drifts by up to 1.6x over tens of seconds; timing
    this probe next to each launch lets the benchmark scale that drift
    out.  The probe runs none of the simulator's code, so a change to the
    simulator cannot move it.
    """
    t0 = time.perf_counter()
    lanes = np.arange(64, dtype=np.int64)
    buf = np.zeros(4096, dtype=np.int64)
    heap = []
    counts = {}

    def inner():
        x = 0
        while True:
            x = yield x + 1

    def outer():
        yield from inner()

    gen = outer()
    next(gen)
    for i in range(PROBE_ROUNDS):
        heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 56:
            t, j = heappop(heap)
            gen.send(j)
            counts[t & 63] = counts.get(t & 63, 0) + 1
        if i & 7 == 0:
            buf[(lanes + i) & 4095] += 1
    return time.perf_counter() - t0


def tail(samples):
    """``(value, percentile)`` at the highest percentile with at least
    ten samples beyond it (the maximum when there are fewer than 11)."""
    s = sorted(samples)
    i = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[i], 100.0 * (i + 1) / len(s)


def end_to_end(outcomes, setup_s):
    good = [o for o in outcomes if o.ok]
    secs = [o.seconds * o.scale for o in good]
    if secs:
        p50 = statistics.median(secs)
        tail_s, pct = tail(secs)
        ops_per_s = sum(o.issued_ops for o in good) / sum(secs)
        raw = statistics.median(o.seconds for o in good)
        speed = statistics.median(o.scale for o in good)
    else:
        p50 = tail_s = pct = ops_per_s = raw = speed = 0.0
    print(f"measured {len(secs)} launches; launch_s_tail is p{pct:.1f}; "
          f"unscaled launch median {raw:.4f} s; median scale {speed:.3f}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "sim_ops_per_s": (ops_per_s, "1/s"),
        "launch_s_p50": (p50, "s"),
        "launch_s_tail": (tail_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(wl, rotation, untraced_rounds, traced_rounds, rec, setup_scale, problems):
    """Per-layer metrics from the traced rounds (see README.md)."""
    from spans import self_times

    name, dur, parent, launch = rec.arrays()
    selft = self_times(parent, dur)
    n = len(rec.names)
    nid = {nm: i for i, nm in enumerate(rec.names)}
    n_launch = int(launch.max()) + 1
    traced = launch >= 0
    key = launch[traced] * n + name[traced]
    self_by = np.bincount(key, weights=selft[traced], minlength=n_launch * n)
    self_by = self_by.reshape(n_launch, n)
    count_by = np.bincount(key, minlength=n_launch * n).reshape(n_launch, n)

    seconds = []  # layer seconds per launch, one dict per traced round
    counts = []  # exact counts per round, one dict per traced round
    for lids, outs in traced_rounds:
        k = len(outs)
        scaled = sum(self_by[lid] * o.scale for lid, o in zip(lids, outs)) / k
        spans = count_by[lids].sum(axis=0)
        engine_s = scaled[nid["simt.engine"]]
        seconds.append({
            "simt.engine.self_s": engine_s,
            "simt.engine.self_frac": engine_s * k / sum(o.seconds * o.scale for o in outs),
            "simt.atomics.service_s": scaled[nid["simt.atomics"]],
            "core.scheduler.self_s": (
                scaled[nid["core.scheduler"]] + scaled[nid["core.scheduler.close"]]),
            "core.queue.acquire_s": scaled[nid["core.queue.acquire"]],
            "core.queue.publish_s": scaled[nid["core.queue.publish"]],
            "bfs.worker.self_s": scaled[nid["bfs.worker"]],
            "obs.probe.self_s": scaled[nid["obs.probe"]],
            "obs.watchdog.poll_s": scaled[nid["obs.watchdog"]],
        })

        ops = sum(o.issued_ops for o in outs)
        custom, ex, pc = {}, {}, {}
        for o in outs:
            for total, part in ((custom, o.custom), (ex, o.exec_counts), (pc, o.path_counts)):
                for c, v in part.items():
                    total[c] = total.get(c, 0) + v
        reads = ex["reads_vector"] + ex["reads_elided"] + ex["reads_scalar"]
        batches = sum(pc.values())
        acquires = sum(rec.calls[(lid, "core.queue.acquire")] for lid in lids)
        work_cycles = sum(rec.calls[(lid, "bfs.worker")] for lid in lids)
        loops = custom.get("scheduler.work_cycles", 0)
        attempts = custom.get("queue.steal_attempts", 0)

        def ratio(a, b):
            return a / b if b else 0.0

        counts.append({
            "simt.engine.resumes_per_op": spans[nid["core.scheduler"]] / ops,
            "simt.engine.reads_elided_frac": ratio(ex["reads_elided"], reads),
            "simt.atomics.batches": batches,
            "simt.atomics.general_frac": ratio(pc["atomics_general"], batches),
            "core.scheduler.idle_lane_frac": ratio(
                custom.get("scheduler.idle_lane_cycles", 0),
                loops * wl.FIJI.wavefront_size),
            "core.queue.tokens_per_acquire": ratio(
                custom.get("queue.dequeued_tokens", 0), acquires),
            "core.queue.cas_retry_rounds": custom.get("queue.cas_retry_rounds", 0),
            "core.queue.steal_hit_frac": ratio(custom.get("queue.steal_hits", 0), attempts),
            "core.queue.grow.segment_links": custom.get("queue.grow.segment_links", 0),
            "core.queue.spill.tokens": custom.get("queue.spill.tokens", 0),
            "bfs.worker.work_cycles": work_cycles,
            "obs.probe.calls_per_op": spans[nid["obs.probe"]] / ops,
            "obs.watchdog.polls": spans[nid["obs.watchdog"]],
        })
    if any(c != counts[0] for c in counts):
        problems.append("exact per-layer counts differ between traced rounds")

    metrics = {}
    for m in seconds[0]:
        unit = "ratio" if m.endswith("_frac") else "s"
        metrics[m] = (float(statistics.median(r[m] for r in seconds)), unit)
    for m, v in counts[0].items():
        metrics[m] = (float(v), "ratio" if m.endswith(("_frac", "_op", "_acquire")) else "count")

    builds = (launch == -1) & (name == nid["graphs.build"])
    metrics["graphs.build_s"] = (
        float(dur[builds].sum()) * setup_scale / SETUP_REPEATS, "s")

    by_cfg = {}
    if len(rotation) > 1:
        for outs in untraced_rounds:
            for o in outs:
                by_cfg.setdefault(o.config.name, []).append(o.seconds * o.scale)
    for v in VARIANTS:
        s = statistics.median(by_cfg[v]) if v in by_cfg else 0.0
        metrics[f"core.variant.{v}.launch_s"] = (s, "s")
    rfan = metrics["core.variant.rfan.launch_s"][0]
    sharded = metrics["core.variant.sharded.launch_s"][0]
    metrics["core.variant.sharded.vs_rfan"] = (sharded / rfan if rfan else 0.0, "ratio")

    overhead = [
        sum(o.seconds * o.scale for o in touts) / sum(o.seconds * o.scale for o in outs) - 1
        for outs, (_, touts) in zip(untraced_rounds, traced_rounds)
    ]
    metrics["trace.overhead_frac"] = (statistics.median(overhead), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=3,
                        help="input seed; 3 reproduces the pinned datasets")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import workloads as wl
        from spans import SpanRecorder
    except ImportError as exc:
        print(f"cannot import the simulator from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T_START

    rotation = wl.WORKLOADS[args.workload]
    pins = wl.load_pins(args.seed)
    rec = SpanRecorder() if args.trace else None
    attempted = failed = 0
    problems = []

    # speed probes alternate with launches; a launch is scaled by the
    # median of the two probes before it and the two after it.
    probes = [speed_probe()]
    launched = []

    def launch(cfg, reference=None):
        """One checked launch of ``cfg``, followed by a speed probe.  The
        launch is traced when it has an untraced ``reference`` launch,
        whose simulated numbers it must reproduce exactly."""
        nonlocal attempted, failed
        out = wl.run_launch(cfg, inputs[cfg.graph], pins.get(cfg.pin_key),
                            None if reference is None else rec)
        launched.append((out, len(probes) - 1))
        probes.append(speed_probe())
        if (reference is not None and out.ok and reference.ok
                and out.simulated() != reference.simulated()):
            out.problems.append(f"{cfg.pin_key}: the traced launch simulated "
                                "other numbers than the untraced one")
        attempted += 1
        if not out.ok:
            failed += 1
            problems.extend(out.problems)
        return out

    # set-up: inputs, reference depths, allocation and one warm-up launch
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = {
            kind: wl.build_inputs(kind, args.seed, rec)
            for kind in sorted({cfg.graph for cfg in rotation})
        }
        launch(rotation[0])
        setup_times.append(time.perf_counter() - t0)
    setup_scale = PROBE_REF_S / statistics.median(probes)
    setup_s = (import_s + statistics.median(setup_times)) * setup_scale

    next_lid = iter(range(1 << 30))

    def traced_round(reference):
        """One traced launch per config of the untraced round ``reference``."""
        lids, outs = [], []
        for cfg, ref in zip(rotation, reference):
            rec.launch_id = next(next_lid)
            lids.append(rec.launch_id)
            outs.append(launch(cfg, ref))
            rec.launch_id = -1
        return lids, outs

    t_measure = time.perf_counter()
    untraced, traced = [], []
    while True:
        outs = [launch(cfg) for cfg in rotation]
        untraced.append(outs)
        if args.trace:
            traced.append(traced_round(outs))
        done = time.perf_counter() - t_measure >= args.seconds
        if done and (args.trace or len(untraced) * len(rotation) >= MIN_LAUNCHES):
            break
    for out, before in launched:
        out.scale = PROBE_REF_S / statistics.median(probes[max(before - 1, 0):before + 3])

    if args.trace:
        clean = [(u, t) for u, t in zip(untraced, traced)
                 if all(o.ok for o in u + t[1])]
        if clean:
            metrics = per_layer(wl, rotation, [u for u, _ in clean],
                                [t for _, t in clean], rec, setup_scale, problems)
        else:
            problems.append("no traced round without a failed launch")
            metrics = {}
        OUT_DIR.mkdir(exist_ok=True)
        rec.save(OUT_DIR / f"spans-{args.workload}.npz")
    else:
        metrics = end_to_end([o for outs in untraced for o in outs], setup_s)

    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    for m, (value, unit) in metrics.items():
        print(f"{m:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
