"""Episode benchmark of the reacting DeepFlame step.

Run from the root of a checkout:

    python3 episode_bench/run.py --workload tgv-hybrid --seed 1 \
        --seconds 20 --trace 0

Runs fresh episodes of one workload in a closed loop (one process,
one episode after the other) until ``--seconds`` have passed, checks
every step, and prints as its last line one JSON object with
``correct``, ``attempted`` and ``failed`` steps and the metrics:
the end-to-end ones with ``--trace 0``, the per-layer ones with
``--trace 1``.  A fuller record (host, per-episode figures, every
failed check) and, for traced runs, a trace-event JSON and a self-time
table go to ``episode_bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-ups measured per run at least (extra ones when fewer episodes ran)
MIN_SETUPS = 5
#: the one failure the benchmark expects, caused by a named fault: a
#: rank's HybridBackend draws its audit sample by local row index
#: because BackendChemistry.advance passes no cell_ids
KNOWN_FAULT_CHECKS = {"agreement"}

def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _episodes(wl, seed, seconds, tap, reference, tracer, first):
    """Closed loop of whole episodes for about ``seconds``: at least
    one, and no further one that would end past ``seconds`` at the
    mean episode length so far."""
    import episode

    out = []
    t_start = time.perf_counter()
    while True:
        out.append(episode.run_episode(wl, seed, first + len(out), tap,
                                       reference=reference, tracer=tracer))
        elapsed = time.perf_counter() - t_start
        if elapsed * (1 + 1 / len(out)) > seconds:
            return out


def main(argv=None) -> int:
    args = _parse(argv)
    import host

    try:
        return _run(args)
    finally:
        host.stop_children()


def _run(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"episode_bench: no program source at {ROOT / 'src'}; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import episode
    import host
    import metrics
    import tracing

    wl = episode.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"episode_bench: unknown workload {args.workload!r}; use "
              f"one of {sorted(episode.WORKLOADS)}", file=sys.stderr)
        return 2

    tap = episode.ChemistryTap()
    tap.install()
    tracer = tracing.Tracer() if args.trace else None
    try:
        ref = episode.reference_run(wl, args.seed, tap) \
            if wl.decomposed else None
        # traced runs spend half the time untraced: the overhead base
        budget = args.seconds / 2 if tracer else args.seconds
        plain = _episodes(wl, args.seed, budget, tap,
                          ref.fields if ref else None, None, 0)
        traced = []
        if tracer is not None:
            tracer.install()
            try:
                traced = _episodes(wl, args.seed, budget, tap,
                                   ref.fields if ref else None, tracer,
                                   len(plain))
            finally:
                tracer.uninstall()
        runs = plain + traced
        setups = [r.setup_s for r in runs]
        while len(setups) < MIN_SETUPS:
            setups.append(episode.measure_setup(wl, args.seed))
    finally:
        tap.uninstall()

    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.failed_steps) for r in runs)
    problems = [(i, step, p) for i, r in enumerate(runs)
                for step, p in r.problems]
    ref_problems = ref.problems if ref else []
    correct = not ref_problems and all(
        p.check in KNOWN_FAULT_CHECKS or p.check == "raised"
        for _, _, p in problems)

    n_cells = runs[0].n_cells
    step_s = [s for r in plain for s in r.step_s]
    rss_mb = (host.peak_rss_kb() + max(r.worker_peak_kb for r in runs)) \
        / 1024.0
    e2e = {"cell_steps_per_s": metrics.cell_steps_per_s(n_cells, step_s),
           "setup_s": statistics.median(setups), "peak_rss_mb": rss_mb}

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "host": host.host_record(ROOT, args.seed,
                                 wl.settings(args.seed).backend,
                                 runs[0].dtype),
        "episodes": [{"setup_s": r.setup_s, "step_s": r.step_s,
                      "attempted": r.attempted,
                      "failed_steps": sorted(r.failed_steps)}
                     for r in runs],
        "extra_setups_s": setups[len(runs):],
        "problems": [{"episode": i, "step": step, "check": p.check,
                      "detail": p.detail} for i, step, p in problems],
        "reference_problems": [{"step": step, "check": p.check,
                                "detail": p.detail}
                               for step, p in ref_problems],
        "end_to_end": e2e,
    }

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        traced_s = [s for r in traced for s in r.step_s]
        layers = metrics.layer_metrics(tracer.rec.spans, tracer.steps)
        layers["trace.cell_steps_per_s"] = metrics.cell_steps_per_s(
            n_cells, traced_s)
        layers["trace.overhead"] = (e2e["cell_steps_per_s"]
                                    / layers["trace.cell_steps_per_s"] - 1.0)
        record["per_layer"] = layers
        table = metrics.self_times(tracer.rec.spans, len(tracer.steps))
        (out_dir / f"{stem}.selftime.txt").write_text(
            metrics.format_self_times(table))
        (out_dir / f"{stem}.trace.json").write_text(json.dumps(
            tracing.trace_events(tracer.rec.spans, tracer.rank_labels)))
        shown = layers
    else:
        shown = e2e
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"# {wl.name} seed={args.seed}: {len(runs)} episodes, "
          f"{attempted} steps attempted, {failed} failed")
    for i, step, p in problems[:5]:
        print(f"#   episode {i} step {step}: {p.check}: {p.detail}")
    print("# host " + json.dumps(record["host"]))
    declared = metrics.PER_LAYER if tracer else metrics.END_TO_END
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": shown[m], "unit": unit}
                    for m, unit, _ in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
