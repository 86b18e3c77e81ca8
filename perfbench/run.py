"""The mahler benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports mahler from ./src and writes
only below ./perfbench (.work/ for inputs, out/ for spans).  With --trace 0
it runs the workload's jobs in a closed loop, a fixed number of whole
cycles that take about --seconds, and prints the end-to-end metrics (job
times scaled to the reference speed, see perfbench/README.md); with
--trace 1 it runs whole cycles of the same jobs, each job once plain and
once with every layer wrapped in spans, and prints the per-layer metrics.
The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import harness
import layers
import tracing

WORKLOADS = ("cli-cold", "exact-transforms", "avatar-pipeline")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CLI_IMPORT = "from mahler.cli import entrypoint"
HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set the workload up once, print the seconds it took, exit")
    ap.add_argument("--record-digest", action="store_true",
                    help="cli-cold, default seed: store the digest of one cycle")
    return ap.parse_args(argv)


def make_workload(name: str, seed: int, src: str, workdir: str):
    if name == "cli-cold":
        import wl_cli
        return wl_cli.Workload(seed, workdir, src)
    if name == "exact-transforms":
        import wl_exact
        return wl_exact.Workload(seed)
    import wl_avatar
    return wl_avatar.Workload(seed)


def setup_probe_seconds(args) -> float:
    """Set-up time measured in a fresh interpreter (imports are cold)."""
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                          args.workload, "--seed", str(args.seed), "--setup-probe"],
                         stdout=subprocess.PIPE, check=True)
    return float(out.stdout.decode().split()[-1])


def import_times(src: str) -> dict:
    """Median import times (ms, see `tracing.import_ms`) of the import the
    CLI makes, each from a fresh `python -X importtime`."""
    env = dict(os.environ, PYTHONPATH=src)
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", CLI_IMPORT],
                              env=env, stderr=subprocess.PIPE, check=True)
        samples.append(tracing.import_ms(proc.stderr.decode()))
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def traced_run(jobs, cycles: int, verifiers, tracer):
    """`cycles` whole cycles, each job once plain and once traced, alternating
    which goes first; returns (traced seconds, plain seconds)."""
    totals = {False: 0.0, True: 0.0}
    runs = 0
    for _ in range(cycles):
        for index, job in enumerate(jobs):
            for traced in ((True, False) if runs % 2 else (False, True)):
                if traced:
                    tracer.job = runs
                    tracer.enable()
                try:
                    raw, elapsed = harness.call(job)
                finally:
                    tracer.disable()
                totals[traced] += elapsed
                verifiers[traced].record(index, raw)
            runs += 1
    return totals[True], totals[False]


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mahler", "__init__.py")):
        print(f"error: no mahler sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("MAHLER_PREC", None)  # outputs must not depend on the caller's shell
    sys.path.insert(0, src)
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    if args.record_digest:
        return record_digest(args, workdir, src)
    try:
        start = time.perf_counter()
        wl = make_workload(args.workload, args.seed, src, workdir)
        setup = time.perf_counter() - start
        if args.setup_probe:
            print(f"{setup:.6f}")
            return 0
        facts = harness.machine_facts(root)
        facts.update(workload=args.workload, seed=args.seed, trace=args.trace)
        print(f"facts {facts}")
        if args.trace:
            metrics, verifiers = run_traced(wl, args, facts, src)
        else:
            metrics, verifiers = run_plain(wl, args, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for verifier in verifiers:
        for message, count in verifier.messages.items():
            print(f"FAILED x{count} {message}", file=sys.stderr)
    print(harness.result_line(verifiers, metrics))
    return 0


def run_plain(wl, args, setup: float):
    setups = [setup] + [setup_probe_seconds(args) for _ in range(SETUP_REPEATS - 1)]
    verifier = harness.Verifier(wl.jobs, getattr(wl, "cycle_check", None))
    cycles = harness.cycles_for(args.seconds, wl.cycle_seconds)
    times, slowdowns = harness.closed_loop(wl.jobs, cycles, verifier)
    unscaled = harness.latency_metrics(times)
    metrics = harness.latency_metrics([t / s for t, s in zip(times, slowdowns)])
    metrics["peak_rss_mb"] = (wl.peak_rss_mb(), "MB")
    metrics["setup_s"] = (statistics.median(setups), "s")
    p90 = metrics["job_ms_p90"][0]
    beyond = sum(t * 1000.0 > p90 for t in times)
    print(f"samples {len(times)} jobs in {cycles} cycle(s) of {len(wl.jobs)}, "
          f"{beyond} beyond p90; "
          f"set-up samples {[round(s, 4) for s in setups]}; "
          f"failed {verifier.failed}/{verifier.attempted}")
    print("unscaled " + json.dumps({k: v for k, (v, _) in unscaled.items()})
          + f" slowdown median {statistics.median(slowdowns):.4f}")
    return metrics, [verifier]


def run_traced(wl, args, facts: dict, src: str):
    imports = import_times(src)
    jobs = wl.replay_jobs() if hasattr(wl, "replay_jobs") else wl.jobs
    verifiers = {traced: harness.Verifier(jobs, getattr(wl, "cycle_check", None))
                 for traced in (False, True)}
    # one warm-up cycle, checked, not timed: it also makes the in-process
    # cli-cold replay import mahler before the first timed job
    harness.closed_loop(jobs, 1, verifiers[False])
    tracer = tracing.Tracer()
    layers.install(tracer)
    # every job runs twice per cycle, plain and traced
    cycles = harness.cycles_for(args.seconds, 2 * wl.cycle_seconds)
    traced_s, untraced_s = traced_run(jobs, cycles, verifiers, tracer)
    metrics = layers.layer_metrics(tracer, cycles, imports, traced_s, untraced_s)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")
    tracer.write(path, facts)
    print(f"traced {cycles} cycle(s) of {len(jobs)} jobs; {len(tracer.spans)} spans "
          f"({tracer.dropped} dropped) in {os.path.relpath(path)}; "
          f"failed {sum(v.failed for v in verifiers.values())}")
    return metrics, list(verifiers.values())


def record_digest(args, workdir: str, src: str) -> int:
    """Store the digest of one cli-cold cycle at the default seed.  The
    digest guards the bytes, not their correctness: calls that fail their
    oracle (the known defects) are recorded as they are and listed on
    stderr."""
    import wl_cli
    if args.workload != "cli-cold" or args.seed != harness.DEFAULT_SEED:
        print("error: the digest is recorded for cli-cold at the default seed", file=sys.stderr)
        return 2
    try:
        wl = wl_cli.Workload(args.seed, workdir, src, guard=False)
        verifier = harness.Verifier(wl.jobs)
        harness.closed_loop(wl.jobs, 1, verifier)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digest = wl_cli.cycle_digest([summary for summary, _ in verifier.cycle])
    if digest == "incomplete":
        print(f"error: a call did not run: {list(verifier.messages)}", file=sys.stderr)
        return 1
    for message in verifier.messages:
        print(f"recorded although failing its oracle: {message}", file=sys.stderr)
    with open(wl_cli.DIGEST_FILE, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "sha256": digest}, fh)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
