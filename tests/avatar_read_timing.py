"""Time avatar-pipeline cycles with every returned family coefficient read.

    python tests/avatar_read_timing.py SRC_A SRC_B [--pairs 10] [--seed 0]

SRC_A and SRC_B are the `src` directories of two trees, for example of a
`git archive` of the parent commit unpacked in a scratch directory and of
this tree.  perfbench times only each job's `run()`, and its untimed
`summarize` reads every Mahler coefficient of the first avatar family, so a
family member that builds its coefficients on first read moves that build
out of perfbench's timer.  This script keeps it inside.

It starts one fresh process per tree.  Each imports `perfbench/wl_avatar.py`
read-only (as `line_trace.py --workloads` does) and mahler from its tree,
sets up the avatar-pipeline jobs at the seed and runs one warm-up cycle
whose outputs it checks against the workload's oracles.  Then `--pairs`
times, the two processes run one cycle each, job by job in turn, the side
that goes first alternating from job to job and from pair to pair: on a
shared machine the speed drifts within a second, and this way both sides
of a pair meet the same drift.  A job is timed by CPU time
(`time.process_time`): `run()` and a read of every coefficient of every
member of the returned `fam1`, in one timer; a side's cycle is the sum over
its jobs.  The script prints each side's median and quartiles over its
cycles, the ratio of the medians, and in how many pairs SRC_B's cycle was
faster.  It exits 1 if a job fails its check.  With the defaults it takes
about 20 s on 2 vCPUs.  Its name does not start with `test_`, so pytest
does not collect it.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def serve(seed: int) -> int:
    """Set up and check the jobs, print their count, then run the job whose
    index each line of stdin names and print its CPU milliseconds."""
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench
    sys.path.insert(0, str(ROOT / "perfbench"))
    os.environ.pop("MAHLER_PREC", None)
    import wl_avatar
    jobs = wl_avatar.Workload(seed).jobs
    for job in jobs:  # warm-up, checked
        error = job.check(job.summarize(job.run()))
        if error is not None:
            print(f"{job.name}: {error}", file=sys.stderr)
            return 1
    print(len(jobs), flush=True)
    for line in sys.stdin:
        start = time.process_time()
        raw = jobs[int(line)].run()
        for mu in raw["fam1"]:
            for x in mu.mahler:
                x.precision
        print((time.process_time() - start) * 1000.0, flush=True)
    return 0


def start(src: str, seed: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, __file__, "--serve", "--seed", str(seed)],
                            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def timed(proc: subprocess.Popen, job: int) -> float:
    proc.stdin.write(f"{job}\n")
    proc.stdin.flush()
    return float(proc.stdout.readline())


def quartiles(xs) -> list:
    return [round(q, 2) for q in statistics.quantiles(xs, n=4, method="inclusive")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="*")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.serve:
        return serve(args.seed)
    if len(args.src) != 2:
        ap.error("give the src directories of two trees")
    srcs = [str(Path(src).resolve()) for src in args.src]
    procs = [start(src, args.seed) for src in srcs]
    times = [[], []]
    try:
        counts = [proc.stdout.readline().strip() for proc in procs]
        if not all(count.isdigit() for count in counts):
            print("a job failed its check", file=sys.stderr)
            return 1
        for i in range(args.pairs):
            totals = [0.0, 0.0]
            for job in range(int(counts[0])):
                for side in ((0, 1) if (i + job) % 2 == 0 else (1, 0)):
                    totals[side] += timed(procs[side], job)
            for side in (0, 1):
                times[side].append(totals[side])
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait(timeout=60)
    for name, src, ts in zip("AB", srcs, times):
        print(f"{name} {src}: median {statistics.median(ts):.2f} ms per cycle, "
              f"quartiles {quartiles(ts)}, cycles {[round(t, 2) for t in ts]}")
    ratio = statistics.median(times[1]) / statistics.median(times[0])
    faster = sum(b < a for a, b in zip(*times))
    print(f"B/A median ratio {ratio:.3f}; B faster in {faster}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
