"""Shared machinery of the benchmark: jobs, the closed loop, output
checking, summary statistics and the result line.

A workload is a list of `Job`s built from the seed: one cycle.  The loop
runs the cycle a fixed number of times with one client: each job starts
after the previous one has finished and been checked.  Only the time inside
`Job.run` counts as job time; checking the output against the oracle
happens outside it.  Every job is bracketed by passes of a fixed reference
loop, which give the speed of the machine around it.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

DEFAULT_SEED = 0
REFERENCE_STEPS = 3000
REFERENCE_SECONDS = 0.00175  # one reference pass on the reference machine
MERSENNE_127 = (1 << 127) - 1


@dataclass
class Job:
    """One unit of work.  `run` calls the program and returns its raw result;
    `summarize` turns that into plain comparable values; `check` returns None
    when the summary matches the oracle and an error message otherwise."""

    name: str
    run: Callable[[], Any]
    summarize: Callable[[Any], Any]
    check: Callable[[Any], str | None]


class UnexpectedError:
    """Stands in for the result of a job whose call raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


@dataclass
class Verifier:
    """Checks each job's first output against its oracle and every later
    output of the same job against that first, verified one.  An optional
    `cycle_check` sees the summaries of each whole cycle, in job order; when
    it reports an error, every job of that cycle counts as failed."""

    jobs: list
    cycle_check: Callable[[list], str | None] | None = None
    seen: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    messages: Counter = field(default_factory=Counter)
    cycle: list = field(default_factory=list)

    def record(self, index: int, raw) -> bool:
        if index == 0:
            self.cycle = []
        self.attempted += 1
        job = self.jobs[index]
        summary, error = None, None
        if isinstance(raw, UnexpectedError):
            error = raw.text
        else:
            try:
                summary = job.summarize(raw)
                if index in self.seen:
                    if summary != self.seen[index]:
                        error = "output differs from an earlier run of the same job"
                else:
                    error = job.check(summary)
            except Exception as exc:  # output the oracle cannot even read
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is None:
            self.seen.setdefault(index, summary)
        else:
            self._fail(job.name, error)
        self.cycle.append((summary, error is None))
        if self.cycle_check and len(self.cycle) == len(self.jobs):
            cycle_error = self.cycle_check([s for s, _ in self.cycle])
            if cycle_error:
                passed = sum(ok for _, ok in self.cycle)
                self.failed += passed
                self._fail("cycle", f"{cycle_error} ({passed} more jobs counted as failed)",
                           count=False)
        return error is None

    def _fail(self, name: str, message: str, count: bool = True):
        self.failed += count
        self.messages[f"{name}: {message}"] += 1


def call(job: Job):
    """Run one job, timing only the call into the program."""
    start = time.perf_counter()
    try:
        raw = job.run()
    except Exception as exc:  # an unexpected exception is a failed job
        raw = UnexpectedError(exc)
    return raw, time.perf_counter() - start


def cycles_for(seconds: float, cycle_seconds: float) -> int:
    """The fixed number of whole cycles a run of `seconds` makes: a cycle
    takes about `cycle_seconds` on the reference machine, so the count
    depends on the workload and `--seconds` only, never on the speed of the
    machine, and every run times the same jobs the same number of times."""
    return max(1, round(seconds / cycle_seconds))


def reference_pass() -> float:
    """Seconds that one pass of a fixed loop of Python integer arithmetic
    takes now.  The loop calls nothing of mahler and allocates nothing the
    garbage collector tracks, so no change to the program changes its time;
    only the speed of the machine does."""
    start = time.perf_counter()
    x, acc = 0x9E3779B97F4A7C15, 0
    for i in range(REFERENCE_STEPS):
        x = (x * x + i) % MERSENNE_127
        acc ^= x & 0xFFFF
    return time.perf_counter() - start


def closed_loop(jobs, cycles: int, verifier: Verifier):
    """Run `cycles` whole cycles of `jobs`, one job after the other.  Returns
    each job's time and the slowdown of the machine around it: the mean of
    the reference passes just before and just after the job, over
    REFERENCE_SECONDS."""
    times, slowdowns = [], []
    before = reference_pass()
    for _ in range(cycles):
        for index, job in enumerate(jobs):
            raw, elapsed = call(job)
            after = reference_pass()
            times.append(elapsed)
            slowdowns.append((before + after) / (2 * REFERENCE_SECONDS))
            before = after
            verifier.record(index, raw)
    return times, slowdowns


def interleave(groups):
    """Round-robin over lists of jobs, so that every stretch of a cycle holds
    the same mix of large and small jobs: a slow or fast phase of a shared
    machine, which lasts seconds, then falls on every kind of job alike
    instead of shifting one kind against the others and the median with it."""
    keyed = []
    for gi, group in enumerate(groups):
        for i, job in enumerate(group):
            keyed.append(((i + 0.5) / len(group), gi, i, job))
    keyed.sort(key=lambda t: t[:3])
    return [t[3] for t in keyed]


def latency_metrics(times) -> dict:
    """p50, p90 and throughput of one run's job times (seconds)."""
    ms = [t * 1000.0 for t in times]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0]
    return {
        "job_ms_p50": (statistics.median(ms), "ms"),
        "job_ms_p90": (p90, "ms"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
    }


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts(root: str) -> dict:
    sha = "unknown"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    sha = fh.read().strip()
        else:
            sha = ref
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "git_sha": sha}


def result_line(verifiers, metrics: dict) -> str:
    out = {}
    for name, (value, unit) in metrics.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        out[name] = {"value": value, "unit": unit}
    failed = sum(v.failed for v in verifiers)
    return json.dumps({"correct": failed == 0,
                       "attempted": sum(v.attempted for v in verifiers),
                       "failed": failed,
                       "metrics": out})
