"""The benchmark's own tests: a tiny-size run of every workload with all its
oracles, the digest guard, the tracer, and the known defects the oracles
catch.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import layers
import oracles
import tracing
import wl_avatar
import wl_cli
import wl_exact

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_cycle(jobs, cycle_check=None):
    verifier = harness.Verifier(jobs, cycle_check)
    for index, job in enumerate(jobs):
        raw, _ = harness.call(job)
        verifier.record(index, raw)
    return verifier


def replay(seed, workdir):
    return wl_cli.replay_jobs(wl_cli.build_commands(seed, str(workdir)), str(workdir))


@pytest.mark.parametrize("workload", [wl_exact, wl_avatar])
def test_tiny_in_process_workload_passes_its_oracles(workload):
    wl = workload.Workload(seed=3, tiny=True)
    verifier = one_cycle(wl.jobs)
    assert verifier.attempted == len(wl.jobs) > 5
    assert verifier.failed == 0, verifier.messages


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_cold_default_seed_matches_digest_and_oracles(tmp_path):
    jobs = replay(harness.DEFAULT_SEED, tmp_path)
    expected = wl_cli.recorded_digest(harness.DEFAULT_SEED)
    verifier = one_cycle(jobs, lambda s: None if wl_cli.cycle_digest(s) == expected
                         else "digest mismatch")
    assert len(jobs) == 25
    assert verifier.failed == 0, verifier.messages


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_digest_mismatch_fails_every_job_of_the_cycle(tmp_path):
    jobs = replay(harness.DEFAULT_SEED, tmp_path)
    verifier = one_cycle(jobs, lambda s: "digest mismatch")
    assert verifier.failed == len(jobs)


def test_cli_subprocess_launcher(tmp_path):
    wl = wl_cli.Workload(5, str(tmp_path), os.path.join(ROOT, "src"), guard=False)
    code, out, _ = wl.jobs[0].run()
    assert code == 0 and json.loads(out)["p"] in wl_cli.SMALL_PRIMES
    assert wl.peak_rss_mb() > 1


def test_oracle_rejects_wrong_output():
    wl = wl_exact.Workload(seed=3, tiny=True)
    job = wl.jobs[0]
    raw = job.run()
    good = job.summarize(raw)
    assert job.check(good) is None
    bad = (tuple(x + 1 for x in good[0]),) + good[1:]
    assert job.check(bad) is not None


def test_arch_oracle_rejects_nan_rel_error():
    report = {"rel_error": "nan", "closed_form": {"re": "0", "im": "0"}}
    assert wl_cli.arch_errors(report, 1, 1, 0, 0.5, tol=1e-6) is not None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.xfail(strict=True, reason="known defect: a NaN quadrature prints "
                   '"rel_error":"nan" and exits 0 instead of 5')
def test_arch_local_factor_nan_is_not_reported_as_success(tmp_path):
    code, out, _ = wl_cli.replay_call(["arch", "local-factor", "--kappa", "1", "--r", "1",
                                       "--l", "1", "--nodes-a", "256"], str(tmp_path))
    assert code == 5 or wl_cli.arch_errors(json.loads(out), 1, 1, 1, 0.5, 1e-6) is None


@pytest.mark.xfail(strict=True, reason="known defect: restricting a truncated measure "
                   "with exact coefficients refuses (PrecisionExhausted, exit 3) when a "
                   "restricted coefficient is divisible by p^prec, although the tail "
                   "bound holds")
def test_truncated_restriction_of_exact_coefficients():
    from mahler import measure
    # the Dirac mass at the unit 25 of Z_3, known to order 24: restriction
    # keeps it, and the tail bound supports precision 1 for 20 coefficients
    mu = measure.Measure(3, oracles.mahler_of_diracs([(1, 25)], 24), finite=False)
    got = measure.restrict_to_units(mu, 1)
    want = oracles.mahler_of_diracs([(1, 25)], 20)
    assert [oracles.congruent(x.lift(), w, 3, 1) for x, w in zip(got.mahler, want)] \
        == [True] * 20


def test_tail_bound_formulas():
    # README: n_out = order - (prec + 1)(p - 1); cell masses ceil(order/(p^(nu-1)(p-1)) - nu)
    assert oracles.restriction_supported(24, 3, 10) == 2
    assert oracles.restriction_supported(24, 3, 11) == 0
    assert oracles.cell_tail_bound(24, 1, 3) == 11
    assert oracles.cell_tail_bound(24, 2, 3) == 2


def test_independent_number_theory():
    assert len(oracles.reduced_forms(-23)) == 3 and len(oracles.reduced_forms(-47)) == 5
    assert oracles.bernoulli(12) == oracles.Fraction(-691, 2730)
    assert oracles.hashimoto(6, 11, 1000) == (5, 2)
    assert oracles.conductor(((0, 1), (-4, 0)), 1) == 2
    assert oracles.conductor(((1, 2), (-4, -1)), 1) == 1
    assert oracles.delta_errors(list(oracles.TAU_SMALL), [(2, 3), (2, 5)]) is None


def test_tracer_attributes_self_time_and_restores_functions():
    from mahler import measure
    original = measure.restrict_to_units
    tracer = tracing.Tracer()
    layers.install(tracer)
    wl = wl_avatar.Workload(seed=4, tiny=True)
    tracer.enable()
    try:
        raw, _ = harness.call(wl.jobs[-1])
    finally:
        tracer.disable()
    assert measure.restrict_to_units is original
    assert not isinstance(raw, harness.UnexpectedError)
    assert tracer.calls["heckechar.class_group"] == 1
    assert tracer.calls["padic.scalar"] > 0
    assert all(t >= -1e-9 for t in tracer.self_time.values())
    metrics = layers.layer_metrics(tracer, 1, {"mahler": 1, "sympy": 1, "numpy": 1}, 1.0, 1.0)
    assert [name for name, _ in layers.metric_names()] == list(metrics)


def test_closed_loop_brackets_every_job_with_reference_passes():
    wl = wl_exact.Workload(seed=3, tiny=True)
    verifier = harness.Verifier(wl.jobs)
    times, slowdowns = harness.closed_loop(wl.jobs, 2, verifier)
    assert len(times) == len(slowdowns) == 2 * len(wl.jobs)
    assert verifier.failed == 0 and all(s > 0 for s in slowdowns)


def test_cycle_count_depends_on_seconds_only():
    assert harness.cycles_for(35, 11.0) == 3 and harness.cycles_for(5, 11.0) == 1


def test_interleave_spreads_each_group():
    out = harness.interleave([list("abcd"), ["X"]])
    assert sorted(out) == sorted("abcdX") and out.index("X") in (2, 3)


def test_import_ms_sums_top_level_mahler_modules():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       100 |        300 |     numpy\n"
            "import time:        50 |        500 |   mahler\n"
            "import time:        20 |        900 | mahler.cli\n"
            "import time:        10 |         40 | mahler.extra\n")
    assert tracing.import_ms(text) == pytest.approx({"mahler": 0.94, "sympy": 0.0,
                                                     "numpy": 0.3})


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in layers.metric_names()]
    assert [w["name"] for w in spec["workloads"]] == ["cli-cold", "exact-transforms",
                                                      "avatar-pipeline"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-cold",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
