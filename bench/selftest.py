"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import userdb  # noqa: E402
import workloads  # noqa: E402
from nielsencalc import classifier, homotopy_db  # noqa: E402

SEEDS = (1, 2)


# ---------------------------------------------------------------------------
# the user_db generator, checked independently of nielsencalc's SNF

@pytest.mark.parametrize("seed", SEEDS)
def test_generated_databases_load_with_invariant_factors_d(seed):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors
    for gen in userdb.generate(seed):
        homotopy_db.loads(gen.text)
        for s in gen.slices:
            assert invariant_factors(Matrix(s.B), domain=ZZ) == tuple(s.D)


@pytest.mark.parametrize("seed", SEEDS)
def test_corrupted_copies_are_rejected_naming_the_entry(seed):
    for gen in userdb.generate(seed):
        with pytest.raises(homotopy_db.DatabaseError) as err:
            homotopy_db.loads(gen.corrupted_text)
        assert any(gen.corrupted_ref in v.subject for v in err.value.violations)


def test_generated_queries_reach_cases_one_to_five():
    cases = Counter(expected[0] for gen in userdb.generate(1)
                    for kind, _, _, expected in gen.queries if kind == "classify")
    assert set(cases) == {1, 2, 3, 4, 5}


# ---------------------------------------------------------------------------
# the independent model of the shipped database

TABLE_ROWS = [   # (case, K, m, n', lift1, lift2), as in the acceptance test
    (1, "R", 11, 6, 2, 2), (2, "R", 11, 6, 1, 1), (3, "R", 6, 6, 1, 1),
    (3, "R", 6, 6, 1, -1), (4, "R", 6, 6, 3, 1), (5, "R", 11, 6, 1, 0),
    (6, "C", 5, 2, 1, 1), (6, "H", 11, 2, 3, 3), (7, "C", 5, 2, 1, 0),
    (7, "H", 11, 2, 1, 2),
]


@pytest.mark.parametrize("row", TABLE_ROWS)
def test_shipped_model_reproduces_the_table(row):
    case, K, m, nprime, l1, l2 = row
    model = workloads.ShippedModel(homotopy_db.default_db_text())
    lift = model.lift_key(K, m, nprime)
    assert model.case(K, m, nprime, model.reduce(l1, lift),
                      model.reduce(l2, lift)) == case


def test_batch_pool_covers_all_seven_cases():
    w = workloads.BatchShipped(1, ROOT)
    w.setup()
    cases = Counter(expected[0] for kind, _, expected in w.pool
                    if kind == "classify")
    assert set(cases) == set(range(1, 8))
    kinds = Counter(kind for kind, _, _ in w.pool)
    assert 0.6 < kinds["classify"] / len(w.pool) < 0.8


# ---------------------------------------------------------------------------
# every op is checked: a wrong expectation is counted as a failure

def _batch(tamper):
    w = workloads.BatchShipped(1, ROOT)
    w.setup()
    if tamper:
        index = next(i for i, (kind, _, _) in enumerate(w.pool)
                     if kind == "classify")
        kind, args, (case, triple) = w.pool[index]
        w.pool[index] = (kind, args, (case % 7 + 1, triple))
    return w, workloads.POOL


def _user_db(tamper):
    w = workloads.UserDb(1, ROOT)
    w.setup()
    if tamper:
        kind, args, expected = w.calls[0][-1]          # a sphere query
        w.calls[0][-1] = (kind, args, tuple(1 - x for x in expected))
    return w, 2 * userdb.POOL


def _cli(tamper):
    w = workloads.CliSession(1, ROOT)
    w.setup()
    if tamper:
        w.expected["db_validate"] = dict(w.expected["db_validate"], exit=4)
    return w, len(workloads.CLI_COMMANDS)


@pytest.mark.parametrize("make", [_batch, _user_db, _cli])
def test_wrong_expectation_is_counted_as_failure(make):
    w, ops = make(tamper=False)
    assert run.run_loop(w, 120, floor=False, max_ops=ops).failed == 0
    w, ops = make(tamper=True)
    loop = run.run_loop(w, 120, floor=False, max_ops=ops)
    assert loop.ops == ops and loop.failed >= 1


def test_rejection_op_that_is_accepted_fails():
    w, _ = _user_db(tamper=False)
    k = next(k for k, (_, reject) in enumerate(w.schedule) if reject)
    assert w.check(k, w.run_op(k))
    index = w.schedule[k][0]
    w.pool[index].corrupted_text = w.pool[index].text
    assert not w.check(k, w.run_op(k))


def test_latency_samples_stay_even_over_the_whole_run(monkeypatch):
    monkeypatch.setattr(run, "SAMPLES", 8)
    loop = run.Loop()
    for k in range(100):
        loop.record(k, float(k), 0.0)
    assert list(loop.latency) == [0.0, 16.0, 32.0, 48.0, 64.0, 80.0, 96.0]
    assert loop.busy == sum(range(100))


def test_speed_factor_follows_the_trailing_reference_median():
    speed = run.Speed(0.002)
    for seconds in (0.001, 0.004, 0.004):
        speed.add(seconds)
    assert speed.factor == 0.5
    for _ in range(run.REF_KEEP):
        speed.add(0.001)
    assert speed.factor == 2.0


class _Sleeper:
    """Ops and floors that sleep equally long; the floor is the gauge."""

    name = "sleeper"
    floor_is_reference = True

    def run_op(self, k):
        run.time.sleep(0.01)

    def floor(self):
        run.time.sleep(0.01)

    def check(self, k, result):
        return True


def test_loop_rescales_times_to_the_nominal_speed():
    speed = run.Speed(0.02)
    speed.add(0.01)
    loop = run.run_loop(_Sleeper(), 10, max_ops=5, speed=speed)
    assert loop.ops == 5 and speed.count == 6
    assert 1.5 < loop.raw_ops_per_s / loop.ops_per_s < 2.5
    assert all(0.015 < x < 0.03 for x in loop.latency)


def test_set_up_children_are_spread_over_the_loop():
    w, _ = _batch(tamper=False)
    stamps = []
    loop = run.run_loop(w, 1.0, between=lambda: stamps.append(run.time.perf_counter()),
                        calls=4)
    assert len(stamps) == 4 and loop.failed == 0
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    assert all(0.15 < gap < 0.35 for gap in gaps)


# ---------------------------------------------------------------------------
# tracing

def test_self_time_subtracts_direct_children():
    span_list = [["op", 0, 100, -1, 0],
                 ["classifier.classify_projective", 10, 90, 0, 0],
                 ["classifier.table_conditions", 20, 70, 1, 0],
                 ["homotopy_db.require_hom", 30, 40, 2, 0],
                 ["homotopy_db.get_hom", 31, 39, 3, 0]]
    stats, queries, lookups, lookup_ns = spans.layer_stats(span_list)
    assert stats["classifier.classify_projective"] == [1, 80, 30]
    assert stats["classifier.table_conditions"] == [1, 50, 40]
    assert (queries, lookups, lookup_ns) == (1, 1, 10)


def test_wrappers_reach_names_imported_by_other_modules():
    from nielsencalc import fgab
    original = fgab.in_image
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert classifier.in_image is fgab.in_image is homotopy_db.in_image
        assert spans.installed()
        homotopy_db.load_default()
    finally:
        tracer.uninstall()
    assert fgab.in_image is original and classifier.in_image is original
    assert not spans.installed()
    names = {s[0] for s in tracer.spans}
    assert {"homotopy_db.loads", "homotopy_db.validate", "fgab.in_image",
            "fgab.exact_at", "fgab.kernel", "homotopy_db.get_group"} <= names
    assert tracer.counts["fgab.in_image.calls"] >= 1


# ---------------------------------------------------------------------------
# the command line contract

def _run(cwd, *args):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric_of_benchmark_json(trace):
    proc = _run(ROOT, "--workload", "batch_shipped", "--seed", "3",
                "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_refuses_a_tree_without_the_program():
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "--workload", "batch_shipped", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
