"""Benchmark of nielsencalc: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload batch_shipped --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 5

One run measures one workload for ``--seconds`` seconds.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` installs
span wrappers around the package's public functions and reports the
per-layer metrics.  End-to-end timings are rescaled to a nominal host
speed by a reference measured beside them (see reference.py and
README.md).  ``--all`` runs every workload both ways, one child
process per run.  Each run checks every answer, prints one
"name value unit" line per metric and, last, one JSON object, and
writes its results with an environment record under
.bench_build/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import deque
from pathlib import Path

sys.dont_write_bytecode = True
import reference  # noqa: E402

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build"
SAMPLES = 1 << 17       # latency samples kept, spread evenly over the run
SETUP_RUNS = 9          # fresh processes per set-up measurement
IMPORT_PROBES = 5       # traced CLI children for the in-process workloads
COLD_PROBES = 3         # children importing without a bytecode cache
WARMUP_S = 0.5          # untimed ops before an in-process loop
UNTRACED_SHARE = 0.25   # of a traced run's seconds, for the overhead ratio
SNF_REPS = {5: 40, 10: 20, 20: 5, 40: 3}   # matrix size -> matrices timed
REF_EVERY_S = 0.05      # in-process: one reference kernel per this much time
REF_KEEP = 9            # trailing reference samples behind each rescaling
SETUP_REF_RUNS = 5      # reference kernels timed before and after set-up
# ``python -c pass`` child time on the host of reference.KERNEL_NOMINAL_S
FLOOR_NOMINAL_S = 0.075


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true",
                   help="run every workload with --trace 0 and --trace 1")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed loop length (default: run_seconds of "
                        "BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


# ---------------------------------------------------------------------------
# the timed loop

class Speed:
    """Trailing gauge of the host's speed.

    ``factor`` rescales a time measured now to the nominal host speed:
    the nominal reference time over the median of the last ``REF_KEEP``
    reference times.
    """

    def __init__(self, nominal):
        self.nominal = nominal
        self.recent = deque(maxlen=REF_KEEP)
        self.count = 0
        self.total = 0.0
        self.factor = 1.0

    def add(self, seconds):
        self.recent.append(seconds)
        self.count += 1
        self.total += seconds
        self.factor = self.nominal / statistics.median(self.recent)


class Loop:
    """Outcome of one closed loop: counts and samples of the latencies.

    Memory is fixed: the sample arrays are allocated in full up front.
    Once they are full, every other sample is dropped and from then on
    only every second op is kept, so the samples stay an even subsample
    of the whole run however many ops it makes.
    """

    def __init__(self):
        self.ops = self.failed = 0
        self.busy = self.busy_raw = 0.0
        self.kept = 0
        self.stride = 1
        self._latency = array("d", bytes(8 * SAMPLES))
        self._over_floor = array("d", bytes(8 * SAMPLES))

    def record(self, k, latency, over_floor, raw=None):
        self.busy += latency
        self.busy_raw += latency if raw is None else raw
        if k % self.stride:
            return
        if self.kept == SAMPLES:
            for buf in (self._latency, self._over_floor):
                for i in range(SAMPLES // 2):
                    buf[i] = buf[2 * i]
            self.kept = SAMPLES // 2
            self.stride *= 2
            if k % self.stride:
                return
        self._latency[self.kept] = latency
        self._over_floor[self.kept] = over_floor
        self.kept += 1

    @property
    def latency(self):
        return self._latency[:self.kept]

    @property
    def over_floor(self):
        return self._over_floor[:self.kept]

    @property
    def ops_per_s(self):
        return self.ops / self.busy

    @property
    def raw_ops_per_s(self):
        return self.ops / self.busy_raw


def run_loop(w, seconds, tracer=None, floor=True, max_ops=None,
             between=None, calls=0, speed=None) -> Loop:
    """Run ops back to back for ``seconds``; time each, check each.

    With ``floor`` the adjacent do-nothing operation is timed after each
    op.  Checking happens outside the timed region.  ``between`` is
    called ``calls`` times between ops, spread evenly over the loop, and
    the loop is extended by the time it takes.  With ``speed`` every
    recorded time is rescaled by its current factor; the gauge is fed
    the floor of each op where that floor is a child process
    (``w.floor_is_reference``), and otherwise one reference kernel every
    ``REF_EVERY_S``.
    """
    loop = Loop()
    clock = time.perf_counter
    kernel_gauge = speed is not None and not w.floor_is_reference
    next_ref = clock()
    end = clock() + seconds
    every = seconds / calls if calls else 0.0
    next_call = end - seconds + every / 2
    k = 0
    while clock() < end and (max_ops is None or k < max_ops):
        if tracer is not None and tracer.full():
            break
        if calls and clock() >= next_call:
            started = clock()
            between()
            spent = clock() - started
            end += spent
            next_call += every + spent
            calls -= 1
        t0 = clock()
        try:
            result = (w.run_op(k) if tracer is None
                      else tracer.run_op(k, w.run_op, k))
            t1 = clock()
            ok = True
        except Exception:
            t1 = clock()
            ok = False
            if loop.failed == 0:
                traceback.print_exc()
        if floor:
            w.floor()
            floor_s = clock() - t1
        else:
            floor_s = 0.0
        factor = 1.0
        if speed is not None:
            if floor and w.floor_is_reference:
                speed.add(floor_s)
            elif kernel_gauge and clock() >= next_ref:
                speed.add(reference.time_kernel())
                next_ref = clock() + REF_EVERY_S
            factor = speed.factor
        if ok:
            try:
                ok = bool(w.check(k, result))
            except Exception:
                traceback.print_exc()
                ok = False
        if not ok:
            if loop.failed == 0:
                print(f"{w.name}: op {k} failed its check", file=sys.stderr)
            loop.failed += 1
        loop.record(k, (t1 - t0) * factor, (t1 - t0 - floor_s) * factor,
                    t1 - t0)
        loop.ops = k = k + 1
    return loop


# ---------------------------------------------------------------------------
# measurements in fresh processes

def setup_timer(workloads, code):
    """A function that runs ``code`` in a fresh child and returns the
    seconds it took inside that child, rescaled by the reference kernel
    timed in the same child just before and just after, and the raw
    seconds."""
    env = workloads.child_env(ROOT)
    program = (f"import statistics, sys, time\n"
               f"sys.path.insert(0, {str(BENCH)!r})\n"
               f"import reference\n"
               f"refs = [reference.time_kernel() for _ in range({SETUP_REF_RUNS})]\n"
               f"start = time.perf_counter()\n{code}\n"
               f"seconds = time.perf_counter() - start\n"
               f"refs += [reference.time_kernel() for _ in range({SETUP_REF_RUNS})]\n"
               f"print(seconds, statistics.median(refs))")

    def once():
        status, out = workloads.run_child(["-c", program], env)
        if status != 0:
            raise RuntimeError(f"set-up child exited with {status}")
        seconds, ref = map(float, out.split())
        return seconds * reference.KERNEL_NOMINAL_S / ref, seconds

    once()      # fills the bytecode cache
    return once


def cold_import_ns(workloads):
    env = workloads.child_env(ROOT, cached=False)
    return [workloads.cli_child([], env)["import_ns"] for _ in range(COLD_PROBES)]


def snf_probe(seed):
    """Time the public smith_normal_form on seeded n x n matrices."""
    from nielsencalc.fgab import smith_normal_form
    rng = random.Random(f"snf-{seed}")
    out = {}
    for n, reps in SNF_REPS.items():
        times, digits = [], 0
        for _ in range(reps):
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            start = time.perf_counter()
            u, _, v = smith_normal_form(a)
            times.append(time.perf_counter() - start)
            digits = max(digits, max(len(str(abs(x)))
                                     for m in (u, v) for row in m for x in row))
        out[f"fgab.snf_ms.n{n}"] = statistics.median(times) * 1e3
        out[f"fgab.snf_max_digits.n{n}"] = digits
    return out


# ---------------------------------------------------------------------------
# the two kinds of run

def percentiles(samples):
    p50 = statistics.median(samples)
    p90 = statistics.quantiles(samples, n=10)[-1]
    return p50, p90, sum(1 for x in samples if x > p90)


def end_to_end(w, workloads, spans, seconds):
    w.setup()
    setup_child = setup_timer(workloads, w.setup_code)
    if w.name != "cli_session":
        run_loop(w, WARMUP_S, floor=False)
    if spans.installed():
        raise RuntimeError("end-to-end numbers must come from an untraced run")
    if w.floor_is_reference:
        speed = Speed(FLOOR_NOMINAL_S)
        for _ in range(REF_KEEP):
            started = time.perf_counter()
            w.floor()
            speed.add(time.perf_counter() - started)
    else:
        speed = Speed(reference.KERNEL_NOMINAL_S)
        for _ in range(REF_KEEP):
            speed.add(reference.time_kernel())
    # set-up is timed in fresh children spread over the run, so that its
    # median does not hang on one moment of the machine's load
    setup_times = []
    loop = run_loop(w, seconds, between=lambda: setup_times.append(setup_child()),
                    calls=SETUP_RUNS, speed=speed)
    # read before the statistics below allocate their sorted copies
    who = (resource.RUSAGE_CHILDREN if w.name == "cli_session"
           else resource.RUSAGE_SELF)
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    latency = loop.latency
    p50, p90, beyond = percentiles(latency)
    metrics = {
        "op_latency_ms.p50": p50 * 1e3,
        "op_latency_ms.p90": p90 * 1e3,
        "ops_per_s": loop.ops_per_s,
        "over_floor_ms.p50": statistics.median(loop.over_floor) * 1e3,
        "setup_s": statistics.median(t for t, _ in setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"samples": len(latency), "sample_stride": loop.stride,
             "beyond_p90": beyond,
             "raw_ops_per_s": loop.raw_ops_per_s,
             "raw_setup_s": statistics.median(raw for _, raw in setup_times),
             "reference_samples": speed.count,
             "reference_mean_s": speed.total / speed.count,
             "reference_nominal_s": speed.nominal}
    return metrics, [loop], extra


def per_layer(w, workloads, spans, seconds, seed):
    w.setup()
    if w.name != "cli_session":
        run_loop(w, WARMUP_S, floor=False)
    untraced = run_loop(w, seconds * UNTRACED_SHARE, floor=False)
    tracer = spans.Tracer()
    tracer.install()
    w.tracer = tracer
    try:
        w.traced_setup()
        traced = run_loop(w, seconds * (1 - UNTRACED_SHARE), tracer, floor=False)
    finally:
        tracer.uninstall()
        w.tracer = None
    if w.name == "cli_session":
        cli_tracer, import_ns = tracer, w.import_ns
    else:
        # the CLI layer is not on this workload's path; measure it on the
        # README command mix in fresh traced children
        cli_tracer, import_ns = spans.Tracer(), []
        argvs = list(workloads.CLI_COMMANDS.values())
        for probe in range(IMPORT_PROBES):
            payload = workloads.cli_child(argvs, workloads.child_env(ROOT))
            cli_tracer.merge(payload["spans"], payload["counts"], probe)
            import_ns.append(payload["import_ns"])
    metrics = layer_metrics(spans, tracer, cli_tracer, traced.ops)
    metrics["cli.import_ms"] = statistics.median(import_ns) / 1e6
    metrics["cli.import_cold_ms"] = statistics.median(cold_import_ns(workloads)) / 1e6
    metrics.update(snf_probe(seed))
    metrics["trace.overhead_ratio"] = traced.ops_per_s / untraced.ops_per_s
    write_spans(w.name, tracer.spans)
    extra = {"spans": len(tracer.spans), "traced_ops": traced.ops,
             "untraced_ops": untraced.ops}
    return metrics, [untraced, traced], extra


def layer_metrics(spans, tracer, cli_tracer, ops):
    stats, queries, lookups, lookup_ns = spans.layer_stats(tracer.spans)
    cli_stats = spans.layer_stats(cli_tracer.spans)[0]

    def mean(table, name, column):      # column 1: duration, 2: self time
        calls = table.get(name, (0, 0, 0))
        return calls[column] / calls[0] if calls[0] else 0.0

    in_image_ops = sum(1 for s in tracer.spans
                       if s[0] == "fgab.in_image" and s[4] >= 0)
    hits, calls = (tracer.counts.get(f"fgab.in_image.{key}", 0)
                   for key in ("cache_hits", "calls"))
    return {
        "cli.build_parser_ms": mean(cli_stats, "cli.build_parser", 1) / 1e6,
        "cli.parse_args_ms": mean(cli_stats, "cli.parse_args", 1) / 1e6,
        "cli.render_us": mean(cli_stats, "cli.render", 1) / 1e3,
        "homotopy_db.loads_ms": mean(stats, "homotopy_db.loads", 1) / 1e6,
        "homotopy_db.validate_ms": mean(stats, "homotopy_db.validate", 1) / 1e6,
        "homotopy_db.parse_ms": spans.parse_ns(tracer.spans) / 1e6,
        "homotopy_db.lookups_per_query": lookups / queries if queries else 0.0,
        "homotopy_db.lookup_us_per_query":
            lookup_ns / queries / 1e3 if queries else 0.0,
        "classifier.classify_projective_us":
            mean(stats, "classifier.classify_projective", 2) / 1e3,
        "classifier.table_conditions_us":
            mean(stats, "classifier.table_conditions", 2) / 1e3,
        "classifier.classify_sphere_target_us":
            mean(stats, "classifier.classify_sphere_target", 2) / 1e3,
        "selfcoincidence.self_verdict_us":
            mean(stats, "selfcoincidence.self_verdict", 2) / 1e3,
        "fgab.in_image_us": mean(stats, "fgab.in_image", 2) / 1e3,
        "fgab.in_image_calls_per_op": in_image_ops / ops if ops else 0.0,
        "fgab.kernel_us": mean(stats, "fgab.kernel", 2) / 1e3,
        "fgab.exact_at_us": mean(stats, "fgab.exact_at", 2) / 1e3,
        "fgab.is_injective_us": mean(stats, "fgab.is_injective", 2) / 1e3,
        "fgab.augmented_cache_hit_ratio": hits / calls if calls else 0.0,
    }


def write_spans(workload, spans_list):
    """Spans of the latest traced run of a workload, one JSON list a line."""
    path = OUT / "trace" / f"{workload}.spans.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans_list:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# environment record and output

def git_state():
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                         capture_output=True, timeout=30).stdout.strip()
    status = subprocess.run(["git", "status", "--porcelain",
                             "--untracked-files=no"], cwd=ROOT, text=True,
                            capture_output=True, timeout=30).stdout
    return {"sha": sha or None, "dirty": bool(status.strip())}


def environment(args, w, loadavg):
    return {
        "python": sys.version.split()[0],
        "executable": sys.executable,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
        "bytecode": {
            "inherited_PYTHONDONTWRITEBYTECODE":
                os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "children": "bytecode cached under pycache_prefix, warmed "
                        "before timing",
            "pycache_prefix": str((OUT / "pycache").relative_to(ROOT)),
            "cold_probe": "PYTHONDONTWRITEBYTECODE=1, no prefix",
            "harness": "writes no bytecode",
        },
        "git": git_state(),
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": w.sizes(),
    }


def read_loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def run_one(args, spec):
    loadavg = read_loadavg()
    import spans
    import workloads
    w = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    if args.trace:
        values, loops, extra = per_layer(w, workloads, spans, args.seconds,
                                         args.seed)
    else:
        values, loops, extra = end_to_end(w, workloads, spans, args.seconds)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    attempted = sum(loop.ops for loop in loops)
    failed = sum(loop.failed for loop in loops)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    error_rate = failed / attempted if attempted else 1.0
    print(f"error_rate {error_rate:.6g} ratio ({failed} of {attempted} ops failed)")
    for key, value in extra.items():
        unit = ("1/s" if key.endswith("_per_s") else
                "s" if key.endswith("_s") else "count")
        print(f"{key} {value:.6g} {unit}")
    results = {"environment": environment(args, w, loadavg), "metrics": metrics,
               "error_rate": error_rate, "attempted": attempted,
               "failed": failed, **extra}
    path = OUT / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if attempted else 1


def run_all(args, spec):
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            print(f"== {workload['name']} --trace {trace}", flush=True)
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload["name"],
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], timeout=600)
            status = status or proc.returncode
    return status


def main():
    args = parse_args()
    src = ROOT / "src"
    if not (src / "nielsencalc" / "__init__.py").is_file():
        print("error: run from the root of a nielsencalc checkout "
              "(src/nielsencalc not found)", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.all:
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: --workload must be one of "
              f"{[w['name'] for w in spec['workloads']]}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(src))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
