"""Benchmark of dihedralcovers: one workload, one seed, one run.

Run from the root of a checkout:

    python3 bench/run.py --workload torsion --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one caller.  One process and one thread
run one op at a time; each run is a fresh process.  The seed makes the
inputs; the library only sees the generated inputs.

With ``--trace 0`` the run sets up the workload (import, field and curve
construction, seeded inputs, oracle values) a few times, then runs the
whole rounds of ops that take ``--seconds`` seconds on the reference
machine, then checks every result against the oracle, then sets up a
few times more.  Every time it reports is scaled to the reference speed
by the kernel of ``speed.py``, sampled throughout.  The last line of
standard output is a JSON object with the end-to-end metrics.

With ``--trace 1`` the run sets up once with tracing on and replays the
first round, at most TRACE_PER_KIND ops of each kind, three times:
untraced and traced (alternating op by op), and with field-element
constructions counted.  The last line holds the per-layer metrics, and
the spans are written to ``bench/out/``.

The line before the last one is the run record: Python version, nproc,
seed, git commit, failures by kind, and a sha256 digest of the first
round's results.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speedometer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# set-ups per group; there are two groups, before and after the timed phase
SETUP_REPEATS = 2
SETUP_SPAN_S = 0.5

# ops of one kind the traced run replays, at most
TRACE_PER_KIND = 10

# package modules, imported fresh for every set-up
LAYERS = ["fields", "cyclotomic", "poly", "homog", "parsing", "linalg", "graded",
          "double_cover", "hyperelliptic", "dihedral", "cover_algebra",
          "cover_geometry", "deformations", "cli"]

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "ok_ratio": "1", "peak_rss_mb": "MB"}


class OpTimeout(BaseException):
    """Raised by SIGALRM when an op passes its deadline.  A BaseException,
    so no ``except Exception`` inside the library can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Outcome:
    __slots__ = ("op", "round", "status", "value", "start", "latency")

    def __init__(self, op, rnd, status, value, start, latency):
        self.op = op
        self.round = rnd
        self.status = status      # ok, error, timeout, mismatch
        self.value = value
        self.start = start
        self.latency = latency


def run_op(op, rnd=0, meter=None):
    """Run one op under its deadline, in-process with ITIMER_REAL.  With a
    running ``meter`` the deadline is stretched by the machine's current
    slowdown, and the kernel samples taken inside the op do not count."""
    status, value = "ok", None
    spent = meter.spent if meter else 0.0
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, op.deadline * (meter.recent() if meter else 1.0))
        try:
            value = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        status = "timeout"
    except Exception as e:
        status, value = "error", type(e).__name__
    elapsed = time.perf_counter() - t0
    if meter:
        elapsed -= meter.spent - spent
    return Outcome(op, rnd, status, value, t0, elapsed)


def import_library():
    """A fresh import of every package module (module caches included)."""
    from workloads import Lib
    for name in [m for m in sys.modules
                 if m == "dihedralcovers" or m.startswith("dihedralcovers.")]:
        del sys.modules[name]
    return Lib((layer, importlib.import_module("dihedralcovers." + layer))
               for layer in LAYERS)


def order_rng(seed):
    return random.Random("order-%d" % seed)


def round_count(workload, seconds):
    """Whole rounds filling ``seconds`` at the reference speed, at least one.

    The count does not depend on the machine's speed, so every run of a
    workload does the same work and a parent and a change compare like
    with like.
    """
    return max(1, int(seconds / workload.ROUND_SECONDS + 0.5))


def run_rounds(workload, state, seed, rounds, meter=None):
    rng = order_rng(seed)
    outcomes = []
    start = time.perf_counter()
    for r in range(rounds):
        ops = workload.round(state, r)
        rng.shuffle(ops)
        for op in ops:
            outcomes.append(run_op(op, r, meter))
    return outcomes, time.perf_counter() - start


def verify(workload, state, outcomes):
    """Apply the oracle to every completed op; mismatches change status."""
    items = []
    for o in outcomes:
        if o.status != "ok":
            continue
        try:
            good = workload.check(state, o.op, o.value)
        except Exception:
            good = False
        if isinstance(good, str):
            o.status, o.value = "error", good
        elif good:
            items.append(o)
        else:
            o.status = "mismatch"
    for k in workload.check_groups(state, [(o.op, o.value) for o in items]):
        items[k].status = "mismatch"


def percentile(values, q):
    """Nearest-rank percentile; failed ops enter as +inf."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)) - 1, 0)]


def digest(workload, outcomes):
    """sha256 over the sorted JSON of the first round's results."""
    rows = []
    for o in outcomes:
        if o.round != 0:
            continue
        result = workload.summary(o.op, o.value) if o.status == "ok" else o.status
        rows.append([list(o.op.key), result])
    rows.sort(key=lambda row: json.dumps(row[0]))
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def kind_latencies(outcomes):
    """Per op kind: op count and median latency in ms; null when more
    than half of the kind's ops failed."""
    by_kind = {}
    for o in outcomes:
        by_kind.setdefault(o.op.kind, []).append(
            o.latency * 1000.0 if o.status == "ok" else math.inf)
    out = {}
    for kind, values in sorted(by_kind.items()):
        median = statistics.median(values)
        out[kind] = [len(values), round(median, 3) if math.isfinite(median) else None]
    return out


def failures(outcomes):
    out = {}
    for o in outcomes:
        if o.status != "ok":
            key = "%s:%s" % (o.op.kind, o.status if o.status != "error" else o.value)
            out[key] = out.get(key, 0) + 1
    return out


def git_commit():
    """HEAD of the checkout, or None outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def base_record(args):
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": git_commit()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(workload, seed, meter, times, raw_times):
    """Set up at least SETUP_REPEATS times and for at least SETUP_SPAN_S
    with the ``meter`` running.  Appends each set-up's start and time
    without the kernel samples to ``times`` (to be scaled once the
    samples after it exist) and its raw time to ``raw_times``.  Returns
    the last state."""
    start = time.perf_counter()
    count = 0
    with meter:
        while count < SETUP_REPEATS or time.perf_counter() - start < SETUP_SPAN_S:
            spent = meter.spent
            t0 = time.perf_counter()
            state = workload.setup(import_library(), random.Random(seed))
            elapsed = time.perf_counter() - t0
            raw_times.append(elapsed)
            elapsed -= meter.spent - spent
            times.append((t0, elapsed))
            count += 1
    return state


def latency_metrics(outcomes, latency):
    """ops_per_s, op_p50_ms and op_p90_ms, with ``latency(o)`` the time
    of outcome ``o`` in seconds; failed ops count as +inf in the
    percentiles and with their time in the throughput."""
    ok = sum(1 for o in outcomes if o.status == "ok")
    times = [latency(o) for o in outcomes]
    ranked = [t if o.status == "ok" else math.inf for o, t in zip(outcomes, times)]
    return {"ops_per_s": ok / sum(times),
            "op_p50_ms": percentile(ranked, 50) * 1000.0,
            "op_p90_ms": percentile(ranked, 90) * 1000.0}


def timed_run(workload, args):
    meter = Speedometer()
    setup_times, raw_setup_times = [], []
    state = set_up(workload, args.seed, meter, setup_times, raw_setup_times)
    gc.collect()
    rounds = round_count(workload, args.seconds)
    with meter:
        outcomes, wall = run_rounds(workload, state, args.seed, rounds, meter)
    verify(workload, state, outcomes)
    attempted = len(outcomes)
    ok = sum(1 for o in outcomes if o.status == "ok")
    # an op cut by its deadline ran for exactly the deadline at the
    # reference speed; scaling its wall time again would add noise
    values = latency_metrics(outcomes, lambda o: o.op.deadline if o.status == "timeout"
                             else meter.scale(o.start, o.latency))
    values.update({"ok_ratio": ok / attempted, "peak_rss_mb": peak_rss_mb()})
    record = base_record(args)
    record.update({"rounds": rounds, "timed_wall_s": wall, "samples": attempted,
                   "samples_beyond_p90": attempted - math.ceil(0.9 * attempted),
                   "fail_ratio": (attempted - ok) / attempted,
                   "failures": failures(outcomes),
                   "kinds": kind_latencies(outcomes),
                   "digest": digest(workload, outcomes)})
    result = {"correct": not any(o.status == "mismatch" for o in outcomes),
              "attempted": attempted, "failed": attempted - ok}

    # the second group of set-ups runs some 20 s after the first, so the
    # median spans two phases of the machine's speed
    raw = latency_metrics(outcomes, lambda o: o.latency)
    del state, outcomes
    gc.collect()
    set_up(workload, args.seed, meter, setup_times, raw_setup_times)
    setup_times = [meter.scale(t0, elapsed) for t0, elapsed in setup_times]
    values["setup_s"] = statistics.median(setup_times)
    raw["setup_s"] = statistics.median(raw_setup_times)
    record.update({"setup_times_s": setup_times, "raw_wall_clock": raw,
                   "slowdown": meter.summary()})
    result["metrics"] = {k: {"value": values[k], "unit": unit}
                         for k, unit in END_TO_END_UNITS.items()}
    return result, record


def traced_run(workload, args):
    from tracer import ConstructionCounter, Tracer, per_layer_names
    lib = import_library()
    tracer = Tracer(lib)
    tracer.op = "setup"
    tracer.install()
    try:
        state = workload.setup(lib, random.Random(args.seed))
    finally:
        tracer.uninstall()
    ops, per_kind = [], {}
    for op in workload.round(state, 0):
        per_kind[op.kind] = per_kind.get(op.kind, 0) + 1
        if per_kind[op.kind] <= TRACE_PER_KIND:
            ops.append(op)
    order_rng(args.seed).shuffle(ops)
    gc.collect()

    # plain and traced runs of each op alternate, and so does their order,
    # so drift and warm-up fall on both sides of the overhead ratio.  A
    # kernel sample before each op stretches the deadlines as in a timed
    # run; none is taken inside an op.
    meter = Speedometer()
    outcomes = []
    plain_wall = traced_wall = 0.0
    for i, op in enumerate(ops):
        meter.sample()
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced:
                plain_wall += run_op(op, meter=meter).latency
                continue
            tracer.op = i
            tracer.install()
            try:
                outcome = run_op(op, meter=meter)
            finally:
                tracer.uninstall()
            traced_wall += outcome.latency
            outcomes.append(outcome)

    counter = ConstructionCounter(lib)
    counter.install()
    try:
        for op, traced in zip(ops, outcomes):
            if traced.status == "timeout":
                continue    # a cut op's counts would not count
            counter.begin_op()
            counter.end_op(run_op(op, meter=meter).status != "timeout")
    finally:
        counter.uninstall()

    verify(workload, state, outcomes)
    values = tracer.layer_metrics()
    values.update(counter.totals)
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in per_layer_names()}

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    tracer.write(spans_path)
    record = base_record(args)
    record.update({"samples": len(outcomes), "plain_wall_s": plain_wall,
                   "traced_wall_s": traced_wall, "failures": failures(outcomes),
                   "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
                   "digest": digest(workload, outcomes),
                   "self_time_shares": self_time_shares(tracer, outcomes)})
    ok = sum(1 for o in outcomes if o.status == "ok")
    result = {"correct": not any(o.status == "mismatch" for o in outcomes),
              "attempted": len(outcomes), "failed": len(outcomes) - ok, "metrics": metrics}
    return result, record


def self_time_shares(tracer, outcomes, top=3):
    """Per op kind (and set-up): the traced functions with the most self
    time, as shares of that kind's op wall time."""
    by_op = tracer.self_by_op()
    kinds = {}
    for i, o in enumerate(outcomes):
        k = kinds.setdefault(o.op.kind, [0.0, {}])
        k[0] += o.latency
        for name, s in by_op.get(i, {}).items():
            k[1][name] = k[1].get(name, 0.0) + s
    total = sum(k[0] for k in kinds.values())
    overall = {}
    for _, selfs in kinds.values():
        for name, s in selfs.items():
            overall[name] = overall.get(name, 0.0) + s
    kinds["all ops"] = [total, overall]
    out = {}
    for kind, (wall, selfs) in sorted(kinds.items()):
        best = sorted(selfs.items(), key=lambda kv: -kv[1])[:top]
        out[kind] = {"wall_s": round(wall, 4),
                     "top": [[name, round(s / wall, 3)] for name, s in best]}
    setup = sorted(by_op.get("setup", {}).items(), key=lambda kv: -kv[1])[:top]
    out["setup"] = {"top_self_s": [[name, round(s, 4)] for name, s in setup]}
    return out


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dihedralcovers" / "__init__.py").is_file():
        print("bench: no library sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]()
    signal.signal(signal.SIGALRM, _on_alarm)
    run = traced_run if args.trace else timed_run
    result, record = run(workload, args)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
