"""Benchmark of numrange-lab: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload classify4 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, untraced then traced
    python3 bench/run.py --smoke                      # self-test on a handful of inputs

One process per workload, one caller, closed loop.  BLAS is pinned to one
thread before numpy loads.  See bench/README.md for the workloads, metrics
and size limits.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the exit code is non-zero
when any operation fails its correctness check.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


if __name__ == "__main__":
    pin_threads()  # before anything below imports numpy

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PACKAGE = "numrange_lab"
SETUP_REPS = 5  # before the warm-up; one more after each timed pass
MIN_OPS = 100  # so that at least ten samples lie beyond p90
MIN_PASSES = 3  # every operation is timed at least this many times
SHOWN_FAILURES = 5


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def import_package():
    """Import numrange_lab afresh from this checkout's src/ (never an installed copy)."""
    init = os.path.join(SRC, PACKAGE, "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} not found; run from a checkout of the repository")
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import importlib

    pkg = importlib.import_module(PACKAGE)
    if os.path.realpath(pkg.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: imported {pkg.__file__}, expected {init}")
    return pkg


def commit_id() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import platform

    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {
        "commit": commit_id(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def declared() -> dict:
    """BENCHMARK.json: the workloads and the metrics with their units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------


class Tally:
    """Correctness of every operation run in the timed part."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.flagged = 0
        self.failures = []

    def record(self, op, out, error):
        from workloads import Verdict

        self.attempted += 1
        verdict = Verdict(False, error) if error else op.check(out, op.expect)
        self.flagged += verdict.flags
        if not verdict.ok:
            self.failed += 1
            if len(self.failures) < SHOWN_FAILURES:
                self.failures.append(f"{op.label}: {verdict.why}")


def run_op(op, tally, clock, tracer=None, op_id=0):
    """Run one operation; return its latency in seconds at nominal host speed."""
    error = None
    out = None
    clock.start(op.work)
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.operation(op_id):
                out = op.run()
    except Exception:  # an operation that raises is a counted failure
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    dt = clock.stop()
    tally.record(op, out, error)
    return dt


def setup(build, seed, workdir, reps, clock):
    """Import the package and build the inputs `reps` times.

    Returns the seconds (at nominal host speed) of each repetition and the
    last package and operations.  Each repetition starts after a full
    collection, so that the garbage of the previous one is not collected on
    its clock.
    """
    times = []
    for _ in range(reps):
        gc.collect()
        clock.start()
        nl = import_package()
        ops = build(nl, seed, workdir)
        times.append(clock.stop())
    return times, nl, ops


def inject_wrong(ops):
    """Corrupt the expected answer of the first operation (self-test)."""
    op = ops[0]
    op.expect = dict(op.expect)
    for key in ("k", "n"):
        if key in op.expect:
            op.expect[key] += 1
            return


def run_pass(ops, tally, clock, tracer=None):
    """Every operation once; per-op latencies in seconds at nominal host speed."""
    if tracer is None:
        return [run_op(op, tally, clock) for op in ops]
    return [run_op(op, tally, clock, tracer, i) for i, op in enumerate(ops)]


def end_to_end(pass_lat, setup_s):
    ms = [x * 1000.0 for lat in pass_lat for x in lat]
    return {
        "ops_per_s": len(ms) * 1000.0 / sum(ms),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0],
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }


def timed(seconds, min_rounds, one_round):
    """Call one_round() until about `seconds` have gone by, at least
    min_rounds times; stop when another round would end more than half a
    round past `seconds`.  Returns the rounds' results."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        rounds.append(one_round())
        elapsed = time.perf_counter() - t0
        if len(rounds) >= min_rounds and elapsed * (1 + 0.5 / len(rounds)) >= seconds:
            return rounds


def traced_passes(name, build, nl, ops, seed, workdir, seconds, min_pairs, tally, clock, env):
    """Pairs of an untraced and a traced pass of the same operations, about
    `seconds` in all and at least `min_pairs` of them.

    Counts come from the first traced pass and must repeat exactly in the
    others; self times are medians over the traced passes; the overhead
    compares the median traced and the median untraced pass.
    """
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(nl)
    with tracer.operation(-1, "bench.setup"):
        build(nl, seed, workdir)
    setup_layers = tracer.aggregate()
    tracer.reset()
    tracer.uninstall()

    plain_times, traced_times, traced = [], [], []

    def pair():
        plain_times.append(sum(run_pass(ops, tally, clock)))
        tracer.install(nl)
        try:
            traced_times.append(sum(run_pass(ops, tally, clock, tracer)))
        finally:
            tracer.uninstall()
        traced.append(tracer.aggregate())
        if len(traced) == 1:
            os.makedirs(OUT, exist_ok=True)
            tracer.write_spans(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"))
        tracer.reset()

    timed(seconds, min_pairs, pair)

    layers = dict(traced[0])
    for key in layers:
        if key.endswith("_s"):
            layers[key] = statistics.median(a[key] for a in traced)
    counts = [k for k in layers if not k.endswith(("_s", "_ratio", "_frac"))]
    layers["trace.counts_repeat"] = all(a[k] == traced[0][k] for a in traced for k in counts)
    layers["generators.generate.self_s"] = setup_layers["generators.generate.self_s"]
    layers["generators.self_s"] = setup_layers["generators.self_s"]
    layers["trace.overhead_frac"] = 1.0 - statistics.median(plain_times) / statistics.median(traced_times)
    layers["trace.passes"] = len(traced)
    with open(os.path.join(OUT, f"layers-{name}-seed{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "workload": name, "seed": seed, "layers": layers}, fh, indent=1)
    return layers


def run_workload(args) -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    bench = declared()
    build = WORKLOADS[args.workload]
    quick = args.limit is not None
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    tally = Tally()
    try:
        from clock import Clock

        clock = Clock()
        setup_reps = 1 if quick else SETUP_REPS
        setup_times, nl, ops = setup(build, args.seed, workdir, setup_reps, clock)
        if quick:
            ops = ops[: args.limit]
        if args.inject_wrong:
            inject_wrong(ops)
        env = environment()
        print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} env={json.dumps(env)}")
        for op in ops:  # untimed warm-up pass
            op.run()
        min_passes = 1 if quick else max(MIN_PASSES, -(-MIN_OPS // len(ops)))
        if args.trace:
            # each traced pass comes with an untraced one
            layers = traced_passes(args.workload, build, nl, ops, args.seed, workdir, args.seconds,
                                   max(2, min_passes // 2), tally, clock, env)
            for key in sorted(layers):
                print(f"  {key:48s} {layers[key]}")
            reported = {m["name"]: (m["unit"], layers[m["name"]]) for m in bench["per_layer"]}
        else:
            def one_pass():
                lat = run_pass(ops, tally, clock)
                # set up again after each pass, so that setup_s samples the
                # host over the whole run; the operations keep the package
                # they were built with
                setup_times.extend(setup(build, args.seed, workdir, 1, clock)[0])
                return lat

            pass_lat = timed(args.seconds, min_passes, one_pass)
            passes = len(pass_lat)
            values = end_to_end(pass_lat, statistics.median(setup_times))
            reported = {m["name"]: (m["unit"], values[m["name"]]) for m in bench["end_to_end"]}
            for name, (unit, value) in reported.items():
                print(f"  {name:16s} {value:.6g} {unit}")
            print(f"  {'fail_frac':16s} {tally.failed / tally.attempted:.6g}  ({tally.failed} of {tally.attempted},"
                  f" {passes} passes of {len(ops)})")
            print(f"  {'host_slowdown':16s} {statistics.median(clock.slowdown):.4g}  (yardstick / nominal, median;"
                  f" {min(clock.slowdown):.3g}-{max(clock.slowdown):.3g})")
        print(f"  {'flagged_certificates':16s} {tally.flagged}")
        for line in tally.failures:
            print(f"FAIL {line}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (unit, value) in reported.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


# ---------------------------------------------------------------------------
# several workloads, one child process each
# ---------------------------------------------------------------------------


def child(argv, echo=True):
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), *argv], capture_output=True, text=True,
                          timeout=900)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, last


def run_all(args) -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for trace in (0, 1):
        for name in WORKLOADS:
            rc, last = child(["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(trace)])
            if rc != 0 or last is None:
                status = 1
                combined["correct"] = False
            if last is not None:
                combined["attempted"] += last["attempted"]
                combined["failed"] += last["failed"]
                for key, val in last["metrics"].items():
                    combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return status


def smoke() -> int:
    """Each workload on a few inputs: every declared metric is printed with
    its unit, and an injected wrong answer is counted as a failure."""
    sys.path.insert(0, HERE)
    from metrics import MOVES
    from workloads import WORKLOADS

    bench = declared()
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if set(MOVES) != {m["name"] for m in bench["per_layer"]}:
        problems.append("metrics.py maps other per-layer metrics than BENCHMARK.json lists")
    for name in WORKLOADS:
        base = ["--workload", name, "--seed", "0", "--seconds", "1", "--limit", "3"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            rc, last = child(base + ["--trace", str(trace)], echo=False)
            if rc != 0 or last is None or not last["correct"]:
                problems.append(f"{name} trace={trace}: exit {rc}, result {last}")
                continue
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {sorted(got)} != declared {sorted(want)}")
        rc, last = child(base + ["--trace", "0", "--inject-wrong"], echo=False)
        if rc == 0 or last is None or last["failed"] < 1 or last["correct"]:
            problems.append(f"{name}: injected wrong answer not counted (exit {rc}, result {last})")
        print(f"smoke {name}: {'ok' if not problems else 'problems so far'}", flush=True)
    for p in problems:
        print(f"SMOKE FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", help="classify4, cli-verify, structured-n or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, help="only the first N operations of one round (self-test)")
    p.add_argument("--inject-wrong", action="store_true", help="corrupt one expected answer (self-test)")
    p.add_argument("--smoke", action="store_true", help="run the benchmark self-test")
    args = p.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
