"""Offline loopback benchmark of snmpkit: poll, bulkwalk and v3_authpriv.

    python3 bench/run.py --workload poll --seed 1 --seconds 38 --trace 0

Run from anywhere inside a checkout; snmpkit is imported from the
checkout's ``src`` directory and nowhere else.  Each workload is a closed
loop of one client session over the in-process loopback harness, so no
socket is opened.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The run's environment, the names of failed checks and, for traced runs,
every span are written under ``bench/out``.  See ``bench/NOTES.md``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402  (the set-up clock starts before any import)
import gc  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import reference  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("poll", "bulkwalk", "v3_authpriv")
SETUP_PROBES = 7
TRACE_BLOCKS = 10
PROBE_TIMEOUT_S = 60
GAUGE_INTERVAL_S = 0.25  # how often the reference unit is timed
GAUGE_WINDOW_S = 1.0     # an op is scaled by the units timed this near it
MIN_OPS = 100  # so that at least 10 op times lie beyond op_p90_ms

END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "ops_per_s": "1/s",
    "exchanges_per_op": "count", "wire_bytes_per_op": "bytes",
    "ok_op_ratio": "ratio", "peak_rss_mb": "MB",
}


def _import_snmpkit():
    """Import snmpkit from this checkout's src, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "snmpkit", "__init__.py")):
        sys.exit(f"error: no snmpkit source under {SRC}; run the benchmark "
                 "from a checkout of the repository")
    sys.path.insert(0, SRC)
    import snmpkit
    if os.path.dirname(os.path.dirname(os.path.abspath(snmpkit.__file__))) \
            != SRC:
        sys.exit(f"error: snmpkit was imported from {snmpkit.__file__}, "
                 f"not from {SRC}")


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def environment():
    """What the figures depend on besides the code."""
    import cryptography
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg": list(os.getloadavg()),
        "sys_modules": len(sys.modules),
        "logging_level": logging.getLevelName(logging.getLogger().level),
    }


class Loop:
    """Runs one workload instance op by op and keeps the per-op record."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.next_op = 0
        self.starts = []
        self.durations = []
        self.gauges = []  # (time, reference unit ms)
        self.failures = Counter()
        self.attempted = 0
        self.failed = 0
        self.exchanges = 0
        self.wire_bytes = 0

    def run(self, op_id=None, record=True):
        """One op; op_id labels its spans when the loop is traced."""
        w = self.workload
        i = self.next_op
        self.next_op += 1
        exchanges, wire = w.exchanges(), w.wire_bytes()
        start = time.perf_counter()
        try:
            if self.tracer is None:
                failed = w.op(i)
            else:
                failed = self.tracer.run_op(op_id, w.op, i)
        except Exception as exc:  # an op that raises is a failed op
            failed = [f"{w.name}.raised.{type(exc).__name__}"]
        elapsed = time.perf_counter() - start
        if record:
            self.starts.append(start)
            self.durations.append(elapsed)
            self.attempted += 1
            self.exchanges += w.exchanges() - exchanges
            self.wire_bytes += w.wire_bytes() - wire
            if failed:
                self.failed += 1
                self.failures.update(failed)
        return elapsed

    def run_for(self, seconds=None, ops=None, op_ids=None, gauge=False):
        """Timed ops for `seconds` (or exactly `ops` ops); returns wall time.
        With gauge, the reference unit is timed between ops every
        GAUGE_INTERVAL_S; op durations exclude it."""
        gc.collect()
        start = time.perf_counter()
        deadline = start + (seconds or 0)
        gauged = float("-inf")
        done = 0
        while (done < ops) if ops is not None else \
                (time.perf_counter() < deadline or done == 0):
            now = time.perf_counter()
            if gauge and now - gauged >= GAUGE_INTERVAL_S:
                self.gauges.append((now, reference.unit_ms()))
                gauged = now
            self.run(next(op_ids) if op_ids is not None else None)
            done += 1
        if gauge:
            self.gauges.append((time.perf_counter(), reference.unit_ms()))
        return time.perf_counter() - start

    def unit_ms_near(self, t):
        """Median reference-unit time within GAUGE_WINDOW_S of time t."""
        near = [ms for at, ms in self.gauges if abs(at - t) <= GAUGE_WINDOW_S]
        return statistics.median(near) if near else \
            min(self.gauges, key=lambda g: abs(g[0] - t))[1]

    def scaled_ms(self):
        """Each op's duration in ms at the reference speed."""
        return [elapsed * 1e3 * reference.REFERENCE_MS / self.unit_ms_near(start)
                for start, elapsed in zip(self.starts, self.durations)]


def outcome(*loops):
    """(attempted, failed, failed checks by name) over the loops' ops."""
    failures = Counter()
    for loop in loops:
        failures.update(loop.failures)
    return (sum(loop.attempted for loop in loops),
            sum(loop.failed for loop in loops), failures)


def _p90(durations):
    if len(durations) < 2:
        return durations[0]
    return statistics.quantiles(durations, n=10)[-1]


def setup_probe(workload_cls, seed):
    """Child mode: build the workload in this fresh interpreter, report time."""
    workload_cls(seed)
    print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))


def measure_setup(args):
    """(when, set-up time in s) of the workload in a fresh interpreter."""
    when = time.perf_counter()
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if child.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{child.stderr}")
    return when, json.loads(child.stdout.splitlines()[-1])["setup_s"]


def end_to_end(args, workload_cls):
    """Timed ops, with the set-up probes spread between segments of the
    run so that they and the ops see the same spells of machine load.
    Timings are scaled to the reference speed (see reference.py); the raw
    ones go to the run's record."""
    loop = Loop(workload_cls(args.seed))
    loop.run(record=False)  # warm-up: lazy imports, caches, first allocations
    probes = 1 if args.ops else SETUP_PROBES
    setups, wall = [], 0.0
    for _ in range(probes):
        setups.append(measure_setup(args))
        wall += loop.run_for(args.seconds / probes, args.ops, gauge=True)
    if args.ops is None and loop.attempted < MIN_OPS:
        wall += loop.run_for(ops=MIN_OPS - loop.attempted, gauge=True)
    ok = loop.attempted - loop.failed
    scaled = loop.scaled_ms()
    metrics = {
        "setup_s": statistics.median(
            raw * reference.REFERENCE_MS / loop.unit_ms_near(when)
            for when, raw in setups),
        "op_p50_ms": statistics.median(scaled),
        "op_p90_ms": _p90(scaled),
        "ops_per_s": ok / (sum(scaled) / 1e3),
        "exchanges_per_op": loop.exchanges / loop.attempted,
        "wire_bytes_per_op": loop.wire_bytes / loop.attempted,
        "ok_op_ratio": ok / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_ms = [d * 1e3 for d in loop.durations]
    detail = {"raw": {"setup_s": statistics.median(raw for _, raw in setups),
                      "op_p50_ms": statistics.median(raw_ms),
                      "op_p90_ms": _p90(raw_ms), "ops_per_s": ok / wall},
              "reference_unit_ms": statistics.median(
                  ms for _, ms in loop.gauges),
              "setup_samples_s": setups, "timed_wall_s": wall}
    return outcome(loop), metrics, END_TO_END_UNITS, detail


def traced(args, workload_cls):
    """Alternate untraced and traced blocks; per-layer metrics from the
    traced ones, the tracing overhead from their ratio."""
    import tracer as tracing
    from snmpkit import mibs, oids

    plain = Loop(workload_cls(args.seed))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _ in range(SETUP_PROBES):
            mibs.load_core(oids.Registry())
        # handlers of this instance are wrapped as they are registered
        spanned = Loop(workload_cls(args.seed), tracer)
        spanned.run(tracing.WARMUP_OP, record=False)
    finally:
        tracer.uninstall()
    plain.run(record=False)

    op_ids = iter(range(10 ** 9))
    blocks = 2 if args.ops else TRACE_BLOCKS
    for block in range(blocks):
        if block % 2 == 0:
            plain.run_for(args.seconds / blocks, args.ops)
            continue
        tracer.install()
        try:
            spanned.run_for(args.seconds / blocks, args.ops, op_ids)
        finally:
            tracer.uninstall()

    metrics = tracing.layer_metrics(tracer, spanned.attempted,
                                    spanned.exchanges)
    metrics["trace.overhead_ratio"] = statistics.median(spanned.durations) / \
        statistics.median(plain.durations)
    attempted, failed, failures = outcome(plain, spanned)
    metrics["failed_op_ratio"] = failed / attempted

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(
        OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    tracer.write(spans_path)
    detail = {"spans_file": os.path.relpath(spans_path, ROOT),
              "spans": len(tracer.spans), "traced_ops": spanned.attempted,
              "untraced_ops": plain.attempted, "counts": dict(tracer.counts),
              "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return (attempted, failed, failures), metrics, per_layer_units(), detail


def run_all(args):
    """Every workload in its own process, one after another."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
        if args.ops is not None:
            command += ["--ops", str(args.ops)]
        child = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {child.returncode}")
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="smoke mode: exactly this many timed ops per "
                             "block instead of --seconds")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_snmpkit()
    # "no cost when logging is off" is measured with logging explicitly off
    logging.getLogger().setLevel(logging.WARNING)
    if args.workload == "all":
        return run_all(args)
    import workloads
    workload_cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe(workload_cls, args.seed)
    # imported in both modes: the enterprise feature table the agents serve
    # has a row per top-level module, so sys.modules must not differ
    import tracer  # noqa: F401

    env = environment()
    measure = traced if args.trace else end_to_end
    (attempted, failed, failures), metrics, units, detail = \
        measure(args, workload_cls)

    print("env " + json.dumps(env, sort_keys=True))
    for check, count in sorted(failures.items()):
        print(f"FAILED {check}: {count} of {attempted} ops")
    for name, value in metrics.items():
        print(f"{args.workload:12} {name:45} {value:14.6f} {units[name]}")
    for name, value in detail.get("raw", {}).items():
        print(f"{args.workload:12} {'unscaled ' + name:45} {value:14.6f} "
              f"{units[name]}")
    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "attempted": attempted, "failed": failed,
              "failures": dict(failures), "metrics": metrics, **detail}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))


if __name__ == "__main__":
    main()
