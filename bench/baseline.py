"""Set the ROADMAP baseline figures beside those of the traced runs.

    python3 bench/run.py --workload poll --seed 1 --trace 1   # and the others
    python3 bench/run.py --workload bulkwalk --seed 1 --trace 0
    python3 bench/baseline.py --seed 1

Reads the records that bench/run.py wrote under bench/out for that seed.
Every figure here is unscaled, as the ROADMAP's were.
"""

import argparse
import gzip
import json
import os
import statistics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

# (what, ROADMAP figure, unit)
ROADMAP = {
    "encode_us_per_varbind": ("BER encode per varbind, 25-varbind response", 19, "us"),
    "decode_us_per_varbind": ("BER decode per varbind, 25-varbind response", 19, "us"),
    "password_to_key_ms": ("password_to_key, SHA-1", 2.1, "ms"),
    "load_core_ms": ("mibs.load_core", 15, "ms"),
    "v2c_get_us": ("loopback v2c get sysDescr.0", 200, "us"),
    # 0.35 s to walk 1,600 instances of a 1,600-instance view; the cost
    # grows as instances walked x instances in the view, and bulkwalk
    # walks 1,000 of 2,006
    "walk_s": ("bulk walk, scaled to 1,000 walked of 2,006 in view",
               0.35 * 1000 * 2006 / 1600 ** 2, "s"),
}


def _record(workload, seed, trace):
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")) as f:
        return json.load(f)


def first_get_us(spans_file):
    """Median time of each poll op's first get (sysDescr.0), traced."""
    ops, firsts = set(), []
    with gzip.open(os.path.join(ROOT, spans_file), "rt") as f:
        spans = [json.loads(line) for line in f]
    for index, (name, start, end, parent, op) in enumerate(spans):
        if name == "client.get" and parent >= 0 and \
                spans[parent][0] == "op" and op not in ops:
            ops.add(op)
            firsts.append((end - start) / 1e3)
    return statistics.median(firsts)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    poll = _record("poll", seed, 1)
    walk = _record("bulkwalk", seed, 1)
    v3 = _record("v3_authpriv", seed, 1)
    measured = {
        "encode_us_per_varbind": walk["metrics"]["ber.encode.us_per_varbind"],
        "decode_us_per_varbind": walk["metrics"]["ber.decode.us_per_varbind"],
        "password_to_key_ms": v3["metrics"]["usm.password_to_key.ms_per_call"],
        "load_core_ms": poll["metrics"]["mibs.load_core.ms"],
        "v2c_get_us": first_get_us(poll["spans_file"]),
        "walk_s": _record("bulkwalk", seed, 0)["raw"]["op_p50_ms"] / 1e3,
    }
    print(f"{'figure':48} {'ROADMAP':>10} {'here':>10}  ratio")
    for key, (what, then, unit) in ROADMAP.items():
        now = measured[key]
        print(f"{what:48} {then:10.3f} {now:10.3f}  {now / then:5.2f}  {unit}")
    print("traced figures carry the tracing overhead: "
          + ", ".join(f"{r['workload']} x{r['metrics']['trace.overhead_ratio']:.2f}"
                      for r in (poll, walk, v3)))


if __name__ == "__main__":
    main()
