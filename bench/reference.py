"""A fixed unit of pure-Python work that gauges how fast the host runs now.

The benchmark shares its host with other machines' work, which slows all
Python code at once, by up to 1.6x on the hosts the benchmark was built
on, in spells of seconds to minutes.  A timing divided by the time of
this unit, measured in the same seconds, moves much less: over ten runs
of identical code, the spread of the median op time fell from 0.22-0.32
to 0.03-0.04 (interquartile range over median).  The unit does what
snmpkit's code does most, on a small working set of its own: it walks
dicts, unpacks tuples, builds ints, bytes and strings, and joins them.
It must never change; a change to it changes every timing the benchmark
reports.
"""

import gc
import time

# Timings are reported in milliseconds at the speed where one unit takes
# REFERENCE_MS: raw time x REFERENCE_MS / (unit time measured alongside).
# On an Intel Xeon (2 vCPU) under Python 3.11.7 a unit took 2.0 ms in
# quiet spells and 3.2 ms in busy ones.
REFERENCE_MS = 2.5

_DATA = [{f"k{i}": (i, str(i), bytes(8)) for i in range(64)}
         for _ in range(40)]


def _unit():
    out = []
    for j in range(100):
        for _, (a, b, c) in _DATA[j * 7 % len(_DATA)].items():
            out.append((a + 1).to_bytes(4, "big") + c + b.encode())
    return len(b"".join(out))


def unit_ms():
    """How long one unit takes now, in ms.  The collector is held off so
    that the unit never pays for scanning the workload's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _unit()
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()
