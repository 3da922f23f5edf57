"""Machine-speed probe: a fixed pure-Python reference loop, timed next to
every measured interval, so that the benchmark can report times at one
reference speed.

On a small shared VM the speed of one vCPU changes by up to 2x within a
second and stays low or high for minutes, whatever the program does.  A
time divided by the reference loop's time measured just before and just
after it keeps the program's own cost and loses most of that drift.  The
loop does what gsf does most: small-integer arithmetic modulo a prime,
tuple keys and dict lookups.  It never changes, so every commit is
measured against the same yardstick.
"""

import time

# one chunk's wall time at the reference speed, the fast speed of a
# 2-vCPU 2.1 GHz Xeon VM; an interval measured between probes that read
# exactly this is reported unchanged
REFERENCE_CHUNK_S = 0.0033
CHUNK_STEPS = 12000


def _chunk():
    s = 1
    table = {}
    for i in range(CHUNK_STEPS):
        s = (s * 31 + i) % 1000003
        key = (i & 255, s & 7)
        table[key] = table.get(key, 0) + s
    return s


def probe(min_s=0.0):
    """Mean wall time of one chunk, over one chunk or more and at least
    `min_s` seconds."""
    start = time.perf_counter()
    chunks = 0
    while not chunks or time.perf_counter() - start < min_s:
        _chunk()
        chunks += 1
    return (time.perf_counter() - start) / chunks


def factor(before, after):
    """Scale from wall seconds to reference seconds for an interval between
    two probes."""
    return REFERENCE_CHUNK_S / ((before + after) / 2)
