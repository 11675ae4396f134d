"""Host-speed probe: a fixed pure-Python loop, timed next to the program.

The shared two-vCPU host the benchmark was defined on changes speed from
minute to minute, in both directions, as other tenants load the machine:
identical runs differ by up to 1.5x in wall time, and process CPU time
moves with them.  The probe slows and speeds up with the host.  A request's
wall time divided by the probe's time just before it stays within a few
percent from run to run where the raw wall time spreads by 10-20%.

So every timing the benchmark gates is reported at the nominal host speed:
wall seconds x REFERENCE_S / probe seconds.  The raw wall times are printed
next to them.
"""

import time

# The probe's time on the defining host in its usual state (two-vCPU VM,
# Python 3.11.7).  It only sets the scale: on that host, in that state, a
# scaled time equals the wall time.
REFERENCE_S = 0.0100
LOOPS = 100_000


def probe() -> float:
    """Seconds one run of the fixed loop takes now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """`seconds` of wall time, scaled to the host speed where the probe
    takes REFERENCE_S."""
    return seconds * REFERENCE_S / probe_s
