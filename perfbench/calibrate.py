"""Host-speed calibration: fixed work, timed next to every item.

The benchmark runs on a shared host whose speed swings by a quarter or
more, in phases of a second to minutes, and a 15 s run can sit in one
phase.  So every timed item is bracketed by calibration samples: a fixed
piece of work that never touches folindex, run in the same process (or
the same kind of fresh process) right before and right after the item.
An item's scaled latency is its wall latency times REF / (mean of the two
samples): the latency it would have on a host whose sample takes REF.
A change to folindex changes the item, not the samples, so it shows in
full.

There are two kinds of sample, matched to the kind of work they stand in
for; a sample of the wrong kind tracks the host's phases only in part.
- `warm_sample`: pure-Python polynomial, fraction and integer matrix
  work in this process, for items that are calls into an already
  imported package.
- `cold_sample`: a fresh isolated interpreter that imports a fixed set of
  standard-library modules, for items and set-ups that start a process
  and import a large package.
"""

import subprocess
import sys
import time
from fractions import Fraction

# Typical samples on the 2-vCPU Xeon host the bounds were set on.  Scaled
# figures read as wall figures on a host that takes exactly this long.
WARM_REF_S = 0.0015
COLD_REF_S = 0.160

COLD_IMPORTS = ("import argparse, asyncio, dataclasses, decimal, "
                "email.parser, fractions, http.client, inspect, json, "
                "typing, unittest, xml.dom.minidom")


def _warm_round():
    """Sparse polynomial products over tuple-keyed dicts, a sum of
    fractions and small integer matrix products: the kinds of work sympy's
    dense and sparse polynomials and folindex's lattice do."""
    p = {(i, j): (7 * i + 3 * j) % 11 - 5 for i in range(6) for j in range(6 - i)}
    q = {(i, j): (5 * i + j) % 7 - 3 for i in range(5) for j in range(5 - i)}
    for _ in range(3):
        product = {}
        for (a, b), c in p.items():
            for (d, e), f in q.items():
                product[a + d, b + e] = product.get((a + d, b + e), 0) + c * f
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i * i + 1)
    m = [[(i * j + 3) % 17 - 8 for j in range(10)] for i in range(10)]
    for _ in range(3):
        m = [[sum(m[i][k] * m[k][j] for k in range(10)) % 1000003
              for j in range(10)] for i in range(10)]
    return product, total, m


def warm_sample():
    """Best of two rounds, so that one interrupt does not count."""
    best = None
    for _ in range(2):
        start = time.perf_counter()
        _warm_round()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def cold_sample(timeout=60):
    """Wall time of the fresh child.  Its output goes through a pipe: with
    a timeout and no pipe to read, subprocess polls for the exit in
    sleeps of up to 50 ms, and the time would come in 50 ms steps."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", COLD_IMPORTS], check=True,
                   capture_output=True, timeout=timeout)
    return time.perf_counter() - start


class Scale:
    """Scales wall times by the samples taken around them.

    `mark()` takes a sample; call it before the first timed item and after
    every item.  `factor()` is REF over the mean of the last two samples,
    which is the factor for the item between them.
    """

    def __init__(self, sample, ref):
        self.sample, self.ref = sample, ref
        self.samples = []

    def mark(self):
        self.samples.append(self.sample())

    def factor(self):
        return self.ref / ((self.samples[-2] + self.samples[-1]) / 2)
