"""Fixed calibration process: a cold interpreter start plus a short pure-Python loop.

`run.py` starts this process on the same CPU right before every measured
process and divides the measured times by its time (see `normalise` in
run.py). It does not touch the package under test, so its time changes only
with the host's speed: the CPU share and clock a shared virtual machine gets,
which drift by a factor of up to two from minute to minute.

The work resembles a `gpfq.cli` run: stdlib imports at start-up, then small
integer arithmetic modulo a prime, dict and list building, and big-integer
products and remainders.
"""

import argparse  # noqa: F401  (start-up work, as in the CLI)
import fractions  # noqa: F401

ROUNDS = 60


def work(rounds=ROUNDS):
    acc = 0
    coeffs = list(range(1, 400))
    big = 3 ** 400
    for r in range(rounds):
        for x in coeffs:
            acc = (acc * 31 + x * x) % 1000003
        table = {i: (i * r) % 257 for i in range(400)}
        acc += sum(table.values()) & 0xFF
        acc += (big * (acc + r)) % 1000000007
    return acc


if __name__ == "__main__":
    work()
