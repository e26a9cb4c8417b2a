"""Speed reference for the timed run: a fixed job that does not use thirdrule.

    python3 perfbench/reference.py

The timed run starts this in a fresh interpreter between passes, and
scales each pass by how long the reference took around it (see run.py).
The job mixes what the workloads spend their time on: interpreter start
and ``import numpy``, an integer and float loop in pure Python, small
random draws, and large indexed gathers.  It prints a checksum, which
the timed run compares with CHECKSUM.  NOMINAL_S is its median wall
time on the baseline machine, the speed the timed run scales to.
Changing this file changes every timing metric, so it must stay the
same between the commits compared.
"""

import numpy as np

LOOP_STEPS = 60_000
DRAW_EVERY = 60
GATHER_ROUNDS = 6
CHECKSUM = "3141899029 496.913969 263538.0"
NOMINAL_S = 0.22


def main() -> str:
    rng = np.random.default_rng(12345)
    acc = 0
    x = 0.0
    for i in range(LOOP_STEPS):
        acc += (i * 7919) % 104729
        x = x * 0.999 + (acc & 1023) / 1024.0
        if i % DRAW_EVERY == 0:
            z = rng.standard_normal((2, 120))
            x += float(np.cumsum(z[0])[-1]) * 1e-9
    table = np.linspace(0.0, 1.0, 1331 * 66).reshape(1331, 66)
    index = (np.arange(1331 * 66) * 7919 % 1331).reshape(1331, 66)
    total = 0.0
    for _ in range(GATHER_ROUNDS):
        total += float(np.take_along_axis(table, index, axis=0).sum())
    return f"{acc} {round(x, 6)} {round(total, 2)}"


if __name__ == "__main__":
    print(main())
