"""Self-test of the benchmark's output check.

A served answer must equal the per-layer oracle bit for bit.  This
builds one small seeded model, checks that a correct answer passes and
that the same answer with one logit moved by one ulp, or with a dtype or
shape change, fails.  Exit code 0 means the check works.

Run it through the launcher, which sets up the environment::

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import sys

import numpy as np

from harness import (
    SERVED_PROXY,
    Outcome,
    image_pool,
    oracle_batch,
    quantized_proxy,
    request_models,
    same_bits,
)


def main() -> int:
    images = image_pool(0, n_per_class=4)
    qm = quantized_proxy(SERVED_PROXY, 0, images[:32])
    seeds = list(range(8))
    served = qm.forward(images[:8], mode="sconna", error_model=request_models(seeds))
    want = oracle_batch(qm, images[:8], seeds)
    perturbed = served.copy()
    perturbed[3, 5] = np.nextafter(perturbed[3, 5], np.inf)
    cases = {
        "correct answer passes": same_bits(served, want),
        "one-ulp logit change fails": not same_bits(perturbed, want),
        "float32 copy fails": not same_bits(served.astype(np.float32), want),
        "dropped image fails": not same_bits(served[:7], want),
    }
    run = Outcome()
    run.check(same_bits(perturbed, want), "perturbed logit")
    cases["a mismatch marks the run incorrect"] = not run.correct
    for name, ok in cases.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(cases.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
