"""Seeded case lists for the verify benchmark.

A case is ``(case_id, argv)``: the argv is exactly what the program sees
(the worker only appends ``--out <temp file>``).  Case ids do not depend
on the seed, so the expected-answers file can key on them: the seed only
moves coefficients inside a wall pattern, or the sampling seed of a
model, and neither changes the combinatorics being checked.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 42
# Not used while writing a change; rerun a claimed gain on it before landing.
CONFIRM_SEED = 1009

RANK3_SYSTEMS = ("A3", "B3", "C3", "D3", "BC3")
# The 7 nonzero wall patterns of a rank-3 point; 1 marks a nonzero
# fundamental-coweight coefficient.
RANK3_PATTERNS = (
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
    (1, 1, 1),
)
# Single fundamental-coweight directions (1-based); F4 has 24 vertices at
# both, every other case at most 16.
RANK4_DIRECTIONS = (
    ("A4", 1),
    ("A4", 2),
    ("A4", 3),
    ("A4", 4),
    ("B4", 1),
    ("B4", 4),
    ("C4", 1),
    ("C4", 4),
    ("D4", 1),
    ("D4", 3),
    ("D4", 4),
    ("F4", 1),
    ("F4", 4),
)
MODEL_POINTS = (
    ("sym3", "2,0,-2"),
    ("sym3", "1,1,-2"),
    ("sym4", "3,1,-1,-3"),
    ("sym4", "1,1,-1,-1"),
    ("skew5", "2,1"),
    ("skew7", "3,2,1"),
    ("skew7", "2,2,0"),
)
N_SAMPLES = 10000

WORKLOADS = ("exact-rank3", "exact-rank4", "model-numeric")

# One case outside the case list, run during set-up so that the code
# paths the workload needs are imported and exercised once.
WARMUP = {
    "exact-rank3": ["verify", "--system", "A2", "--coords", "weights", "--x", "1,1"],
    "exact-rank4": ["verify", "--system", "A2", "--coords", "weights", "--x", "1,1"],
    "model-numeric": ["verify", "--model", "sym2", "--x", "1,-1", "--n-samples", "100"],
}


def _weights(label: str, coeffs) -> list:
    return ["verify", "--system", label, "--coords", "weights",
            "--x", ",".join(str(c) for c in coeffs)]


def _exact_rank3(rng: random.Random) -> list:
    cases = []
    for label in RANK3_SYSTEMS:
        for pattern in RANK3_PATTERNS:
            coeffs = [rng.randint(1, 3) if bit else 0 for bit in pattern]
            tag = "".join(map(str, pattern))
            cases.append((f"{label}/{tag}", _weights(label, coeffs)))
    for label in RANK3_SYSTEMS:
        coeffs = [rng.randint(1, 3), 0, 0]
        cases.append((f"{label}/100/corrupt0",
                      _weights(label, coeffs) + ["--corrupt-descriptor", "0"]))
    return cases


def _exact_rank4(rng: random.Random) -> list:
    cases = []
    for label, k in RANK4_DIRECTIONS:
        coeffs = [0, 0, 0, 0]
        coeffs[k - 1] = rng.randint(1, 3)
        cases.append((f"{label}/w{k}", _weights(label, coeffs)))
    return cases


def _model_numeric(seed: int) -> list:
    return [
        (f"{model}/{x}",
         ["verify", "--model", model, "--x", x,
          "--n-samples", str(N_SAMPLES), "--seed", str(seed)])
        for model, x in MODEL_POINTS
    ]


def cases(workload: str, seed: int) -> list:
    """The case list of a workload; the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "exact-rank3":
        return _exact_rank3(rng)
    if workload == "exact-rank4":
        return _exact_rank4(rng)
    if workload == "model-numeric":
        return _model_numeric(seed)
    raise ValueError(f"unknown workload {workload!r}")
