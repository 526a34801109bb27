"""The benchmark's workloads, their inputs and the product oracle.

Inputs are two z x z matrices drawn uniformly from GF(2^31 - 1) by
Python's own `random.Random`, keyed by workload name and seed, so the
same seed gives the same inputs. The protocol seed of every scenario
is a fixed constant: the workload seed varies only the matrices, so
the work a pass does (envelopes, rounds, adversary actions) is the
same for every seed and run-to-run spread is the host's, not the
input's. The oracle is A . B^T computed with Python integers, apart
from any compc code.
"""

import random
from typing import NamedTuple

P = 2 ** 31 - 1
PROTOCOL_SEED = 2020

REASON_CODES = frozenset({
    "BadSubshareValue", "BadGapForm", "BadProductRelation",
    "EvssRejectedDealer"})

# SHARE/SHARE/MUL/REVEAL: the verified multiply and nothing else
HONEST_PROGRAM = (
    ("share", (0, "direct"), "ra"),
    ("share", (1, "reverse"), "rb"),
    ("mul", ("ra", "rb"), "rc"),
    ("reveal", ("rc",), ""),
)

# the right operand is shared direct and turned around inside the pool,
# and the product is transposed before it is revealed, so the direction
# and transpose drivers run under attack as well
BYZANTINE_PROGRAM = (
    ("share", (0, "direct"), "ra"),
    ("share", (1, "direct"), "rb0"),
    ("d2r", ("rb0",), "rb"),
    ("mul", ("ra", "rb"), "rc"),
    ("transpose", ("rc",), "rt"),
    ("reveal", ("rt",), ""),
)

BYZANTINE_PAIRS = (
    ("InconsistentEvssDealer", "BadGapCoefficient"),
    ("WrongSubshareConstant", "CorruptProductPoly"),
    ("FalseComplainer", "RandomByzantine"),
    ("Silent", "RandomByzantine"),
)
BYZANTINE_PARTIES = (2, 7)


class Workload(NamedTuple):
    name: str
    m: int
    t: int
    n: int
    z: int
    program: tuple
    adversaries: tuple      # one ((party, strategy), ...) per scenario
    transposed: bool        # the program reveals (A . B^T)^T

    def declared(self, ix):
        return {party for party, _ in self.adversaries[ix]}


WORKLOADS = {w.name: w for w in (
    Workload(
        "gapcheck-wide",
        m=8, t=2, n=21, z=8, program=HONEST_PROGRAM, adversaries=((),),
        transposed=False),
    Workload(
        "wide-blocks",
        m=2, t=1, n=6, z=64, program=HONEST_PROGRAM, adversaries=((),),
        transposed=False),
    Workload(
        "byzantine",
        m=3, t=2, n=11, z=12, program=BYZANTINE_PROGRAM,
        adversaries=tuple(tuple(zip(BYZANTINE_PARTIES, pair))
                          for pair in BYZANTINE_PAIRS),
        transposed=True),
)}


def make_inputs(workload, seed):
    """Two z x z matrices of Python ints, uniform over GF(P)."""
    rng = random.Random(f"{workload.name}|{seed}")
    z = workload.z
    return tuple([[rng.randrange(P) for _ in range(z)] for _ in range(z)]
                 for _ in range(2))


def oracle(workload, a, b):
    """A . B^T mod P (or its transpose) with Python integers only."""
    prod = [[sum(x * y for x, y in zip(row_a, row_b)) % P for row_b in b]
            for row_a in a]
    if workload.transposed:
        prod = [list(col) for col in zip(*prod)]
    return prod


def scenarios(workload, a, b):
    """One compc Scenario per adversary set of the workload."""
    from compc.gf import FMatrix
    from compc.net import Scenario
    inputs = (FMatrix(a, P), FMatrix(b, P))
    return [Scenario(n=workload.n, t=workload.t, m=workload.m, p=P,
                     seed=PROTOCOL_SEED, z=workload.z,
                     program=workload.program, adversaries=adv,
                     inputs=inputs)
            for adv in workload.adversaries]
