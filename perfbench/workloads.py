"""The benchmark's workloads: inputs made from a seed, and their checks.

A workload is a small warm-up operation of the same kind as its timed
ones, plus an endless sequence of rounds.
Round r is a fixed list of operations whose inputs are drawn from
random.Random("<workload>:<seed>:<r>"), so the same seed always yields
the same inputs, and every round holds the same kinds and number of
operations.  Each operation calls one public gridlines.harness entry
point and is checked afterwards by perfbench.checks.

`ops` is how many user-level operations a call counts for (a sweep
trial, a moments instance, a support or verify call) and `lines` how
many affine lines of the requested instances it counts: p**2 + p per
sweep trial, moments instance or verify instance; none for a census.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, List, Sequence

from gridlines import harness
from gridlines.harness import ExperimentConfig

import checks


@dataclass
class Op:
    call: Callable[[], object]
    ops: int
    lines: int
    check: Callable[[object, bool], List[str]]  # (result, deep) -> problems


def _rng(workload: str, seed: int, r) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def _lines(p: int) -> int:
    return p * p + p


def _listed(elements: Sequence[int]) -> str:
    return "list:" + ",".join(str(x) for x in elements)


def _random_set(rng: random.Random, p: int, n: int) -> List[int]:
    return sorted(rng.sample(range(p), n))


def _report_op(entry: str, p: int, elements: List[int]) -> Op:
    """A run_moments or run_verify call; looked up at call time, so traced."""
    cfg = ExperimentConfig(primes=(p,), set_descriptor=_listed(elements))
    return Op(
        call=lambda: getattr(harness, entry)(cfg),
        ops=1,
        lines=_lines(p),
        check=lambda report, deep: checks.check_report(p, elements, report, deep),
    )


def _support_op(p: int, descriptor: str, elements: List[int]) -> Op:
    cfg = ExperimentConfig(primes=(p,), set_descriptor=descriptor)
    return Op(
        call=lambda: harness.run_support(cfg),
        ops=1,
        lines=0,
        check=lambda summary, deep: checks.check_census(p, elements, summary, deep),
    )


# --- sweep-sparse -----------------------------------------------------------
# Bernoulli sweeps at density c / isqrt(p), c = 0.6 and 1.4, so n is near
# sqrt(p): c = 0.6 keeps p > 2 n**2 (slope_direct sorts keys), c = 1.4
# does not (slope_direct bincounts intercept profiles).
SWEEP_PRIMES = (503, 1009, 2003)
SWEEP_DENSITY_TENTHS = (6, 14)
SWEEP_TRIALS = 12


def _sweep_op(p: int, tenths: int, base_seed: int, trials: int) -> Op:
    q = Fraction(tenths, 10 * isqrt(p))
    cfg = ExperimentConfig(
        primes=(p,),
        set_descriptor=f"bernoulli:{q.numerator}/{q.denominator}",
        trials=trials,
        seed=base_seed,
    )
    return Op(
        call=lambda: harness.run_sweep(cfg),
        ops=trials,
        lines=trials * _lines(p),
        check=lambda result, deep: checks.check_sweep(p, q, trials, result, deep),
    )


def sweep_sparse(seed: int, r) -> List[Op]:
    rng = _rng("sweep-sparse", seed, r)
    if r == "warmup":
        return [_sweep_op(SWEEP_PRIMES[0], SWEEP_DENSITY_TENTHS[-1], rng.getrandbits(63), 1)]
    return [
        _sweep_op(p, tenths, rng.getrandbits(63), SWEEP_TRIALS)
        for p in SWEEP_PRIMES
        for tenths in SWEEP_DENSITY_TENTHS
    ]


# --- moments-p23 ------------------------------------------------------------
# n = round(p**(2/3)): the Stevens-de Zeeuw threshold of the paper's bound.
P23_INSTANCES = ((1009, 101), (2003, 159))
P23_WARMUP = ((101, 22),)


def moments_p23(seed: int, r) -> List[Op]:
    rng = _rng("moments-p23", seed, r)
    instances = P23_WARMUP if r == "warmup" else P23_INSTANCES
    return [_report_op("run_moments", p, _random_set(rng, p, n)) for p, n in instances]


# --- moments-dense ----------------------------------------------------------
# n >= p/2: p = 1009 at density 0.6 and p = 2003 at density 0.5.
DENSE_INSTANCES = ((1009, 605), (2003, 1002))
DENSE_WARMUP = ((101, 61),)


def moments_dense(seed: int, r) -> List[Op]:
    rng = _rng("moments-dense", seed, r)
    instances = DENSE_WARMUP if r == "warmup" else DENSE_INSTANCES
    return [_report_op("run_moments", p, _random_set(rng, p, n)) for p, n in instances]


# --- census-verify ----------------------------------------------------------
# Full support censuses of a geometric progression, the paper's interval
# {1..isqrt(p)//2} and two random sets of the same size (30) at p = 3607;
# verify calls on sets small enough for t_brute (n <= 8), q_brute
# (n <= 6), the algebraic count (n <= 20) and the naive strategy.
CENSUS_PRIME = 3607
CENSUS_SIZE = isqrt(CENSUS_PRIME) // 2
VERIFY_INSTANCES = ((101, 6), (211, 6), (211, 8), (101, 12))


def _progression(rng: random.Random, p: int, length: int):
    """A seeded geometric progression start * ratio**i with distinct terms."""
    start = rng.randrange(1, p)
    while True:
        ratio = rng.randrange(2, p)
        terms = [start * pow(ratio, i, p) % p for i in range(length)]
        if len(set(terms)) == length:
            return f"gp:{start}:{ratio}:{length}", sorted(terms)


def census_verify(seed: int, r) -> List[Op]:
    rng = _rng("census-verify", seed, r)
    if r == "warmup":
        p, n = VERIFY_INSTANCES[0]
        return [_report_op("run_verify", p, _random_set(rng, p, n))]
    p, n = CENSUS_PRIME, CENSUS_SIZE
    ops = [
        _support_op(p, *_progression(rng, p, n)),
        _support_op(p, "paper-interval", list(range(1, n + 1))),
    ]
    for _ in range(2):
        elements = _random_set(rng, p, n)
        ops.append(_support_op(p, _listed(elements), elements))
    ops += [_report_op("run_verify", q, _random_set(rng, q, m)) for q, m in VERIFY_INSTANCES]
    return ops


WORKLOADS = {
    "sweep-sparse": sweep_sparse,
    "moments-p23": moments_p23,
    "moments-dense": moments_dense,
    "census-verify": census_verify,
}
