"""Prime moduli, subsets of the prime field, and the set generators.

A FieldSubset is a canonical (sorted, duplicate-free) subset of
{0, ..., p-1} together with a provenance string recording how it was
built.  Provenance strings use the same grammar the CLI accepts:

    list:1,2,3            explicit elements
    bernoulli:Q[:SEED]    each residue kept independently with probability Q
    uniform:N[:SEED]      uniformly random N-subset
    interval:START:LEN    {start, start+1, ...} mod p
    ap:START:STEP:LEN     arithmetic progression mod p
    gp:START:RATIO:LEN    geometric progression mod p
    paper-interval        {1, ..., isqrt(p) // 2}

Q may be a decimal ("0.3") or a fraction ("3/10"); it is handled as an
exact rational.  SEED is optional for the random families; when omitted,
the run-level seed supplied by the harness is used.

Each generated family is one row of _FAMILIES, which both the parser and
SetSpec.realize read.  realize refuses a set whose generator would visit
more than SET_BUDGET = 2**24 residues before building it: bernoulli
visits all p, uniform:N visits N (p past p/2, where it keeps the
complement), interval, ap and gp their length capped at p, and
paper-interval its isqrt(p) // 2 elements.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import isqrt
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateSet,
    DescriptorError,
    DuplicateElement,
    EvenCharacteristic,
    InvalidDensity,
    InvalidParameter,
    LengthExceedsField,
    NotPrime,
)
from .rng import MASK64, SplitMix64, splitmix64_stream

MODULUS_CAP = 1 << 63

# Witnesses proving Miller-Rabin deterministic for n < 3.3 * 10**24,
# which covers the 2**63 modulus cap.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Residues drawn per block when materializing Bernoulli sets.
_BERNOULLI_CHUNK = 1 << 20

# Most residues a generator may visit, checked before it runs: the
# largest field any histogram accepts (incidence.ENGINE_MAX_P).
SET_BUDGET = 1 << 24


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """An odd prime p; the ambient field is the integers mod p."""

    p: int

    def __post_init__(self):
        if self.p == 2:
            raise EvenCharacteristic("p = 2: field must have odd characteristic")
        if self.p < 3 or self.p >= MODULUS_CAP:
            raise InvalidParameter(f"modulus must be in [3, 2**63), got {self.p}")
        if not _is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")


def validate_prime(n: int) -> PrimeModulus:
    """Validate n as an odd prime and wrap it."""
    return PrimeModulus(int(n))


@dataclass(frozen=True)
class FieldSubset:
    """A subset A of {0, ..., p-1} in canonical sorted form."""

    modulus: PrimeModulus
    elements: tuple
    provenance: str

    def __post_init__(self):
        p = self.modulus.p
        prev = -1
        for e in self.elements:
            if e == prev:
                raise DuplicateElement(f"duplicate element {e}")
            if e < prev:
                raise InvalidParameter("elements must be strictly increasing")
            if not 0 <= e < p:
                raise InvalidParameter(f"element {e} outside [0, {p})")
            prev = e

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def p(self) -> int:
        return self.modulus.p

    def __contains__(self, x: int) -> bool:
        i = bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x


def element_array(A: FieldSubset) -> np.ndarray:
    """The elements of A as a numpy array for exact modular arithmetic.

    The dtype is int64 for p < 2**31, where the product of two residues
    fits, and object (Python integers) above, where it would overflow.
    """
    return np.array(A.elements, dtype=np.int64 if A.p < 1 << 31 else object)


def _canonical(m: PrimeModulus, items: Iterable[int], provenance: str) -> FieldSubset:
    # FieldSubset rejects the duplicates that sorting makes adjacent.
    return FieldSubset(m, tuple(sorted(items)), provenance)


def from_list(m: PrimeModulus, items: Sequence[int]) -> FieldSubset:
    """Explicit set; rejects duplicates and out-of-range elements."""
    elems = sorted(int(x) for x in items)
    return FieldSubset(m, tuple(elems), "list:" + ",".join(map(str, elems)))


def gen_bernoulli(m: PrimeModulus, q, seed: int) -> FieldSubset:
    """Keep each residue independently with probability q (exact rational).

    Residue r is kept iff the r-th SplitMix64 output of `seed` is below
    floor(q * 2**64); the realized inclusion probability is within 2**-64
    of q, and exactly q when q * 2**64 is an integer (e.g. q = 1).
    """
    q = Fraction(q)
    if not 0 < q <= 1:
        raise InvalidDensity(f"density {q} outside (0, 1]")
    p = m.p
    threshold = (q.numerator << 64) // q.denominator
    elems = []
    for start in range(0, p, _BERNOULLI_CHUNK):
        count = min(_BERNOULLI_CHUNK, p - start)
        if threshold > MASK64:
            elems.extend(range(start, start + count))
        else:
            draws = splitmix64_stream(seed, count, offset=start)
            kept = np.flatnonzero(draws < np.uint64(threshold))
            elems.extend(int(start + i) for i in kept)
    return FieldSubset(m, tuple(elems), f"bernoulli:{_fmt_density(q)}:{seed}")


def _fmt_density(q: Fraction) -> str:
    # Prefer the short decimal form when exact, else num/den.
    f = float(q)
    return str(f) if Fraction(str(f)) == q else f"{q.numerator}/{q.denominator}"


def gen_uniform(m: PrimeModulus, n: int, seed: int) -> FieldSubset:
    """Uniformly random n-subset of the field, seeded and reproducible.

    Samples distinct residues by rejection on the smaller of the subset
    and its complement, so memory stays O(n) even for large p.
    """
    p = m.p
    if n < 0:
        raise InvalidParameter("size must be nonnegative")
    if n > p:
        raise LengthExceedsField(f"size {n} exceeds field size {p}")
    rng = SplitMix64(seed)
    k = min(n, p - n)
    chosen = set()
    while len(chosen) < k:
        chosen.add(rng.below(p))
    elems = sorted(chosen) if k == n else (x for x in range(p) if x not in chosen)
    return FieldSubset(m, tuple(elems), f"uniform:{n}:{seed}")


def _check_length(length: int, p: int, what: str) -> None:
    if length < 1:
        raise DegenerateSet(f"{what} length must be at least 1")
    if length > p:
        raise LengthExceedsField(f"length {length} exceeds field size {p}")


def gen_interval(m: PrimeModulus, start: int, length: int) -> FieldSubset:
    """{start, start+1, ..., start+length-1} reduced mod p."""
    p = m.p
    _check_length(length, p, "interval")
    items = [(start + i) % p for i in range(length)]
    return _canonical(m, items, f"interval:{start % p}:{length}")


def gen_ap(m: PrimeModulus, start: int, step: int, length: int) -> FieldSubset:
    """Arithmetic progression start + i*step mod p, i < length."""
    p = m.p
    _check_length(length, p, "progression")
    if step % p == 0 and length > 1:
        raise DuplicateElement("step 0 repeats the start element")
    items = [(start + i * step) % p for i in range(length)]
    return _canonical(m, items, f"ap:{start % p}:{step % p}:{length}")


def gen_gp(m: PrimeModulus, start: int, ratio: int, length: int) -> FieldSubset:
    """Geometric progression start * ratio**i mod p, i < length.

    ratio must not be 0 or 1 mod p, and start must be nonzero; a ratio of
    small multiplicative order still collides, which surfaces as
    DuplicateElement.
    """
    p = m.p
    _check_length(length, p, "progression")
    if ratio % p in (0, 1):
        raise InvalidParameter("gp ratio must differ from 0 and 1 mod p")
    if start % p == 0:
        raise InvalidParameter("gp start must be nonzero mod p")
    items = accumulate(range(length - 1), lambda x, _: x * ratio % p, initial=start % p)
    return _canonical(m, items, f"gp:{start % p}:{ratio % p}:{length}")


def gen_paper_interval(m: PrimeModulus) -> FieldSubset:
    """The interval {1, ..., isqrt(p) // 2} of size exactly isqrt(p) // 2."""
    top = isqrt(m.p) // 2
    if top < 1:
        raise DegenerateSet(f"p = {m.p} leaves no room for the interval")
    return FieldSubset(m, tuple(range(1, top + 1)), "paper-interval")


def gen_full_field(m: PrimeModulus) -> FieldSubset:
    """A = the whole field (the interval of length p)."""
    return gen_interval(m, 0, m.p)


class _Family(NamedTuple):
    generator: str              # gen_* name, looked up when a set is built
    params: Tuple[str, ...]     # as in the grammar; Q is a density, the rest integers
    visits: Callable[..., int]  # (p, *params) -> residues the generator walks
    seeded: bool = False        # takes an optional trailing SEED


# The one table of the generated families; `list` is parsed on its own.
_FAMILIES = {
    "bernoulli": _Family("gen_bernoulli", ("Q",), lambda p, q: p, seeded=True),
    "uniform": _Family("gen_uniform", ("N",), lambda p, n: p if 2 * n > p else n, seeded=True),
    "interval": _Family("gen_interval", ("START", "LEN"), lambda p, *a: min(a[-1], p)),
    "ap": _Family("gen_ap", ("START", "STEP", "LEN"), lambda p, *a: min(a[-1], p)),
    "gp": _Family("gen_gp", ("START", "RATIO", "LEN"), lambda p, *a: min(a[-1], p)),
    "paper-interval": _Family("gen_paper_interval", (), lambda p: isqrt(p) // 2),
}


@dataclass(frozen=True)
class SetSpec:
    """Parsed set descriptor; realize() builds the subset for a modulus.

    For the seeded families an explicit descriptor seed wins; otherwise
    the caller-supplied seed (e.g. the sweep's per-trial seed) is used.
    """

    family: str
    params: tuple
    seed: Optional[int] = None

    def realize(self, m: PrimeModulus, seed: Optional[int] = None) -> FieldSubset:
        self.size(m.p)  # refuses an unknown family or a set over SET_BUDGET first
        if self.family == "list":
            return from_list(m, list(self.params))
        family = _FAMILIES[self.family]
        args = self.params
        if family.seeded:
            args += (self.seed if self.seed is not None else seed,)
            if args[-1] is None:
                raise InvalidParameter(f"family '{self.family}' needs a seed (give one "
                                       "in the descriptor or via --seed)")
        return globals()[family.generator](m, *args)

    def size(self, p: int) -> Optional[int]:
        """The n of the set realize builds mod p, read from the descriptor alone
        (a length past p reads p); None for bernoulli, whose n is random.
        Refuses a set whose generator would visit more than SET_BUDGET residues."""
        if self.family == "list":
            return len(self.params)
        family = _FAMILIES.get(self.family)
        if family is None:
            raise DescriptorError(f"unknown family '{self.family}'")
        visits = family.visits(p, *self.params)
        if visits > SET_BUDGET:
            raise InvalidParameter(
                f"{self.family} set would visit {visits} residues mod {p}, "
                f"over the set budget of {SET_BUDGET}")
        if self.family == "bernoulli":
            return None
        return self.params[0] if self.family == "uniform" else visits


def _token(tok: str, name: str):
    """One descriptor token: Q is an exact density, every other name an integer."""
    try:
        return Fraction(tok) if name == "Q" else int(tok, 10)
    except (ValueError, ZeroDivisionError):
        raise DescriptorError(f"bad {name} token {tok!r}") from None


def parse_set_descriptor(text: str) -> SetSpec:
    """Parse the descriptor grammar documented in the module docstring."""
    text = text.strip()
    if not text:
        raise DescriptorError("empty set descriptor")
    head, _, rest = text.partition(":")
    if head == "list":
        if not rest:
            raise DescriptorError("list: needs at least one element")
        return SetSpec("list", tuple(_token(t, "element") for t in rest.split(",")))
    family = _FAMILIES.get(head)
    if family is None:
        raise DescriptorError(f"unknown set family {head!r}")
    parts = rest.split(":") if rest else []
    names = family.params + ("SEED",) * family.seeded
    if not len(family.params) <= len(parts) <= len(names):
        usage = ":".join(family.params) + "[:SEED]" * family.seeded
        raise DescriptorError(f"{head} takes {usage or 'no arguments'}, got {text!r}")
    values = tuple(map(_token, parts, names))
    return SetSpec(head, values[:len(family.params)], *values[len(family.params):])
