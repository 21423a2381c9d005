"""Seeded property suite behind ``flatcheck spencer check``.

Each check is an exact identity on randomly sampled polynomial data:
holonomic sections are killed by the Spencer operator, the bracket on
sections does not see the choice of lift, prolongation is a bracket
homomorphism, and the kernel fibers satisfy Jacobi.  Counts and pass
flags come back as a JSON-ready summary.
"""

from __future__ import annotations

import random
from functools import cache
from math import factorial

from .jetcore import mi_factorial, multi_indices
from .rational import Poly
from .spencer import (
    JetField,
    kernel_bracket,
    prolong,
    spencer_bracket,
    spencer_operator,
    vector_field_bracket,
)


@cache
def _layout(n: int, deg: int, kernel: bool) -> tuple:
    """(packed monomial, weight) for each alpha of ``multi_indices(n, deg)``,
    in that order: weight 1, or for a kernel jet deg! / alpha! (the
    numerator of 1 / alpha! over deg!) with the constant monomial left out."""
    packed = Poly(n, dict.fromkeys(multi_indices(n, deg), 1)).terms
    if not kernel:
        return tuple((mono, 1) for mono in packed)
    top = factorial(deg)
    return tuple((mono, top // mi_factorial(alpha))
                 for mono, alpha in zip(packed, multi_indices(n, deg)) if sum(alpha))


def _draw(n: int, layout: tuple, den: int, rng: random.Random) -> Poly:
    """The sum of c * weight * x^mono / den over ``layout``, each c drawn
    from -3..3 in order, built from integer numerators."""
    nums = {}
    for mono, weight in layout:
        c = rng.randint(-3, 3)
        if c:
            nums[mono] = c * weight
    return Poly.zero(n)._from_ints(nums, den)


def _random_poly(n: int, deg: int, rng: random.Random) -> Poly:
    return _draw(n, _layout(n, deg, False), 1, rng)


def _random_vector_field(n: int, deg: int, rng: random.Random):
    return [_random_poly(n, deg, rng) for _ in range(n)]


def _random_jet_field(n: int, k: int, rng: random.Random, deg: int = 2) -> JetField:
    comps = {}
    for i in range(n):
        for alpha in multi_indices(n, k):
            comps[(i, alpha)] = _random_poly(n, deg, rng)
    return JetField(n, k, comps)


def _random_kernel_jet(n: int, k: int, rng: random.Random) -> list:
    """A k-jet at a point with no constant term: its Taylor polynomials,
    drawn as integer derivative components."""
    return [_draw(n, _layout(n, k, True), factorial(k), rng) for _ in range(n)]


def _annihilates_prolongations(rng: random.Random) -> bool:
    """The Spencer operator annihilates the holonomic sections."""
    n = rng.choice((1, 2))
    k = rng.choice((1, 2, 3))
    v = _random_vector_field(n, 3, rng)
    return all(d.is_zero() for d in spencer_operator(prolong(v, k)))


def _lift_independence(rng: random.Random) -> bool:
    """The bracket on sections does not see the top components of the lift."""
    n = rng.choice((1, 2))
    k = rng.choice((1, 2))
    a = _random_jet_field(n, k, rng)
    b = _random_jet_field(n, k, rng)
    top = {(i, alpha): _random_poly(n, 1, rng)
           for i in range(n) for alpha in multi_indices(n, k + 1) if sum(alpha) == k + 1}
    return spencer_bracket(a, b) == spencer_bracket(a, b, top)


def _prolongation_homomorphism(rng: random.Random) -> bool:
    """Prolongation is a bracket homomorphism."""
    n = rng.choice((1, 2))
    k = rng.choice((1, 2))
    v = _random_vector_field(n, 2, rng)
    w = _random_vector_field(n, 2, rng)
    return prolong(vector_field_bracket(v, w), k) == spencer_bracket(prolong(v, k), prolong(w, k))


def _kernel_jacobi(rng: random.Random) -> bool:
    """Jacobi on the kernel fibers (the vertex Lie algebra)."""
    n = rng.choice((1, 2))
    k = rng.choice((2, 3))
    a, b, c = (_random_kernel_jet(n, k, rng) for _ in range(3))
    terms = [kernel_bracket(kernel_bracket(x, y, k), z, k)
             for x, y, z in ((a, b, c), (b, c, a), (c, a, b))]
    return all((p + q + r).is_zero() for p, q, r in zip(*terms))


_CHECKS = (
    ("annihilates_prolongations", _annihilates_prolongations),
    ("lift_independence", _lift_independence),
    ("prolongation_homomorphism", _prolongation_homomorphism),
    ("kernel_jacobi", _kernel_jacobi),
)


def run_spencer_suite(seed: int = 0, trials: int = 20) -> dict:
    """Run each check for all its trials, in ``_CHECKS`` order, from one seeded stream."""
    rng = random.Random(seed)
    results = {name: {"passed": sum(check(rng) for _ in range(trials)), "trials": trials}
               for name, check in _CHECKS}
    results["all_passed"] = all(r["passed"] == r["trials"] for r in results.values())
    return results
