"""Seeded property suite behind ``flatcheck spencer check``.

Each check is an exact identity on randomly sampled polynomial data:
holonomic sections are killed by the Spencer operator, the bracket on
sections does not see the choice of lift, prolongation is a bracket
homomorphism, and the kernel fibers satisfy Jacobi.  Counts and pass
flags come back as a JSON-ready summary.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .jetcore import multi_indices
from .rational import Poly, RationalFunc
from .spencer import (
    JetField,
    PointJet,
    kernel_bracket,
    lift_with_top,
    prolong,
    spencer_bracket,
    spencer_operator,
    vector_field_bracket,
)


def _random_poly(n: int, deg: int, rng: random.Random) -> Poly:
    coeffs = {}
    for mono in multi_indices(n, deg):
        c = rng.randint(-3, 3)
        if c:
            coeffs[mono] = Fraction(c)
    return Poly(n, coeffs)


def _random_vector_field(n: int, deg: int, rng: random.Random):
    return [RationalFunc(_random_poly(n, deg, rng)) for _ in range(n)]


def _random_jet_field(n: int, k: int, rng: random.Random, deg: int = 2) -> JetField:
    comps = {}
    for i in range(n):
        for alpha in multi_indices(n, k):
            comps[(i, alpha)] = RationalFunc(_random_poly(n, deg, rng))
    return JetField(n, k, comps)


def run_spencer_suite(seed: int = 0, trials: int = 20) -> dict:
    rng = random.Random(seed)
    results = {}

    # the Spencer operator annihilates exactly the holonomic sections
    ok = 0
    for _ in range(trials):
        n = rng.choice((1, 2))
        k = rng.choice((1, 2, 3))
        v = _random_vector_field(n, 3, rng)
        if spencer_operator(prolong(v, k)).is_zero():
            ok += 1
    results["annihilates_prolongations"] = {"passed": ok, "trials": trials}

    # bracket on sections is independent of the lift
    ok = 0
    for _ in range(trials):
        n = rng.choice((1, 2))
        k = rng.choice((1, 2))
        a = _random_jet_field(n, k, rng)
        b = _random_jet_field(n, k, rng)
        top = {}
        for i in range(n):
            for alpha in multi_indices(n, k + 1):
                if sum(alpha) == k + 1:
                    top[(i, alpha)] = RationalFunc(_random_poly(n, 1, rng))
        default = spencer_bracket(a, b)
        other = spencer_bracket(a, b, lift=lambda f: lift_with_top(f, top))
        if default == other:
            ok += 1
    results["lift_independence"] = {"passed": ok, "trials": trials}

    # prolongation is a bracket homomorphism
    ok = 0
    for _ in range(trials):
        n = rng.choice((1, 2))
        k = rng.choice((1, 2))
        v = _random_vector_field(n, 2, rng)
        w = _random_vector_field(n, 2, rng)
        if prolong(vector_field_bracket(v, w), k) == spencer_bracket(prolong(v, k), prolong(w, k)):
            ok += 1
    results["prolongation_homomorphism"] = {"passed": ok, "trials": trials}

    # Jacobi on the kernel fibers (the vertex Lie algebra)
    ok = 0
    for _ in range(trials):
        n = rng.choice((1, 2))
        k = rng.choice((2, 3))
        jets = []
        for _ in range(3):
            coeffs = {}
            for i in range(n):
                for alpha in multi_indices(n, k):
                    if 1 <= sum(alpha):
                        coeffs[(i, alpha)] = Fraction(rng.randint(-3, 3))
            jets.append(PointJet(n, k, (0,) * n, coeffs))
        a, b, c = jets
        terms = [kernel_bracket(kernel_bracket(x, y), z).taylor_polys()
                 for x, y, z in ((a, b, c), (b, c, a), (c, a, b))]
        if all((p + q + r).is_zero() for p, q, r in zip(*terms)):
            ok += 1
    results["kernel_jacobi"] = {"passed": ok, "trials": trials}

    results["all_passed"] = all(r["passed"] == r["trials"] for r in results.values()
                                if isinstance(r, dict))
    return results

