"""Ready-made observables used across tests, demos and the validation suites.

The antisymmetric/even family built here: every member f satisfies
f(x) + f(x + 1/2) = const and f(-x) = f(x), which is the shape the
criterion checkers are designed for.
"""

from __future__ import annotations

import numpy as np

from .torus import (
    AntisymmetricExtension,
    Cosine,
    FunctionSpec,
    PiecewisePoly,
    Scale,
    Sum,
)


def cosine(freq: int = 1, phase: float = 0.0) -> Cosine:
    return Cosine(freq, phase)


def constant(c: float) -> PiecewisePoly:
    return PiecewisePoly((0.0,), ((float(c),),))


def tent() -> PiecewisePoly:
    """|x - 1/2| on [0,1): eta = +inf, as the slope falls at 0; the kink at 1/2 is convex."""
    return PiecewisePoly((0.0, 0.5), ((0.5, -1.0), (-0.5, 1.0)))


def quadratic_extremal() -> AntisymmetricExtension:
    """The even/antisymmetric extension of -x^2 from [0, 1/4] to the circle.

    C^1 with Lipschitz derivative; f'' = -2 on (-1/4, 1/4) and +2 on
    (1/4, 3/4), so the convexity defect is 2 and
    (f(0) - f(1/4)) / defect = (1/16) / 2 = 1/32.
    """
    half = PiecewisePoly(
        (0.0, 0.25),
        ((0.0, 0.0, -1.0), (0.125, -1.0, 1.0)),
        wrap=False,
    )
    return AntisymmetricExtension(half, v=-1.0 / 16.0)


def cosine_extremal_blend(t: float) -> Sum:
    """(1-t) * cos(2 pi x) + t * quadratic extremal; stays in the family."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("blend weight must lie in [0, 1]")
    return Sum((Scale(1.0 - t, Cosine(1, 0.0)), Scale(t, quadratic_extremal())))


def flattened_cosine(s: float) -> Sum:
    """cos(2 pi x) + s * cos(6 pi x).

    Even and antisymmetric for every s; concave on [-1/4, 1/4] iff
    s <= 1/27.  The peak-to-quarter drop shrinks relative to the convexity
    defect as s grows, which makes this the natural family for probing the
    kappa threshold from both sides.
    """
    return Sum((Cosine(1, 0.0), Scale(float(s), Cosine(3, 0.0))))


def random_trig(rng: np.random.Generator) -> Sum:
    """Random trigonometric polynomial: three terms a cos(2 pi k x + phase)
    with k in 1..4 and a uniform in [-1, 1] (C-infinity, Lipschitz)."""
    terms = []
    for _ in range(3):
        k = int(rng.integers(1, 5))
        a = float(rng.uniform(-1.0, 1.0))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        terms.append(Scale(a, Cosine(k, phase)))
    return Sum(tuple(terms))


def random_antisym_even(rng: np.random.Generator) -> FunctionSpec:
    """Random even, antisymmetric observable, concave on [-1/4, 1/4].

    Draws cos(2 pi x) + s3 cos(6 pi x) + s5 cos(10 pi x) with small odd
    harmonics and rejects draws that lose concavity on [-1/4, 1/4], giving
    up after 100 tries.
    """
    xs = np.linspace(-0.25, 0.25, 2001)
    for _ in range(100):
        s3 = float(rng.uniform(0.0, 1.0 / 30.0))
        s5 = float(rng.uniform(-1.0 / 120.0, 1.0 / 120.0))
        f = Sum((Cosine(1, 0.0), Scale(s3, Cosine(3, 0.0)), Scale(s5, Cosine(5, 0.0))))
        second = f.derivative().derivative()
        if np.max(second(xs)) <= 0.0:
            return f
    raise RuntimeError("failed to draw a concave antisymmetric observable")
