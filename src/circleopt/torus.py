"""Real-valued functions on the circle T = R/Z.

Two representations are used throughout:

* ``FunctionSpec`` -- an immutable symbolic expression tree with exact
  evaluation and exact derivatives.  Node kinds: cosines, piecewise
  polynomials, sums, scalings, translations, negations and antisymmetric
  extensions of a half-profile.
* ``GridFunction`` -- a uniform N-point sampling ``values[i] = f(i/N)``
  with periodic linear interpolation between nodes.

Everything is immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
import numpy as np

TWO_PI = 2.0 * math.pi

# Snap tolerance (in units of grid spacing) used to decide that an
# evaluation point *is* a node, so node evaluation returns stored values
# exactly even when x = i/N was produced by inexact float arithmetic.
_NODE_SNAP = 1e-9

_JOIN_TOL = 1e-9  # relative continuity tolerance at piecewise junctions


def _mod1(x):
    """x mod 1 in [0, 1] for a float array or scalar, bitwise numpy's ``x % 1.0``.

    Both round the exact value x - floor(x) once (numpy's remainder adds 1
    to the exact fmod of a negative x), so they agree to the bit, -0.0 -> +0.0
    and a tiny negative x -> 1.0 included, at a fraction of the cost.
    """
    r = np.floor(x)
    if r.ndim == 0:
        return x - r
    return np.subtract(x, r, out=r)


def _check_finite(field: str, *values) -> None:
    """Reject a spec parameter that is NaN or infinite, naming its field."""
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{field} must be finite, got {v!r}")


class FunctionSpec:
    """Base class for symbolic period-1 observables.

    Subclasses implement ``_eval`` on arguments already reduced to [0, 1),
    plus exact differentiation and serialization.
    """

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = self._eval(_mod1(arr))
        if arr.ndim == 0:
            return float(out)
        return np.asarray(out, dtype=float)

    def _eval(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative(self) -> "FunctionSpec":
        raise NotImplementedError

    def nonsmooth_points(self) -> tuple[float, ...]:
        """Locations in [0,1) where the spec may be non-smooth."""
        return ()

    def to_dict(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class Cosine(FunctionSpec):
    """cos(2*pi*freq*x + phase) with integer frequency (hence period 1)."""

    freq: int = 1
    phase: float = 0.0

    def __post_init__(self):
        if isinstance(self.freq, bool) or not (isinstance(self.freq, int) and self.freq >= 1):
            raise ValueError(f"Cosine frequency must be a positive integer, got {self.freq!r}")
        _check_finite("Cosine.phase", self.phase)

    def _eval(self, r):
        return np.cos(TWO_PI * self.freq * r + self.phase)

    def derivative(self):
        # d/dx cos(2 pi k x + p) = 2 pi k cos(2 pi k x + p + pi/2)
        return Scale(TWO_PI * self.freq, Cosine(self.freq, self.phase + math.pi / 2.0))

    def to_dict(self):
        return {"kind": "cos", "freq": self.freq, "phase": self.phase}


@dataclass(frozen=True)
class PiecewisePoly(FunctionSpec):
    """Piecewise polynomial on [0,1): piece i covers [b_i, b_{i+1}).

    ``breakpoints`` must start at 0 and be strictly increasing in [0,1);
    ``coefficients[i]`` are ascending-power coefficients evaluated at the
    global coordinate x in [0,1).  ``wrap=False`` marks a profile used only
    on a subinterval (e.g. a half-profile), which exempts the 1 -> 0
    junction from continuity requirements in ``derivative``.
    """

    breakpoints: tuple[float, ...]
    coefficients: tuple[tuple[float, ...], ...]
    wrap: bool = True

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        coefs = tuple(tuple(float(c) for c in piece) for piece in self.coefficients)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "coefficients", coefs)
        _check_finite("PiecewisePoly breakpoints", *bps)
        _check_finite("PiecewisePoly coefficients", *(c for piece in coefs for c in piece))
        if not isinstance(self.wrap, bool):
            raise ValueError(f"PiecewisePoly wrap must be a boolean, got {self.wrap!r}")
        if len(bps) == 0 or bps[0] != 0.0:
            raise ValueError("PiecewisePoly breakpoints must start at 0.0")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])) or bps[-1] >= 1.0:
            raise ValueError("PiecewisePoly breakpoints must be strictly increasing in [0,1)")
        if len(coefs) != len(bps):
            raise ValueError("need one coefficient tuple per piece")
        if any(len(piece) == 0 for piece in coefs):
            raise ValueError("empty coefficient tuple")

    def _eval(self, r):
        shape = np.shape(r)
        flat = np.atleast_1d(np.asarray(r, dtype=float))
        idx = np.searchsorted(np.asarray(self.breakpoints), flat, side="right") - 1
        out = np.empty_like(flat)
        for i, piece in enumerate(self.coefficients):
            mask = idx == i
            if mask.any():
                out[mask] = np.polynomial.polynomial.polyval(flat[mask], np.asarray(piece))
        return out.reshape(shape)

    def piece_value(self, i: int, x: float) -> float:
        """Evaluate piece i's polynomial at x regardless of piece bounds."""
        return float(np.polynomial.polynomial.polyval(x, np.asarray(self.coefficients[i])))

    def _scale(self) -> float:
        return max(1.0, max(abs(c) for piece in self.coefficients for c in piece))

    def derivative(self):
        m = len(self.breakpoints)
        tol = _JOIN_TOL * self._scale()
        for j in range(1, m):
            b = self.breakpoints[j]
            if abs(self.piece_value(j - 1, b) - self.piece_value(j, b)) > tol:
                raise ValueError(f"derivative of discontinuous piecewise polynomial (jump at x={b})")
        if self.wrap:
            if abs(self.piece_value(m - 1, 1.0) - self.piece_value(0, 0.0)) > tol:
                raise ValueError("derivative of discontinuous piecewise polynomial (jump at x=0)")
        dcoefs = []
        for piece in self.coefficients:
            if len(piece) == 1:
                dcoefs.append((0.0,))
            else:
                dcoefs.append(tuple(j * c for j, c in enumerate(piece) if j >= 1))
        return PiecewisePoly(self.breakpoints, tuple(dcoefs), wrap=self.wrap)

    def nonsmooth_points(self):
        return self.breakpoints

    def to_dict(self):
        d = {
            "kind": "piecewise_poly",
            "breakpoints": list(self.breakpoints),
            "coefficients": [list(p) for p in self.coefficients],
        }
        if not self.wrap:
            d["wrap"] = False
        return d


@dataclass(frozen=True)
class Sum(FunctionSpec):
    terms: tuple[FunctionSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) == 0:
            raise ValueError("Sum needs at least one term")

    def _eval(self, r):
        out = self.terms[0]._eval(r)
        for t in self.terms[1:]:
            out = out + t._eval(r)
        return out

    def derivative(self):
        return Sum(tuple(t.derivative() for t in self.terms))

    def nonsmooth_points(self):
        pts = set()
        for t in self.terms:
            pts.update(t.nonsmooth_points())
        return tuple(sorted(pts))

    def to_dict(self):
        return {"kind": "sum", "terms": [t.to_dict() for t in self.terms]}


@dataclass(frozen=True)
class Scale(FunctionSpec):
    factor: float
    inner: FunctionSpec

    def __post_init__(self):
        _check_finite("Scale.factor", self.factor)

    def _eval(self, r):
        return self.factor * self.inner._eval(r)

    def derivative(self):
        return Scale(self.factor, self.inner.derivative())

    def nonsmooth_points(self):
        return self.inner.nonsmooth_points()

    def to_dict(self):
        return {"kind": "scale", "factor": self.factor, "inner": self.inner.to_dict()}


@dataclass(frozen=True)
class Translate(FunctionSpec):
    """Translate(omega, f)(x) = f(x - omega)."""

    omega: float
    inner: FunctionSpec

    def __post_init__(self):
        omega = float(self.omega)
        _check_finite("Translate.omega", omega)
        omega %= 1.0
        # a tiny negative omega rounds up to 1.0, which is 0 on the circle
        object.__setattr__(self, "omega", 0.0 if omega == 1.0 else omega)

    def _eval(self, r):
        return self.inner._eval(_mod1(r - self.omega))

    def derivative(self):
        return Translate(self.omega, self.inner.derivative())

    def nonsmooth_points(self):
        return tuple(sorted((b + self.omega) % 1.0 for b in self.inner.nonsmooth_points()))

    def to_dict(self):
        return {"kind": "translate", "omega": self.omega, "inner": self.inner.to_dict()}


@dataclass(frozen=True)
class Negate(FunctionSpec):
    inner: FunctionSpec

    def _eval(self, r):
        return -self.inner._eval(r)

    def derivative(self):
        return Negate(self.inner.derivative())

    def nonsmooth_points(self):
        return self.inner.nonsmooth_points()

    def to_dict(self):
        return {"kind": "negate", "inner": self.inner.to_dict()}


@dataclass(frozen=True)
class AntisymmetricExtension(FunctionSpec):
    """Extend a half-profile h on [0, 1/2] to T by f(x + 1/2) = 2v - f(x).

    The resulting f satisfies f(x) + f(x + 1/2) = 2v identically.  Junction
    continuity (h(0) + h(1/2) = 2v) is enforced at construction; interior
    regularity is whatever the profile provides.
    """

    half: FunctionSpec
    v: float = 0.0

    def __post_init__(self):
        _check_finite("AntisymmetricExtension.v", self.v)
        h0 = self.half(0.0)
        h_half = self.half(0.5)
        scale = max(1.0, abs(h0), abs(h_half), abs(self.v))
        if abs(h0 + h_half - 2.0 * self.v) > _JOIN_TOL * scale:
            raise ValueError(
                "antisymmetric extension is discontinuous: h(0) + h(1/2) != 2v "
                f"({h0} + {h_half} != {2 * self.v})"
            )

    def _eval(self, r):
        shape = np.shape(r)
        flat = np.atleast_1d(np.asarray(r, dtype=float))
        lo = self.half._eval(flat)
        hi = 2.0 * self.v - self.half._eval(_mod1(flat - 0.5))
        return np.where(flat < 0.5, lo, hi).reshape(shape)

    def derivative(self):
        # f' = h' on [0,1/2), -h'(x-1/2) on [1/2,1): the same extension with v=0.
        # The constructor check on the result enforces h'(0) = -h'(1/2),
        # i.e. differentiability of f at the junctions.
        return AntisymmetricExtension(self.half.derivative(), 0.0)

    def nonsmooth_points(self):
        pts = {0.0, 0.5}
        for b in self.half.nonsmooth_points():
            if b < 0.5:
                pts.add(b)
                pts.add(b + 0.5)
        return tuple(sorted(pts))

    def to_dict(self):
        return {"kind": "antisym_ext", "v": self.v, "half": self.half.to_dict()}


_KINDS = ("cos", "piecewise_poly", "sum", "scale", "translate", "negate", "antisym_ext")


def spec_from_dict(d: dict) -> FunctionSpec:
    """Parse the tagged-object JSON grammar; errors name the offending node."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError(f"function spec node must be an object with a 'kind' tag, got {d!r}")
    kind = d["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown function spec node kind {kind!r}")
    try:
        if kind == "cos":
            freq = d["freq"]
            if isinstance(freq, float) and freq.is_integer():
                freq = int(freq)  # JSON has one number type: 2.0 is 2
            return Cosine(freq, float(d.get("phase", 0.0)))
        if kind == "piecewise_poly":
            return PiecewisePoly(
                tuple(d["breakpoints"]),
                tuple(tuple(p) for p in d["coefficients"]),
                wrap=d.get("wrap", True),
            )
        if kind == "sum":
            return Sum(tuple(spec_from_dict(t) for t in d["terms"]))
        if kind == "scale":
            return Scale(float(d["factor"]), spec_from_dict(d["inner"]))
        if kind == "translate":
            return Translate(float(d["omega"]), spec_from_dict(d["inner"]))
        if kind == "negate":
            return Negate(spec_from_dict(d["inner"]))
        return AntisymmetricExtension(spec_from_dict(d["half"]), float(d.get("v", 0.0)))
    except KeyError as exc:
        raise ValueError(f"node kind {kind!r} is missing required field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValueError(f"node kind {kind!r} has a field of the wrong type: {exc}") from exc


def spec_from_json(text: str) -> FunctionSpec:
    return spec_from_dict(json.loads(text))


@dataclass(frozen=True)
class GridFunction:
    """Uniform sampling of a period-1 function; values[i] = f(i/N).

    Evaluation between nodes uses periodic linear interpolation; evaluation
    at (float-noisy) node positions snaps to the stored value.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        if v.ndim != 1 or v.size < 2:
            raise ValueError("GridFunction needs a 1-d array of at least 2 values")
        if not np.all(np.isfinite(v)):
            bad = int(np.argmin(np.isfinite(v)))
            raise ValueError(f"GridFunction values must be finite: node {bad} is {v[bad]}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        t = _mod1(arr) * self.n
        j = np.rint(t)
        exact = np.abs(t - j) < _NODE_SNAP
        i0 = np.floor(t).astype(int)
        frac = t - i0
        v0 = self.values[i0 % self.n]
        v1 = self.values[(i0 + 1) % self.n]
        interp = (1.0 - frac) * v0 + frac * v1
        out = np.where(exact, self.values[j.astype(int) % self.n], interp)
        if arr.ndim == 0:
            return float(out)
        return out

    def lipschitz_estimate(self) -> float:
        """Empirical Lipschitz constant max |f(x_{i+1}) - f(x_i)| * N."""
        d = np.diff(np.concatenate([self.values, self.values[:1]]))
        return float(np.max(np.abs(d)) * self.n)

    def value_range(self) -> float:
        return float(np.max(self.values) - np.min(self.values))

    def to_csv(self) -> str:
        n = self.n
        return "x,value\n" + "".join(
            "%.12g,%.12g\n" % (i / n, v) for i, v in enumerate(self.values)
        )


def _check_grid_size(n: int) -> None:
    if n < 4:
        raise ValueError(f"grid size must be at least 4, got {n}")


def sample(f, n: int) -> GridFunction:
    """Sample a spec (or any vectorized callable) at n uniform nodes; exact at every node."""
    _check_grid_size(n)
    return GridFunction(f(np.arange(n) / n))


def _refine_into(ext: np.ndarray, factor: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Periodic linear interpolation of node values onto the grid that is
    ``factor`` times finer, written into ``out`` (length factor * n); old
    nodes land on every factor-th entry exactly.

    ``ext`` holds the n node values v followed by one spare entry, which
    the fill sets to v[0], so the right neighbours v[i+1] are the view
    ``ext[1:]``.  Fine entry i*factor + k is v[i]*(1 - k/factor) +
    v[i+1]*(k/factor): two products and one sum, the weights rounded once
    each.  At k = 0 the product v*1.0 is v itself and is skipped; the sum
    with v[i+1]*0.0 stays, since it turns a -0.0 node into +0.0.
    ``scratch`` is a (2, n) work array, so the fill allocates nothing.
    """
    ext[-1] = ext[0]
    v, right = ext[:-1], ext[1:]
    lo, hi = scratch
    np.multiply(right, 0.0, out=hi)
    np.add(v, hi, out=out[::factor])
    for k in range(1, factor):
        w = k / factor
        np.multiply(v, 1.0 - w, out=lo)
        np.multiply(right, w, out=hi)
        np.add(lo, hi, out=out[k::factor])
    return out


def refine_linear(g: GridFunction, factor: int) -> GridFunction:
    """Upsample by an integer factor; old nodes are copied exactly."""
    if factor < 1:
        raise ValueError("refinement factor must be >= 1")
    out = np.empty(factor * g.n)
    return GridFunction(_refine_into(np.append(g.values, 0.0), factor, out, np.empty((2, g.n))))


def lipschitz_estimate(f, n: int = 4096) -> float:
    """Empirical Lipschitz estimate of a spec or callable sampled at n nodes."""
    return sample(f, n).lipschitz_estimate()
