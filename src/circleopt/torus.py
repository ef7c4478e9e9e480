"""Real-valued functions on the circle T = R/Z.

Two representations are used throughout:

* ``FunctionSpec`` -- an immutable symbolic expression tree with exact
  evaluation and exact derivatives.  Node kinds: cosines, piecewise
  polynomials, sums, scalings, translations and antisymmetric extensions
  of a half-profile; ``Negate(f)`` is ``Scale(-1.0, f)``.
* ``GridFunction`` -- a uniform N-point sampling ``values[i] = f(i/N)``
  with periodic linear interpolation between nodes.

Everything is immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi

# Snap tolerance (in units of grid spacing) used to decide that an
# evaluation point *is* a node, so node evaluation returns stored values
# exactly even when x = i/N was produced by inexact float arithmetic.
_NODE_SNAP = 1e-9

_JOIN_TOL = 1e-9  # relative continuity tolerance at piecewise junctions

_CSV_BLOCK = 4096  # rows of GridFunction.to_csv formatted per pass of array arithmetic
_CSV_SEPARATORS = np.array([ord(",") << 56, ord("\n") << 56], np.uint64)  # byte 23 of the x and value fields


def _mod1(x: np.ndarray) -> np.ndarray:
    """x mod 1 in [0, 1] for a float array, bitwise numpy's ``x % 1.0``.

    Both round the exact value x - floor(x) once (numpy's remainder adds 1
    to the exact fmod of a negative x), so they agree to the bit, -0.0 -> +0.0
    and a tiny negative x -> 1.0 included, at a fraction of the cost.  A 0-d
    array is not accepted: its floor is a scalar, which cannot be written to.
    """
    r = np.floor(x)
    return np.subtract(x, r, out=r)


def _check_finite(field: str, *values) -> None:
    """Reject a spec parameter that is NaN or infinite, naming its field."""
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{field} must be finite, got {v!r}")


class FunctionSpec:
    """Base class for symbolic period-1 observables.

    Subclasses implement ``_eval`` on float arrays of at least one
    dimension, already reduced to [0, 1], returning a float array of the
    same shape, plus exact differentiation and serialization.  A scalar
    argument is evaluated as a 1-element array and returned as a float.
    """

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = self._eval(_mod1(np.atleast_1d(arr)))
        return float(out[0]) if arr.ndim == 0 else out

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
        idx = np.searchsorted(np.asarray(self.breakpoints), r, side="right") - 1
        out = np.empty_like(r)
        for i, piece in enumerate(self.coefficients):
            mask = idx == i
            if mask.any():
                out[mask] = np.polynomial.polynomial.polyval(r[mask], np.asarray(piece))
        return out

    def piece_value(self, i: int, x: float) -> float:
        """Evaluate piece i's polynomial at x regardless of piece bounds."""
        return float(np.polynomial.polynomial.polyval(x, np.asarray(self.coefficients[i])))

    def _scale(self) -> float:
        return max(1.0, max(abs(c) for piece in self.coefficients for c in piece))

    def derivative(self):
        for b, d in jumps(self).items():
            if d:  # the wrap's 0.0 prints as 0
                raise ValueError(f"derivative of discontinuous piecewise polynomial (jump at x={b or 0})")
        dcoefs = tuple(tuple(j * c for j, c in enumerate(p) if j >= 1) or (0.0,) for p in self.coefficients)
        return PiecewisePoly(self.breakpoints, dcoefs, wrap=self.wrap)

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


def Negate(inner: FunctionSpec) -> Scale:
    """-inner, as Scale(-1.0, inner): -1.0 * x is -x bit for bit, both zeros included."""
    return Scale(-1.0, inner)


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
        upper = r >= 0.5  # folded exactly onto r - 1/2: h is read once, and only these reflect
        out = self.half._eval(np.where(upper, r - 0.5, r))
        return np.subtract(2.0 * self.v, out, out=out, where=upper)

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


# "negate" is read as Scale(-1.0, inner); no node writes it
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


# Powers of ten 10**0..10**22, each an exact float.
_POW10 = np.array([float(10**k) for k in range(23)])


@functools.lru_cache(maxsize=None)
def _g12_tables():
    """The lookup tables of ``_format_g12``, built by array arithmetic on
    its first call, so that a process that writes no g.csv never builds them.

    * ``digits[c]``: the three ASCII digits of c = 0..999 in bytes 0..2 of
      a little-endian word.
    * ``significant[j, c]``: 3j + 3 less the trailing zeros of c (0 for
      c = 0).  A 12-digit mantissa read as four 3-digit chunks keeps, once
      its trailing zeros are stripped, the max of these over its chunks.
    * ``low``, ``high`` (two words) and ``row`` (three words), by
      (e + 11) * 13 + sig for the decimal exponent e = -11..12 and the
      sig = 0..12 digits kept (0 for a zero, which prints one digit "0").

    A field is 24 bytes: the sign (byte 0), the "0.0.." before a
    fixed-point value below 1 (bytes 1..5), the body (bytes 6..18) and the
    exponent "e-05" (bytes 19..22); byte 23 is left for a separator, and
    every byte not used is NUL.  ``%g`` prints fixed point for -4 <= e < 12,
    with the point after digit e, and otherwise exponent form with the
    point after digit 0; it strips trailing zeros, but not those of an
    integer part, and the point with them.  The body is the 12 digits
    masked by ``low`` (those shown up to the point), or-ed with the digits
    moved up one byte and masked by ``high`` (those shown after it);
    ``row`` holds the point in the byte between, with the prefix and the
    exponent.
    """
    c = np.arange(1000)
    word = np.dtype("<u8")
    digits = ((c // 100 + 48) | (c // 10 % 10 + 48) << 8 | (c % 10 + 48) << 16).astype(word)
    places = 3 * np.arange(1, 5)[:, None] - (c % 10 == 0) - (c % 100 == 0)
    significant = np.where(c == 0, 0, places).astype(np.uint8)

    e = np.repeat(np.arange(-11, 13), 13)[:, None]
    sig = np.tile(np.arange(13), 24)[:, None]
    fixed = (-4 <= e) & (e < 12)
    point = np.where(fixed, e, 0)  # the point follows this digit; < 0: it is in the prefix
    keep = np.maximum(sig, point + 1)
    dot = np.where((point >= 0) & (keep > point + 1), point + 1, 99)  # body byte of the point
    j = np.arange(16)
    low = np.where(j < np.minimum(dot, keep), 255, 0).astype(np.uint8).view(word)
    high = np.where((dot < j) & (j <= keep), 255, 0).astype(np.uint8).view(word)

    row = np.zeros((e.size, 24), np.uint8)
    row[:, 6:22] = np.where(j == dot, ord("."), 0)
    prefix = np.frombuffer(b"0.000", np.uint8)
    row[:, 1:6] = np.where(fixed & (e < 0) & (np.arange(1, 6) <= 1 - e), prefix, 0)
    mag = np.abs(e)
    suffix = np.concatenate([np.full_like(e, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                             48 + mag // 10, 48 + mag % 10], axis=1)
    row[:, 19:23] = np.where(fixed, 0, suffix)
    tables = digits, significant, low, high, row.view(word)
    for table in tables:
        table.setflags(write=False)  # shared by every call
    return tables


def _format_g12(v: np.ndarray) -> np.ndarray:
    """``"%.12g" % x`` for each x of a 1-d float array, as an (m, 3) array
    of little-endian words whose 24 bytes a row are the text padded with
    NUL (see ``_g12_tables`` for the layout).

    For 1e-11 <= |x| < 1e12, by array arithmetic: e = floor(log10 |x|)
    corrected once, so that t = |x| * 10**(11 - e) lies in [1e11, 1e12]
    (log10 is off by at most one, and a t that rounds across 1e11 or 1e12
    gives the same 12 digits on either side).  10**(11 - e) is exact, so t
    is the true product rounded once, and the mantissa is t rounded to an
    integer, half to even.  A float t half-way between two integers may
    stand for a true product just above or below it: Dekker's error-free
    product gives that rounding error exactly, and only an exact tie goes
    to even.  A mantissa of 1e12 carries into the next decade.  Zeros take
    the same path; the rest (subnormals, huge values) take Python's own
    ``%.12g``.
    """
    digits3, significant, low_masks, high_masks, rows = _g12_tables()
    a = np.abs(v)
    fast = (a >= 1e-11) & (a < 1e12)
    zero = a == 0.0
    a[~fast] = 1.0
    e = np.floor(np.log10(a))
    np.clip(e, -11, 11, out=e)  # log10 near 1e-11 or 1e12 may round past them
    e = e.astype(np.intp)
    t = a * _POW10[11 - e]
    e += t >= 1e12
    e -= t < 1e11
    p = _POW10[11 - e]
    np.multiply(a, p, out=t)
    mant = np.rint(t)
    ties = np.flatnonzero(np.abs(mant - t) == 0.5)
    # at the ties only: Veltkamp's split of a and p into 26-bit halves
    # gives err = a * p - t exactly
    a, p, t = a[ties], p[ties], t[ties]
    a_hi = a * 134217729.0
    a_hi -= a_hi - a
    p_hi = p * 134217729.0
    p_hi -= p_hi - p
    a_lo, p_lo = a - a_hi, p - p_hi
    err = ((a_hi * p_hi - t) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    mant[ties] = np.where(err == 0.0, mant[ties], t + np.sign(err) * 0.5)
    carry = mant == 1e12
    mant[carry] = 1e11
    e += carry
    mant[zero] = 0.0
    e[zero] = 0

    # four 3-digit chunks by exact float floors (every quotient is below 2**53)
    hi = np.floor(mant / 1e6)
    lo = mant - hi * 1e6
    chunks = np.empty((4, v.size), np.intp)
    chunks[0] = np.floor(hi / 1e3)
    chunks[1] = hi - chunks[0] * 1e3
    chunks[2] = np.floor(lo / 1e3)
    chunks[3] = lo - chunks[2] * 1e3
    sig = significant[0][chunks[0]]
    for j in range(1, 4):
        np.maximum(sig, significant[j][chunks[j]], out=sig)
    d0, d1, d2, d3 = (digits3[c] for c in chunks)
    digits0 = d0 | d1 << 24 | d2 << 48  # digit bytes 0..7
    digits1 = d2 >> 16 | d3 << 8  # digit bytes 8..11

    layout = (e + 11) * 13 + sig
    low = np.take(low_masks, layout, axis=0)
    high = np.take(high_masks, layout, axis=0)
    body0 = (digits0 & low[:, 0]) | (digits0 << 8 & high[:, 0])
    body1 = (digits1 & low[:, 1]) | ((digits1 << 8 | digits0 >> 56) & high[:, 1])
    out = np.take(rows, layout, axis=0)
    out[:, 0] |= (v.view(np.uint64) >> 63) * ord("-") | body0 << 48
    out[:, 1] |= body0 >> 16 | body1 << 48
    out[:, 2] |= body1 >> 16
    text = out.view(np.uint8).reshape(v.size, 24)
    for i in np.flatnonzero(~(fast | zero)):
        text[i, :23] = np.frombuffer(("%.12g" % v[i]).encode().ljust(23, b"\0"), np.uint8)
    return out


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
        t = _mod1(np.atleast_1d(arr)) * self.n
        j = np.rint(t)
        exact = np.abs(t - j) < _NODE_SNAP
        i0 = np.floor(t).astype(int)
        frac = t - i0
        v0 = self.values[i0 % self.n]
        v1 = self.values[(i0 + 1) % self.n]
        interp = (1.0 - frac) * v0 + frac * v1
        out = np.where(exact, self.values[j.astype(int) % self.n], interp)
        return float(out[0]) if arr.ndim == 0 else out

    def lipschitz_estimate(self) -> float:
        """Empirical Lipschitz constant max |f(x_{i+1}) - f(x_i)| * N."""
        d = np.diff(np.concatenate([self.values, self.values[:1]]))
        return float(np.max(np.abs(d)) * self.n)

    def value_range(self) -> float:
        return float(np.max(self.values) - np.min(self.values))

    def to_csv(self) -> str:
        """Rows ``x,value`` with x = i/N, both ``%.12g``.

        Formatted ``_CSV_BLOCK`` rows at a time by ``_format_g12`` from an
        interleaved (x, value) array, with ',' and '\\n' in each field's last
        byte and the NUL padding dropped.  np.arange(lo, hi) / n is bitwise
        i / n, so the text is byte for byte that of one
        ``"%.12g,%.12g\\n" % (i / n, v)`` per row.
        """
        n = self.n
        parts = ["x,value\n"]
        for lo in range(0, n, _CSV_BLOCK):
            hi = min(lo + _CSV_BLOCK, n)
            pairs = np.empty((hi - lo, 2))
            pairs[:, 0] = np.arange(lo, hi) / n
            pairs[:, 1] = self.values[lo:hi]
            words = _format_g12(pairs.ravel()).reshape(hi - lo, 2, 3)
            words[:, :, 2] |= _CSV_SEPARATORS
            parts.append(words.tobytes().translate(None, b"\0").decode("ascii"))
        return "".join(parts)


def _check_grid_size(n: int) -> None:
    if n < 4:
        raise ValueError(f"grid size must be at least 4, got {n}")


# power-of-two n -> (the inner spec of the last translate sampled on n
# nodes, its node values)
_LAST_INNER: dict[int, tuple[FunctionSpec, np.ndarray]] = {}


def _inner_node_values(inner: FunctionSpec, n: int) -> np.ndarray:
    """inner at the n nodes i/n, evaluated once for consecutive calls with
    the same spec object.  Remembered by identity, not equality:
    Scale(0.0, f) == Scale(-0.0, f), yet their samples differ in the sign
    of zero."""
    last = _LAST_INNER.get(n)
    if last is not None and last[0] is inner:
        return last[1]
    values = inner(np.arange(n) / n)
    values.setflags(write=False)
    _LAST_INNER[n] = (inner, values)
    return values


def sample(f, n: int) -> GridFunction:
    """Sample a spec (or any vectorized callable) at n uniform nodes; exact at every node.

    For Translate(omega, h) with n a power of two and omega*n an integer k,
    the nodes i/n - omega are exactly the nodes (i - k)/n, so the samples
    are h's node values rolled by k, bit for bit the direct evaluation.
    """
    _check_grid_size(n)
    if isinstance(f, Translate) and n & (n - 1) == 0 and (f.omega * n).is_integer():
        return GridFunction(np.roll(_inner_node_values(f.inner, n), int(f.omega * n)))
    return GridFunction(f(np.arange(n) / n))


@functools.lru_cache(maxsize=None)
def _weight_plan(factor: int) -> tuple[tuple[float, ...], tuple[tuple[int, int], ...]]:
    """The distinct interpolation weights for ``factor`` and, for each
    k = 1..factor-1, the indices of the weights 1 - k/factor (left node)
    and k/factor (right node) among them.

    A weight enters once however often it recurs: 1 - k/factor is bitwise
    (factor - k)/factor for factor 2 and 4 but for neither k of factor 3,
    so factor 2 needs one product array and factor 3 four.
    """
    weights: list[float] = []

    def index(c: float) -> int:
        if c not in weights:
            weights.append(c)
        return weights.index(c)

    pairs = tuple((index(1.0 - k / factor), index(k / factor)) for k in range(1, factor))
    return tuple(weights), pairs


def _refine_into(ext: np.ndarray, rows: np.ndarray, products: np.ndarray, add=None) -> np.ndarray:
    """Periodic linear interpolation of n node values onto the grid that is
    ``factor`` times finer, written residue by residue: ``rows`` has shape
    (factor, n) and rows[k][i] is fine entry i*factor + k.

    ``ext`` holds the n node values v followed by one spare entry, which
    the fill sets to v[0], so the right neighbours v[i+1] are the view
    ``ext[1:]``.  Row 0 is v itself; row k >= 1 is v*(1 - k/factor) +
    v[i+1]*(k/factor), the weights rounded once each.  ``products`` is a
    (len(weights), n + 1) buffer that gets ext times each distinct weight
    of ``_weight_plan``, so a product shared by two rows (for factor 2,
    v*0.5 is the left term of entry i and the right term of entry i - 1) is
    computed once.  With ``add`` (shape (factor, n)), every row k gets
    add[k] + (its interpolant): row 0 becomes add[0] + v.  The fill
    allocates nothing.
    """
    weights, pairs = _weight_plan(rows.shape[0])
    ext[-1] = ext[0]
    v = ext[:-1]
    for c, prod in zip(weights, products):
        np.multiply(ext, c, out=prod)
    if add is None:
        rows[0] = v
    else:
        np.add(add[0], v, out=rows[0])
    for k, (lo, hi) in enumerate(pairs, 1):
        np.add(products[lo, :-1], products[hi, 1:], out=rows[k])
        if add is not None:
            np.add(rows[k], add[k], out=rows[k])
    return rows


def refine_linear(g: GridFunction, factor: int) -> GridFunction:
    """Upsample by an integer factor; old nodes are copied bit for bit."""
    if factor < 1:
        raise ValueError("refinement factor must be >= 1")
    out = np.empty(factor * g.n)
    products = np.empty((len(_weight_plan(factor)[0]), g.n + 1))
    _refine_into(np.append(g.values, 0.0), out.reshape(g.n, factor).T, products)
    return GridFunction(out)


def lipschitz_estimate(f: FunctionSpec) -> float:
    """An upper bound on |f'| between the non-smooth points of a spec, read off its tree: a piece p gives
    sum_k k |a_k| r**(k - 1), p(m + u) = sum_k a_k u**k about its midpoint m, r its half-width."""
    end = 1.0
    if isinstance(f, AntisymmetricExtension) and isinstance(f.half, PiecewisePoly):
        f, end = f.half, 0.5
    if isinstance(f, Cosine):
        return TWO_PI * f.freq
    if isinstance(f, Sum):
        return sum(lipschitz_estimate(t) for t in f.terms)
    if isinstance(f, Scale):
        return abs(f.factor) * lipschitz_estimate(f.inner)
    if isinstance(f, Translate):
        return lipschitz_estimate(f.inner)
    if isinstance(f, AntisymmetricExtension):
        return lipschitz_estimate(f.half)
    if isinstance(f, PiecewisePoly):  # exact for pieces of degree <= 2; an extension's half ends at 1/2
        bound, his = 0.0, [min(b, end) for b in f.breakpoints[1:]] + [end]
        for lo, hi, p in zip(f.breakpoints, his, f.coefficients):
            m, r = (lo + hi) / 2.0, (hi - lo) / 2.0
            a = [sum(math.comb(i, k) * c * m ** (i - k) for i, c in enumerate(p[k:], k)) for k in range(len(p))]
            bound = max(bound, sum(k * abs(a[k]) * r ** (k - 1) for k in range(1, len(a))) if lo < hi else 0.0)
        return bound
    raise TypeError(f"no slope bound for a {type(f).__name__}")


def jumps(f: FunctionSpec) -> dict[float, float]:
    """f(x+) - f(x-) at each non-smooth point x of a spec, read off its tree.  A piecewise polynomial
    reads 0.0 where its pieces join within the join tolerance; an extension's junctions join by construction."""
    if isinstance(f, Cosine):
        return {}
    if isinstance(f, PiecewisePoly):  # (x, right piece, left piece, where it is read): interior, then the wrap
        bps, tol = f.breakpoints, _JOIN_TOL * f._scale()
        sides = [(b, j, j - 1, b) for j, b in enumerate(bps[1:], 1)] + [(0.0, 0, len(bps) - 1, 1.0)] * f.wrap
        steps = {b: f.piece_value(j, b) - f.piece_value(i, a) for b, j, i, a in sides}
        return {b: d if abs(d) > tol else 0.0 for b, d in steps.items()}
    if isinstance(f, Sum):  # added at equal points, as nonsmooth_points merges them
        steps = [step for t in f.terms for step in jumps(t).items()]
        return {b: sum(d for c, d in steps if c == b) for b, _ in steps}
    if isinstance(f, Scale):
        return {b: f.factor * d for b, d in jumps(f.inner).items()}
    if isinstance(f, Translate):
        return {(b + f.omega) % 1.0: d for b, d in jumps(f.inner).items()}
    if isinstance(f, AntisymmetricExtension):
        inside = {b: d for b, d in jumps(f.half).items() if 0.0 < b < 0.5}
        return {0.0: 0.0, 0.5: 0.0, **inside, **{b + 0.5: -d for b, d in inside.items()}}
    raise TypeError(f"no jumps for a {type(f).__name__}")


_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)


def _pad(lo, hi):
    """Cells reduced onto [0, 1] or [0, 1/2], widened by 4 ulps of 1 (more where |x| > 1): the
    reduction, and each x mod 1 or x - omega on the way to a point read, rounds by less than that."""
    return lo - 4.0 * _EPS * (1.0 + np.abs(lo)), hi + 4.0 * _EPS * (1.0 + np.abs(hi))


def _outward(low, high):
    """A once-rounded interval widened past its rounding: |x| eps is at least the spacing of floats
    at x, and the smallest normal float covers an underflow."""
    return low - (np.abs(low) * _EPS + _TINY), high + (np.abs(high) * _EPS + _TINY)


def _poly_range(c, a, z):
    """p = sum_i c_i x**i on each [a, z] about its midpoint m: a_0 +- sum_k |a_k| r**k for
    p(m + u) = sum_k a_k u**k, widened by 4 (deg + 2) eps * sum_i |c_i| (|m| + r)**i, which bounds
    the rounding of m, r, every a_k and the sum."""
    poly = np.polynomial.polynomial
    m = (a + z) / 2.0
    r = np.maximum(z - m, m - a)
    rad = sum(np.abs(poly.polyval(m, poly.polyder(c, k))) / math.factorial(k) * r**k for k in range(1, len(c)))
    rad = rad + 4.0 * (len(c) + 2) * _EPS * poly.polyval(np.abs(m) + r, np.abs(c))
    mid = poly.polyval(m, c)
    return mid - rad, mid + rad


def enclose(f: FunctionSpec, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """(low, high) with low <= f <= high on each cell [lo, hi] of two 1-d arrays, read off the tree
    and rounded outward; a cell holds both sides of each non-smooth point in it.  A cosine reads the
    exact range of cos on its phase interval; a piecewise polynomial reads each piece that meets a
    cell by ``_poly_range``; an extension folds its cells onto [0, 1/2] and reflects the odd halves."""
    lo, hi = np.atleast_1d(np.asarray(lo, dtype=float)), np.atleast_1d(np.asarray(hi, dtype=float))
    if isinstance(f, Cosine):  # phases in turns, widened past the rounding of k x + phase here and at x mod 1
        w, p = f.freq, f.phase / TWO_PI
        size = w * (1.0 + max(float(np.max(np.abs(lo), initial=0.0)), float(np.max(np.abs(hi), initial=0.0))))
        slack = 8.0 * _EPS * (size + abs(p) + 1.0)
        a, b = w * lo + p - slack, w * hi + p + slack
        top, bottom = np.ceil(a) <= b, np.ceil(a - 0.5) + 0.5 <= b  # a whole turn, an odd half turn
        ca, cb = np.cos(TWO_PI * a), np.cos(TWO_PI * b)  # within a few ulps of 1, numpy's cos error
        return (np.where(bottom, -1.0, np.maximum(np.minimum(ca, cb) - 4.0 * _EPS, -1.0)),
                np.where(top, 1.0, np.minimum(np.maximum(ca, cb) + 4.0 * _EPS, 1.0)))
    if isinstance(f, PiecewisePoly):  # onto [0, 1]: cell [lo, min(hi, 1)] and the wrap's [0, hi - 1]
        turns = np.floor(lo)
        lo, hi = _pad(lo - turns, hi - turns)
        lo = np.maximum(lo, 0.0)  # the cell's points lie in its first turn or later
        low, high = np.full(lo.shape, np.inf), np.full(lo.shape, -np.inf)
        for b, e, c in zip(f.breakpoints, f.breakpoints[1:] + (1.0,), f.coefficients):
            for a, z in ((np.maximum(lo, b), np.minimum(hi, e)), (np.full_like(lo, b), np.minimum(hi - 1.0, e))):
                meet = a <= z
                if meet.any():
                    pl, ph = _poly_range(c, a[meet], z[meet])
                    low[meet], high[meet] = np.minimum(low[meet], pl), np.maximum(high[meet], ph)
        return low, high
    if isinstance(f, Sum):
        low, high = enclose(f.terms[0], lo, hi)
        for t in f.terms[1:]:
            tl, th = enclose(t, lo, hi)
            low, high = _outward(low + tl, high + th)
        return low, high
    if isinstance(f, Scale):
        low, high = enclose(f.inner, lo, hi)
        if f.factor < 0.0:
            low, high = high, low
        return _outward(f.factor * low, f.factor * high)
    if isinstance(f, Translate):
        return enclose(f.inner, lo - f.omega, hi - f.omega)
    if isinstance(f, AntisymmetricExtension):  # half-period k of a cell: h there if k is even, 2v - h if odd
        k = np.floor(2.0 * lo)
        lo, hi = _pad((2.0 * lo - k) / 2.0, (2.0 * hi - k) / 2.0)
        lo = np.maximum(lo, 0.0)  # the cell's points lie in half-period k or later
        wide, on = hi - lo >= 0.5, hi > 0.5  # the cell holds a whole half-period, or reaches the next
        low, high = enclose(f.half, np.concatenate([np.where(wide, 0.0, lo), np.where(on, 0.0, lo)]),
                            np.concatenate([np.minimum(hi, 0.5), np.where(wide, 0.5, np.minimum(hi - 0.5 * on, 0.5))]))
        odd = np.concatenate([k % 2 == 1, (k + on) % 2 == 1])
        flip_low, flip_high = _outward(2.0 * f.v - high, 2.0 * f.v - low)
        low, high = np.where(odd, flip_low, low), np.where(odd, flip_high, high)
        n = len(lo)
        return np.minimum(low[:n], low[n:]), np.maximum(high[:n], high[n:])
    raise TypeError(f"no enclosure for a {type(f).__name__}")


def _mirrors(h: PiecewisePoly, v: float) -> bool:
    """h(x) + h(1/2 - x) = 2v on [0, 1/2] in rationals: its ends mirror, each pair sums to 2v at deg + 1 points."""
    half, polyval = Fraction(1, 2), np.polynomial.polynomial.polyval
    ends = [Fraction(b) for b in h.breakpoints if b < 0.5] + [half]
    pieces = [list(map(Fraction, p)) for p in h.coefficients[: len(ends) - 1]]
    return [half - e for e in reversed(ends)] == ends and all(
        polyval(x, p) + polyval(half - x, q) == 2 * Fraction(v)
        for p, q in zip(pieces, reversed(pieces)) for x in range(max(len(p), len(q))))


def symmetries(f: FunctionSpec) -> tuple[bool, bool]:
    """(antisymmetric, even): True only where the tree shows f(x) + f(x + 1/2) constant, or f(-x) = f(x)."""
    if isinstance(f, Cosine):
        return f.freq % 2 == 1, f.phase == 0.0
    if isinstance(f, PiecewisePoly):  # a constant only
        return (len({p[0] for p in f.coefficients}) == 1 and not any(c for p in f.coefficients for c in p[1:]),) * 2
    if isinstance(f, Sum):
        return tuple(all(s) for s in zip(*(symmetries(t) for t in f.terms)))
    if isinstance(f, (Scale, Translate)):  # a translate is even only where it does not move
        anti, even = symmetries(f.inner)
        return anti, even and (isinstance(f, Scale) or f.omega == 0.0)
    if isinstance(f, AntisymmetricExtension):
        return True, isinstance(f.half, PiecewisePoly) and _mirrors(f.half, f.v)
    raise TypeError(f"no symmetries for a {type(f).__name__}")
