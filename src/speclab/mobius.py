"""SL2 / PSL2 linear algebra and the induced action on the circle boundary.

Matrices act on the upper half plane by fractional-linear maps; boundary
work happens in the disk model, reached through the fixed Cayley transform
z -> (z - i)/(z + i).  Entries may be exact (int / Fraction) or 64-bit
floats; exact matrices are compared exactly, float matrices against EPS.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from functools import cached_property
from numbers import Rational
from typing import NamedTuple

EPS = 1e-9

INF = math.inf

TWO_PI = 2.0 * math.pi


class MobiusError(Exception):
    pass


class NotHyperbolic(MobiusError):
    pass


class EllipticElement(MobiusError):
    pass


def is_exact(x) -> bool:
    # the float test first: it spares floats the slower ABC check
    return type(x) is not float and isinstance(x, Rational)


class IsometryClass(Enum):
    IDENTITY = "identity"
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"


class Mat2(NamedTuple("Mat2", [("a", object), ("b", object), ("c", object), ("d", object)])):
    """Unit-determinant 2x2 matrix, row-major (a b / c d).  No __slots__: the
    cached properties below keep their values in the instance __dict__."""

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __add__(self, other):
        # tuple + and k * would concatenate or repeat the entries
        raise TypeError("a Mat2 has no sum or scalar multiple; the matrix product is m1 * m2")

    __radd__ = __rmul__ = __add__

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def tr(self):
        return self.a + self.d

    def inverse(self) -> "Mat2":
        # valid for det = 1
        return Mat2(self.d, -self.b, -self.c, self.a)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def exact(self) -> bool:
        return all(is_exact(x) for x in self.entries())

    def to_float(self) -> "Mat2":
        return Mat2(float(self.a), float(self.b), float(self.c), float(self.d))

    def max_diff(self, other: "Mat2") -> float:
        return max(abs(float(x - y)) for x, y in zip(self.entries(), other.entries()))

    def dist_to_pm_identity(self) -> float:
        i = identity()
        return min(self.max_diff(i), (-self).max_diff(i))

    def psl_normalized(self) -> "Mat2":
        """PSL2 representative with tr >= 0 (tr within `trace_gap` of 0 kept)."""
        return -self if self.tr() < -trace_gap(self.exact()) else self

    @cached_property
    def disk(self) -> tuple[complex, complex, complex, complex]:
        """`disk_matrix(self)`, computed on first use and kept, so one
        element acting on many boundary points is conjugated once."""
        return disk_matrix(self)

    @cached_property
    def fixed(self) -> tuple[BoundaryPoint, BoundaryPoint]:
        """`fixed_points(self)`, computed on first use and kept, so an element
        drawn many times is classified and solved once.  NotHyperbolic is
        raised again on every use."""
        return fixed_points(self)


def identity() -> Mat2:
    return Mat2(1, 0, 0, 1)


def trace_gap(exact: bool):
    """Half-width of the |tr| = 2 window that `classify`, `spectrum` and
    `pattern` read: 0 for exact entries, EPS for floats."""
    return 0 if exact else EPS


def classify(m: Mat2) -> IsometryClass:
    """Classify by |tr| relative to the window 2 +- `trace_gap`.  Only inside
    the window are the entries read, to tell +-I (identity, every entry
    within the gap) from a parabolic.  A NaN trace is ELLIPTIC."""
    exact = m.exact()
    gap = trace_gap(exact)
    at = abs(m.tr()) if exact else abs(float(m.tr()))
    if at > 2 + gap:
        return IsometryClass.HYPERBOLIC
    if not at >= 2 - gap:
        return IsometryClass.ELLIPTIC
    for s in (1, -1):
        if all(abs(x - y) <= gap for x, y in zip(m.entries(), (s, 0, 0, s))):
            return IsometryClass.IDENTITY
    return IsometryClass.PARABOLIC


def translation_length(m: Mat2) -> float:
    """Geodesic translation length 2*arccosh(|tr|/2); 0 for parabolic/identity."""
    cls = classify(m)
    if cls is IsometryClass.ELLIPTIC:
        raise EllipticElement(f"trace {m.tr()} has no geodesic representative")
    if cls is not IsometryClass.HYPERBOLIC:
        return 0.0
    return 2.0 * math.acosh(abs(float(m.tr())) / 2.0)


# ---------------------------------------------------------------------------
# Boundary points.  Canonical storage is the disk-model angle; the half-plane
# coordinate (extended real) is available through the Cayley transform.
# ---------------------------------------------------------------------------

def _real_to_circle(x) -> complex:
    if x == INF:
        return 1.0 + 0.0j
    x = float(x)
    u = complex(x, -1.0) / complex(x, 1.0)
    return u / abs(u)


def _circle_to_real(u: complex) -> float:
    # inverse Cayley: z = i(1+u)/(1-u); boundary value is real
    den = 1.0 - u
    if abs(den) < 1e-15:
        return INF
    z = 1j * (1.0 + u) / den
    return z.real


class BoundaryPoint(NamedTuple("BoundaryPoint", [("theta", float)])):
    """Point of the circle at infinity, stored as a disk-model angle."""

    @classmethod
    def from_angle(cls, theta: float) -> "BoundaryPoint":
        return cls(theta % TWO_PI)

    @classmethod
    def from_real(cls, x) -> "BoundaryPoint":
        u = _real_to_circle(x)
        return cls(math.atan2(u.imag, u.real) % TWO_PI)

    @cached_property
    def u(self) -> complex:
        """The point as a unit complex number, computed on first use and kept."""
        return cmath.exp(1j * self.theta)

    def to_real(self) -> float:
        return _circle_to_real(self.u)

    def angle_dist(self, other: "BoundaryPoint") -> float:
        return angle_gap(self.theta, other.theta)


# Cayley transform as a det-1 complex matrix: (z - i)/(z + i) scaled by 1/(1+i).
_C_A = 1.0 / (1.0 + 1.0j)
_C_B = -1.0j / (1.0 + 1.0j)
_C_C = 1.0 / (1.0 + 1.0j)
_C_D = 1.0j / (1.0 + 1.0j)

# Its rows, as `disk_row` takes them.
CAYLEY_TOP = (_C_A, _C_B)
CAYLEY_BOTTOM = (_C_C, _C_D)


def disk_row(row, a: float, b: float, c: float, d: float) -> tuple[complex, complex]:
    """One row of the disk matrix of the real matrix (a b / c d): the Cayley
    row `row` (CAYLEY_TOP or CAYLEY_BOTTOM) times M times C^-1."""
    s, t = row
    # row * M
    p = s * a + t * c
    r = s * b + t * d
    # times C^-1 = (d, -b; -c, a) of the Cayley matrix
    return p * _C_D + r * (-_C_C), p * (-_C_B) + r * _C_A


def disk_matrix(m: Mat2) -> tuple[complex, complex, complex, complex]:
    """Conjugate a real matrix into the disk model; det stays 1."""
    a, b, c, d = float(m.a), float(m.b), float(m.c), float(m.d)
    return (*disk_row(CAYLEY_TOP, a, b, c, d), *disk_row(CAYLEY_BOTTOM, a, b, c, d))


# ---------------------------------------------------------------------------
# Float kernels of the boundary action.  A disk matrix q is the tuple of
# `Mat2.disk`; a boundary point is its angle theta in [0, 2 pi) and its unit
# complex u = exp(i theta).  Three one-point wrappers remain: `act` over
# `circle_images`, `boundary_derivative` over `circle_derivative` and
# `BoundaryPoint.angle_dist` over `angle_gap`.  The cocycle suite calls the
# kernels directly on raw angles and unit complexes.
# ---------------------------------------------------------------------------

def circle_images(q, us) -> tuple[list[float], list[complex]]:
    """Images of the unit complexes `us` under the disk matrix q: their
    angles and their unit complexes, in the order of `us`."""
    qa, qb, qc, qd = q
    atan2, exp, two_pi = math.atan2, cmath.exp, TWO_PI
    thetas, units = [], []
    for u in us:
        den = qc * u + qd
        if abs(den) < 1e-300:
            # image of the pole is the point at infinity of the disk map; for
            # det-1 maps preserving the circle this is qa/qc on the circle
            w = qa / qc
        else:
            w = (qa * u + qb) / den
        w = w / abs(w)
        theta = atan2(w.imag, w.real) % two_pi
        thetas.append(theta)
        units.append(exp(1j * theta))
    return thetas, units


def circle_derivative(q, u: complex) -> float:
    """Conformal derivative 1/|q_c u + q_d|^2 of the disk matrix q at u."""
    den = abs(q[2] * u + q[3])
    return 1.0 / (den * den)


def angle_gap(s: float, t: float) -> float:
    """Distance along the circle between the angles s and t."""
    d = abs(s - t) % TWO_PI
    e = TWO_PI - d
    return e if e < d else d


def act(m: Mat2, xi: BoundaryPoint) -> BoundaryPoint:
    """Fractional-linear action on the circle."""
    return BoundaryPoint(circle_images(m.disk, (xi.u,))[0][0])


def boundary_derivative(m: Mat2, xi: BoundaryPoint) -> float:
    """Conformal derivative |m'(xi)| on the circle (disk model)."""
    return circle_derivative(m.disk, xi.u)


def fixed_points(m: Mat2) -> tuple[BoundaryPoint, BoundaryPoint]:
    """(attracting, repelling) fixed points of a hyperbolic element."""
    cls = classify(m)
    if cls is not IsometryClass.HYPERBOLIC:
        raise NotHyperbolic(f"classify = {cls.value}")
    a, b, c, d = float(m.a), float(m.b), float(m.c), float(m.d)
    if c == 0.0:
        # fixed points are infinity and b/(d-a)
        other = b / (d - a)
        if abs(a) > 1.0:
            att, rep = INF, other
        else:
            att, rep = other, INF
        return BoundaryPoint.from_real(att), BoundaryPoint.from_real(rep)
    # roots of c x^2 + (d - a) x - b = 0, written to avoid cancellation
    p = d - a
    disc = p * p + 4.0 * b * c  # equals tr^2 - 4 for det 1
    sq = math.sqrt(disc)
    if p >= 0.0:
        q = -(p + sq) / 2.0
    else:
        q = -(p - sq) / 2.0
    x1 = q / c
    x2 = -b / q if q != 0.0 else (-p / c - x1)
    # The attracting root has |c x + d| = e^{l/2} > 1 and the repelling one
    # its reciprocal.  Compare the two instead of testing against 1: for
    # high powers the repelling value is pure cancellation noise, but the
    # noise (~|c| * ulp) stays far below the attracting value.
    if abs(c * x1 + d) > abs(c * x2 + d):
        att, rep = x1, x2
    else:
        att, rep = x2, x1
    return BoundaryPoint.from_real(att), BoundaryPoint.from_real(rep)
