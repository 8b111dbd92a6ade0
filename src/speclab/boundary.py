"""Busemann cocycle and cross-term checks on the circle boundary.

Conventions (disk model, base point at the center):
    B(g, xi)   = -log |g'(xi)|            so  B(g, g+) = translation length
    C(xi, eta) = -log(|xi - eta|^2 / 4)   twice the Gromov product

With these signs the pairing identity
    C(g xi, g eta) - C(xi, eta) = B(g, xi) + B(g, eta)
is an algebraic identity of Mobius maps, verified here numerically.

Each draw kind of `run_all_checks` (cocycle, pairing, C-recovery, step 1)
has one raw kernel on angles or unit complexes and disk matrices.  A kernel
maps all of its draw's points through the disk matrix in one call of the
many-point image kernel of `mobius` (`circle_images`, which `circle_image`
and `act` wrap) and sums the draw's terms in local variables, with the
operands and the order of `busemann` and `cross_term`, so every defect and
every rejection is the same float as on BoundaryPoints.  `pairing_check`,
`recover_cocycle_from_C` and `step1_identity_check` take BoundaryPoints and
wrap the same kernels; the first two raise CoincidentPoints when two of
their points, or two images, are closer than SEPARATION_FLOOR.  The kernels
test no floor on the points: `run_all_checks` draws its points more than
1e-3 apart and rejects images closer than 1e-5.  Those tests, and the floor,
read the least gap of all pairs off the sorted neighbours and the wrap arc
(`_least_gap`).  It draws its words with the same random bits as
`randint`/`choice`, reading each letter from a table of all the draws of its
bit width (`_word_drawer`).  B reads only the bottom row (q_c, q_d) of a disk
matrix, so the cocycle kernel builds no Mat2 for g1 g2: it forms the
product's four entries inline and only that row of its disk matrix
(`disk_row`).
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import asdict, dataclass
from functools import cache
from math import log

from . import surface_group as sg
from .mobius import (
    CAYLEY_BOTTOM,
    TWO_PI,
    BoundaryPoint,
    IsometryClass,
    Mat2,
    NotHyperbolic,
    act,
    angle_gap,
    circle_derivative,
    circle_images,
    classify,
    disk_row,
    fixed_points,
)

SEPARATION_FLOOR = 1e-6

# A check of run_all_checks gives up after this many attempts per sample.
REJECTION_CAP = 100


class BoundaryError(Exception):
    pass


class CoincidentPoints(BoundaryError):
    pass


class DegenerateConfiguration(BoundaryError):
    pass


# Raw kernels, one per draw kind of `run_all_checks`.  A point is an angle
# theta in [0, 2 pi) or its unit complex u = exp(i theta), an element its disk
# matrix q (`Mat2.disk`).  Each kernel maps all of the draw's points through
# q in one `circle_images` call and sums the draw's terms in local variables:
#     B(g, u)  = -log(1 / m^2),  m = |q_c u + q_d|  (1 / m^2 is circle_derivative)
#     C(x, y)  = -log(d^2 / 4),  d = |x - y|
# with the operands and the order of `busemann` and `cross_term`, so every
# term is the same float.  The pairing and recovery kernels return None when
# two images are closer than `floor`, and test no floor on the points.

def _cocycle(g1: Mat2, g2: Mat2, u: complex) -> float:
    """Defect |B(g1 g2, u) - B(g1, g2 u) - B(g2, u)| of the cocycle identity.
    B(g1 g2, u) reads only the bottom row of the product's disk matrix, so no
    Mat2 is built: the product's entries are the sums of Mat2.__mul__, and
    the top row, which is never read, is left out."""
    _, _, q1c, q1d = g1.disk
    q2 = g2.disk
    (gu,) = circle_images(q2, (u,))[1]
    qc, qd = disk_row(
        CAYLEY_BOTTOM,
        float(g1.a * g2.a + g1.b * g2.c),
        float(g1.a * g2.b + g1.b * g2.d),
        float(g1.c * g2.a + g1.d * g2.c),
        float(g1.c * g2.b + g1.d * g2.d),
    )
    m12 = abs(qc * u + qd)
    m1 = abs(q1c * gu + q1d)
    m2 = abs(q2[2] * u + q2[3])
    return abs(-log(1.0 / (m12 * m12)) - -log(1.0 / (m1 * m1)) - -log(1.0 / (m2 * m2)))


def _pairing(q, s: float, t: float, floor: float) -> float | None:
    """Defect of the pairing identity C(gx, gy) - C(x, y) = B(g, x) + B(g, y)
    at the angles s, t."""
    x, y = cmath.exp(1j * s), cmath.exp(1j * t)
    (gs, gt), (gx, gy) = circle_images(q, (x, y))
    if angle_gap(gs, gt) < floor:
        return None
    _, _, qc, qd = q
    dg = abs(gx - gy)
    d = abs(x - y)
    mx = abs(qc * x + qd)
    my = abs(qc * y + qd)
    lhs = -log(dg * dg / 4.0) - -log(d * d / 4.0)
    rhs = -log(1.0 / (mx * mx)) + -log(1.0 / (my * my))
    return abs(lhs - rhs)


def _recovery(q, thetas, floor: float) -> list[float] | None:
    """[B(g, x), r1, r2, ...] at x = thetas[0]: r_i is the triple-difference
    recovery of B(g, x), half of h(gx, gy, gz) - h(x, y, z) with
    h(x, y, z) = C(x, y) + C(x, z) - C(y, z), from the i-th further pair
    (y, z) of `thetas`."""
    exp = cmath.exp
    us = [exp(1j * t) for t in thetas]
    ts, gs = circle_images(q, us)
    if _least_gap(ts) < floor:
        return None
    x, gx = us[0], gs[0]
    m = abs(q[2] * x + q[3])
    out = [-log(1.0 / (m * m))]
    for i in range(1, len(us), 2):
        y, z, gy, gz = us[i], us[i + 1], gs[i], gs[i + 1]
        d1 = abs(gx - gy)
        d2 = abs(gx - gz)
        d3 = abs(gy - gz)
        d4 = abs(x - y)
        d5 = abs(x - z)
        d6 = abs(y - z)
        out.append(0.5 * (
            (-log(d1 * d1 / 4.0) + -log(d2 * d2 / 4.0) - -log(d3 * d3 / 4.0))
            - (-log(d4 * d4 / 4.0) + -log(d5 * d5 / 4.0) - -log(d6 * d6 / 4.0))
        ))
    return out


def _step1(q, gp: BoundaryPoint, gm: BoundaryPoint, phi) -> float:
    """For a coboundary delta = d(phi), the defect of
    delta(eta, gamma+) = f(eta gamma+, gamma-) - f(gamma+, gamma-) with
    f(x, y) = phi(x) + phi(y); q is the disk matrix of eta, gp and gm the
    poles of gamma.  phi takes an angle and is called once at each of the
    three points."""
    at_egp = phi(_pole_image(q, gp, gm))
    at_gp, at_gm = phi(gp.theta), phi(gm.theta)
    return abs((at_egp - at_gp) - ((at_egp + at_gm) - (at_gp + at_gm)))


def _pole_image(q, gp: BoundaryPoint, gm: BoundaryPoint) -> float:
    """The angle of eta gamma+, q the disk matrix of eta; DegenerateConfiguration
    when it is closer than SEPARATION_FLOOR to gamma-."""
    (t,) = circle_images(q, (gp.u,))[0]
    if angle_gap(t, gm.theta) < SEPARATION_FLOOR:
        raise DegenerateConfiguration("eta gamma+ coincides with gamma-")
    return t


def _least_gap(thetas) -> float:
    """The least angle_gap over all pairs of angles in [0, 2 pi] (inf for
    fewer than two), bit for bit, from the sorted neighbours and the wrap arc
    2 pi - (max - min): float subtraction is monotone, so no pair is closer."""
    s = sorted(thetas)
    if len(s) < 2:
        return math.inf
    least = TWO_PI - (s[-1] - s[0])
    a = s[0]
    for b in s[1:]:
        if b - a < least:
            least = b - a
        a = b
    return least


def _separated(*pts: BoundaryPoint) -> None:
    """CoincidentPoints unless every pair of points is at least
    SEPARATION_FLOOR apart."""
    gap = _least_gap([p.theta for p in pts])
    if gap < SEPARATION_FLOOR:
        raise CoincidentPoints(f"separation {gap} below floor")


def _images_apart(result):
    """A kernel's result, or CoincidentPoints when it is None: two images
    closer than SEPARATION_FLOOR."""
    if result is None:
        raise CoincidentPoints(f"images closer than {SEPARATION_FLOOR}")
    return result


def _poles(gamma: Mat2) -> tuple[BoundaryPoint, BoundaryPoint]:
    """(gamma+, gamma-); DegenerateConfiguration unless gamma is hyperbolic."""
    try:
        return gamma.fixed
    except NotHyperbolic:
        raise DegenerateConfiguration("gamma must be hyperbolic") from None


def busemann(gamma: Mat2, xi: BoundaryPoint) -> float:
    """Horospherical displacement cocycle B(gamma, xi) = -log|gamma'(xi)|."""
    return -math.log(circle_derivative(gamma.disk, xi.u))


def cross_term(xi: BoundaryPoint, eta: BoundaryPoint) -> float:
    """C(xi, eta) = 2 (xi, eta)_o = -log(|xi - eta|^2 / 4); CoincidentPoints
    when xi and eta are closer than SEPARATION_FLOOR."""
    _separated(xi, eta)
    d = abs(xi.u - eta.u)
    return -math.log(d * d / 4.0)


def pairing_check(gamma: Mat2, xi: BoundaryPoint, eta: BoundaryPoint) -> float:
    """Defect of the Gromov-product pairing identity at (gamma, xi, eta)."""
    _separated(xi, eta)
    return _images_apart(_pairing(gamma.disk, xi.theta, eta.theta, SEPARATION_FLOOR))


def recover_cocycle_from_C(
    gamma: Mat2, x: BoundaryPoint, y: BoundaryPoint, z: BoundaryPoint
) -> float:
    """Triple-difference recovery: half of h(gx,gy,gz) - h(x,y,z) equals B(gamma, x)."""
    _separated(x, y, z)
    thetas = (x.theta, y.theta, z.theta)
    return _images_apart(_recovery(gamma.disk, thetas, SEPARATION_FLOOR))[1]


def step1_identity_check(phi, eta: Mat2, gamma: Mat2) -> float:
    """For a coboundary delta = d(phi), check
    delta(eta, gamma+) = f(eta gamma+, gamma-) - f(gamma+, gamma-) with
    f(x, y) = phi(x) + phi(y).  phi is called once at each of the three
    points, so it must be a function of the point alone."""
    gp, gm = _poles(gamma)
    return _step1(eta.disk, gp, gm, lambda t: phi(BoundaryPoint(t)))


def northsouth_limits(eta: Mat2, gamma: Mat2, n_max: int = 30, n_min: int = 1):
    """Fixed points of eta gamma^n against the limit points eta gamma+ / gamma-.

    Returns a list of rows (n, d_plus, d_minus) for n_min <= n <= n_max;
    non-hyperbolic powers are reported with None distances.  gamma^n is
    always the same left-to-right product from n = 1, so a row does not
    depend on n_min.
    """
    gp, gm = _poles(gamma)
    target_plus = BoundaryPoint(_pole_image(eta.disk, gp, gm))
    rows = []
    power = Mat2(1, 0, 0, 1)
    for n in range(1, n_max + 1):
        power = power * gamma
        if n < n_min:
            continue
        try:
            wp, wm = fixed_points(eta * power)
        except NotHyperbolic:
            rows.append((n, None, None))
            continue
        rows.append((n, wp.angle_dist(target_plus), wm.angle_dist(gm)))
    return rows


# ---------------------------------------------------------------------------
# Pullback cocycles (conjugation by h).
# ---------------------------------------------------------------------------

def pullback_cocycle(h: Mat2):
    """beta(gamma, xi) = B(h gamma h^-1, h xi), the pullback of B along h."""

    def beta(gamma: Mat2, xi: BoundaryPoint) -> float:
        return busemann(h * gamma * h.inverse(), act(h, xi))

    return beta


def pullback_potential(h: Mat2, y: BoundaryPoint, z: BoundaryPoint):
    """Candidate potential with d(phi) = beta - B, built from the cross-term
    difference by the triple construction."""

    def F(a, b):
        return cross_term(act(h, a), act(h, b)) - cross_term(a, b)

    def phi(xi: BoundaryPoint) -> float:
        return 0.5 * (F(xi, y) + F(xi, z) - F(y, z))

    return phi


@dataclass
class CheckReport:
    check: str
    samples: int
    max_defect: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_defect < self.tolerance

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "pass": self.passed}, sort_keys=True)


def _word_drawer(rng: random.Random, letters):
    """draw(max_len): a reduced word of rng.randint(1, max_len) letters, each
    rng.choice(letters) and redrawn when it cancels the one before.

    randint and choice both draw through CPython's Random._randbelow(n):
    k = n.bit_length() bits from getrandbits, drawn again while >= n.  That
    is done here inline, so the same bits are taken as by randint and choice,
    without their Python-level calls.  A letter is read from a table of all
    2^k draws, padded with 0, which is no letter, so a draw of 0 is redrawn."""
    getrandbits = rng.getrandbits
    k = len(letters).bit_length()
    table = [*letters, *[0] * ((1 << k) - len(letters))]

    def draw(max_len: int) -> tuple:
        j = max_len.bit_length()
        last = getrandbits(j)  # the word's length minus one
        while last >= max_len:
            last = getrandbits(j)
        w = []
        back = 0  # the letter that would cancel the one before
        while True:
            y = table[getrandbits(k)]
            if y and y != back:
                w.append(y)
                if len(w) > last:
                    return tuple(w)
                back = -y

    return draw


def _worst(check: str, samples: int, tolerance: float, attempt) -> CheckReport:
    """Largest defect over `samples` accepted draws of one check.

    `attempt()` makes one draw and returns its defect, or None when it
    rejects the draw; after REJECTION_CAP * samples attempts the check
    gives up with BoundaryError."""
    attempts = REJECTION_CAP * samples
    worst = 0.0
    done = 0
    for _ in range(attempts):
        d = attempt()
        if d is None:
            continue
        if d > worst:
            worst = d
        done += 1
        if done == samples:
            return CheckReport(check, samples, worst, tolerance)
    raise BoundaryError(
        f"{check}: {attempts - done} of {attempts} draws rejected, "
        f"{done} of {samples} samples accepted"
    )


def run_all_checks(rep, seed: int = 0, samples: int = 1000) -> list[CheckReport]:
    """The full B-cocycle identity suite over one representation.

    Each check takes `samples` draws.  A check that rejects draws (images
    too close, a degenerate configuration) gives up with BoundaryError
    after REJECTION_CAP * samples attempts."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = random.Random(seed)
    rank = rep.presentation.free_rank
    letters = [k for k in range(1, rank + 1)] + [-k for k in range(1, rank + 1)]

    # The suite draws reduced words of length <= 3, of which there are only
    # 52 at rank 2 and 186 at rank 3, so most draws repeat a word.  The
    # caches below live for this call: each distinct word is evaluated and
    # classified once, and the measurements that depend on the drawn words
    # alone (the pole defects of g, the north-south defect of a pair) are
    # taken once; every draw still consumes its random numbers and counts
    # as a sample.

    @cache
    def element(w: tuple) -> tuple[Mat2, bool]:
        m = sg.evaluate(w, rep)
        return m, classify(m) is IsometryClass.HYPERBOLIC

    word = _word_drawer(rng, letters)

    def hyperbolic(max_len: int) -> tuple:
        for _ in range(100):
            w = word(max_len)
            if element(w)[1]:
                return w
        raise BoundaryError("no hyperbolic element found")

    @cache
    def pole_defects(w: tuple) -> tuple[float, float]:
        """Antisymmetry |B(g, g-) + B(g, g+)| and inverse-class equality
        |B(g^-1, (g^-1)+) - B(g, g+)| of a hyperbolic g."""
        g = element(w)[0]
        gp, gm = g.fixed
        gi = g.inverse()
        gip, _ = fixed_points(gi)
        return abs(busemann(g, gm) + busemann(g, gp)), abs(busemann(gi, gip) - busemann(g, gp))

    @cache
    def northsouth(e: tuple, g: tuple) -> float:
        """Distance of the fixed points of eta gamma^n, n = 23..25, from
        eta gamma+ and gamma-; 0.0 when the pair or every power is degenerate."""
        try:
            rows = northsouth_limits(element(e)[0], element(g)[0], n_max=25, n_min=23)
        except DegenerateConfiguration:
            return 0.0
        finals = [(dp, dm) for _, dp, dm in rows if dp is not None]
        if not finals:
            return 0.0
        return max(min(dp for dp, _ in finals), min(dm for _, dm in finals))

    # A point's angle is rng.uniform(0, 2 pi) reduced mod 2 pi, the angle of
    # BoundaryPoint.from_angle, taken from rng.random() alone.  The points of
    # one draw are drawn again until every pair is more than 1e-3 apart.
    rand = rng.random

    def cocycle():
        g1, _ = element(word(3))
        g2, _ = element(word(3))
        # one point has no gap to test
        return _cocycle(g1, g2, cmath.exp(1j * ((TWO_PI * rand()) % TWO_PI)))

    def pairing():
        # image separation enforced by rejection
        q = element(word(2))[0].disk
        for _ in range(1000):
            s, t = (TWO_PI * rand()) % TWO_PI, (TWO_PI * rand()) % TWO_PI
            if angle_gap(s, t) > 1e-3:
                return _pairing(q, s, t, 1e-5)
        raise BoundaryError("could not draw separated points")

    def recovery():
        # triple-difference recovery, aux-pair independence
        q = element(word(2))[0].disk
        for _ in range(1000):
            thetas = (
                (TWO_PI * rand()) % TWO_PI, (TWO_PI * rand()) % TWO_PI, (TWO_PI * rand()) % TWO_PI,
                (TWO_PI * rand()) % TWO_PI, (TWO_PI * rand()) % TWO_PI,
            )
            if _least_gap(thetas) > 1e-3:
                break
        else:
            raise BoundaryError("could not draw separated points")
        k = _recovery(q, thetas, 1e-5)
        if k is None:
            return None
        b, r1, r2 = k
        return max(abs(r1 - b), abs(r2 - b), abs(r1 - r2))

    def step1():
        g = element(hyperbolic(3))[0]
        e = element(word(3))[0]
        try:
            return _step1(e.disk, *g.fixed, math.cos)
        except DegenerateConfiguration:
            return None

    def limits():
        # Lemma S style convergence; gamma is drawn before eta
        g = hyperbolic(1)
        return northsouth(word(1), g)

    reports = [
        _worst("cocycle_identity", samples, 1e-9, cocycle),
        _worst("pairing_identity", samples, 1e-8, pairing),
    ]
    # antisymmetry at the poles and inverse-class equality, from the same draws
    anti, inv = zip(*[pole_defects(hyperbolic(3)) for _ in range(samples)])
    reports.append(CheckReport("antisymmetry_at_poles", samples, max(0.0, *anti), 1e-8))
    reports.append(CheckReport("inverse_class_equality", samples, max(0.0, *inv), 1e-8))
    reports += [
        _worst("c_determines_cocycle", samples, 1e-7, recovery),
        _worst("step1_coboundary_identity", samples, 1e-12, step1),
        _worst("northsouth_limits", samples, 1e-6, limits),
    ]
    return reports
