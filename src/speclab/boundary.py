"""Busemann cocycle and cross-term checks on the circle boundary.

Conventions (disk model, base point at the center):
    B(g, xi)   = -log |g'(xi)|            so  B(g, g+) = translation length
    C(xi, eta) = -log(|xi - eta|^2 / 4)   twice the Gromov product

With these signs the pairing identity
    C(g xi, g eta) - C(xi, eta) = B(g, xi) + B(g, eta)
is an algebraic identity of Mobius maps, verified here numerically.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from functools import cache

from . import surface_group as sg
from .mobius import (
    BoundaryPoint,
    IsometryClass,
    Mat2,
    NotHyperbolic,
    act,
    boundary_derivative,
    classify,
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


def busemann(gamma: Mat2, xi: BoundaryPoint) -> float:
    """Horospherical displacement cocycle B(gamma, xi) = -log|gamma'(xi)|."""
    return -math.log(boundary_derivative(gamma, xi))


def cross_term(xi: BoundaryPoint, eta: BoundaryPoint) -> float:
    """C(xi, eta) = 2 (xi, eta)_o = -log(|xi - eta|^2 / 4)."""
    d = xi.chord_dist(eta)
    if xi.angle_dist(eta) < SEPARATION_FLOOR:
        raise CoincidentPoints(f"separation {xi.angle_dist(eta)} below floor")
    return -math.log(d * d / 4.0)


def pairing_check(gamma: Mat2, xi: BoundaryPoint, eta: BoundaryPoint) -> float:
    """Defect of the Gromov-product pairing identity at (gamma, xi, eta)."""
    lhs = cross_term(act(gamma, xi), act(gamma, eta)) - cross_term(xi, eta)
    rhs = busemann(gamma, xi) + busemann(gamma, eta)
    return abs(lhs - rhs)


def _h(x, y, z):
    return cross_term(x, y) + cross_term(x, z) - cross_term(y, z)


def recover_cocycle_from_C(
    gamma: Mat2, x: BoundaryPoint, y: BoundaryPoint, z: BoundaryPoint, images=None
) -> float:
    """Triple-difference recovery: half of h(gx,gy,gz) - h(x,y,z) equals B(gamma, x).

    `images`, when given, is (gamma x, gamma y, gamma z) already computed."""
    gx, gy, gz = images if images is not None else (act(gamma, x), act(gamma, y), act(gamma, z))
    return 0.5 * (_h(gx, gy, gz) - _h(x, y, z))


def _hyperbolic_fixed_points(gamma: Mat2):
    try:
        return gamma.fixed
    except NotHyperbolic:
        raise DegenerateConfiguration("gamma must be hyperbolic") from None


def step1_identity_check(phi, eta: Mat2, gamma: Mat2) -> float:
    """For a coboundary delta = d(phi), check
    delta(eta, gamma+) = f(eta gamma+, gamma-) - f(gamma+, gamma-) with
    f(x, y) = phi(x) + phi(y)."""
    gp, gm = _hyperbolic_fixed_points(gamma)
    egp = act(eta, gp)
    if egp.angle_dist(gm) < SEPARATION_FLOOR:
        raise DegenerateConfiguration("eta gamma+ coincides with gamma-")

    def f(a, b):
        return phi(a) + phi(b)

    delta = phi(egp) - phi(gp)
    return abs(delta - (f(egp, gm) - f(gp, gm)))


def northsouth_limits(eta: Mat2, gamma: Mat2, n_max: int = 30, n_min: int = 1):
    """Fixed points of eta gamma^n against the limit points eta gamma+ / gamma-.

    Returns a list of rows (n, d_plus, d_minus) for n_min <= n <= n_max;
    non-hyperbolic powers are reported with None distances.  gamma^n is
    always the same left-to-right product from n = 1, so a row does not
    depend on n_min.
    """
    gp, gm = _hyperbolic_fixed_points(gamma)
    target_plus = act(eta, gp)
    if target_plus.angle_dist(gm) < SEPARATION_FLOOR:
        raise DegenerateConfiguration("eta gamma+ coincides with gamma-")
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


def _random_point(rng: random.Random) -> BoundaryPoint:
    return BoundaryPoint.from_angle(rng.uniform(0.0, 2.0 * math.pi))


def _separated_points(rng, count):
    for _ in range(1000):
        pts = [_random_point(rng) for _ in range(count)]
        if all(
            pts[i].angle_dist(pts[j]) > 1e-3
            for i in range(count)
            for j in range(i + 1, count)
        ):
            return pts
    raise BoundaryError("could not draw separated points")


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
        worst = max(worst, d)
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

    def word(max_len: int) -> tuple:
        L = rng.randint(1, max_len)
        w = []
        while len(w) < L:
            x = rng.choice(letters)
            if w and w[-1] == -x:
                continue
            w.append(x)
        return tuple(w)

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
        g, _ = element(w)
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

    def cocycle():
        g1, _ = element(word(3))
        g2, _ = element(word(3))
        xi = _random_point(rng)
        return abs(busemann(g1 * g2, xi) - busemann(g1, act(g2, xi)) - busemann(g2, xi))

    def pairing():
        # image separation enforced by rejection
        g, _ = element(word(2))
        xi, eta = _separated_points(rng, 2)
        if act(g, xi).angle_dist(act(g, eta)) < 1e-5:
            return None
        return pairing_check(g, xi, eta)

    def recovery():
        # triple-difference recovery, aux-pair independence
        g, _ = element(word(2))
        pts = _separated_points(rng, 5)
        imgs = [act(g, p) for p in pts]
        if any(imgs[i].angle_dist(imgs[j]) < 1e-5 for i in range(5) for j in range(i + 1, 5)):
            return None
        x, y, z, y2, z2 = pts
        gx, gy, gz, gy2, gz2 = imgs
        r1 = recover_cocycle_from_C(g, x, y, z, images=(gx, gy, gz))
        r2 = recover_cocycle_from_C(g, x, y2, z2, images=(gx, gy2, gz2))
        b = busemann(g, x)
        return max(abs(r1 - b), abs(r2 - b), abs(r1 - r2))

    def step1():
        g, _ = element(hyperbolic(3))
        e, _ = element(word(3))
        try:
            return step1_identity_check(lambda q: math.cos(q.theta), e, g)
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
