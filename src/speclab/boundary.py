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
from dataclasses import dataclass
from typing import NamedTuple

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

# A rejection loop of run_all_checks gives up after this many attempts per sample.
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


def _h(C, x, y, z):
    return C(x, y) + C(x, z) - C(y, z)


def recover_cocycle_from_C(
    gamma: Mat2, x: BoundaryPoint, y: BoundaryPoint, z: BoundaryPoint, images=None
) -> float:
    """Triple-difference recovery: half of h(gx,gy,gz) - h(x,y,z) equals B(gamma, x).

    `images`, when given, is (gamma x, gamma y, gamma z) already computed."""
    gx, gy, gz = images if images is not None else (act(gamma, x), act(gamma, y), act(gamma, z))
    return 0.5 * (_h(cross_term, gx, gy, gz) - _h(cross_term, x, y, z))


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


def pullback_cross_term(h: Mat2):
    def C(xi: BoundaryPoint, eta: BoundaryPoint) -> float:
        return cross_term(act(h, xi), act(h, eta))

    return C


def pullback_potential(h: Mat2, y: BoundaryPoint, z: BoundaryPoint):
    """Candidate potential with d(phi) = beta - B, built from the cross-term
    difference by the triple construction."""
    Cb = pullback_cross_term(h)

    def F(a, b):
        return Cb(a, b) - cross_term(a, b)

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

    def as_dict(self):
        return {
            "check": self.check,
            "samples": self.samples,
            "max_defect": self.max_defect,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


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


class _Drawn(NamedTuple):
    word: tuple
    m: Mat2
    hyperbolic: bool


class _WordMemo:
    """What one `run_all_checks` call has learnt about the words it drew.

    The suite draws reduced words of length <= 3, of which there are only
    52 at rank 2 and 186 at rank 3, so most draws repeat a word.  Each
    distinct word is evaluated and classified once, and the measurements
    that depend on the drawn words alone (the pole defects of g, the
    north-south rows of a pair) are taken once; every draw still consumes
    its random numbers and counts as a sample.
    """

    def __init__(self, rep):
        self.rep = rep
        rank = rep.presentation.free_rank
        self.letters = [k for k in range(1, rank + 1)] + [-k for k in range(1, rank + 1)]
        self._drawn: dict[tuple, _Drawn] = {}
        self._pole_defects: dict[tuple, tuple[float, float]] = {}
        # (eta word, gamma word) -> rows, or None for a degenerate pair
        self._northsouth: dict[tuple, list | None] = {}

    def drawn(self, word: tuple) -> _Drawn:
        hit = self._drawn.get(word)
        if hit is None:
            m = sg.evaluate(word, self.rep)
            hit = self._drawn[word] = _Drawn(word, m, classify(m) is IsometryClass.HYPERBOLIC)
        return hit

    def pole_defects(self, g: _Drawn) -> tuple[float, float]:
        """Antisymmetry |B(g, g-) + B(g, g+)| and inverse-class equality
        |B(g^-1, (g^-1)+) - B(g, g+)| of a hyperbolic g."""
        hit = self._pole_defects.get(g.word)
        if hit is None:
            gp, gm = g.m.fixed
            gi = g.m.inverse()
            gip, _ = fixed_points(gi)
            hit = self._pole_defects[g.word] = (
                abs(busemann(g.m, gm) + busemann(g.m, gp)),
                abs(busemann(gi, gip) - busemann(g.m, gp)),
            )
        return hit

    def northsouth(self, e: _Drawn, g: _Drawn):
        """`northsouth_limits(e, g)` at n = 23..25, or None if degenerate."""
        key = (e.word, g.word)
        if key not in self._northsouth:
            try:
                rows = northsouth_limits(e.m, g.m, n_max=25, n_min=23)
            except DegenerateConfiguration:
                rows = None
            self._northsouth[key] = rows
        return self._northsouth[key]


def _random_word_element(memo: _WordMemo, rng, max_len=3) -> _Drawn:
    L = rng.randint(1, max_len)
    w = []
    while len(w) < L:
        x = rng.choice(memo.letters)
        if w and w[-1] == -x:
            continue
        w.append(x)
    return memo.drawn(tuple(w))


def _random_hyperbolic(memo: _WordMemo, rng, max_len=3) -> _Drawn:
    for _ in range(100):
        g = _random_word_element(memo, rng, max_len)
        if g.hyperbolic:
            return g
    raise BoundaryError("no hyperbolic element found")


def _rejections_exhausted(check: str, samples: int, done: int) -> BoundaryError:
    attempts = REJECTION_CAP * samples
    return BoundaryError(
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
    memo = _WordMemo(rep)
    reports = []

    # cocycle identity
    worst = 0.0
    for _ in range(samples):
        g1 = _random_word_element(memo, rng).m
        g2 = _random_word_element(memo, rng).m
        xi = _random_point(rng)
        d = abs(busemann(g1 * g2, xi) - busemann(g1, act(g2, xi)) - busemann(g2, xi))
        worst = max(worst, d)
    reports.append(CheckReport("cocycle_identity", samples, worst, 1e-9))

    # pairing identity (image separation enforced by rejection)
    worst = 0.0
    done = 0
    for _ in range(REJECTION_CAP * samples):
        g = _random_word_element(memo, rng, max_len=2).m
        xi, eta = _separated_points(rng, 2)
        if act(g, xi).angle_dist(act(g, eta)) < 1e-5:
            continue
        worst = max(worst, pairing_check(g, xi, eta))
        done += 1
        if done == samples:
            break
    else:
        raise _rejections_exhausted("pairing_identity", samples, done)
    reports.append(CheckReport("pairing_identity", samples, worst, 1e-8))

    # antisymmetry at the poles and inverse-class equality
    worst_anti = 0.0
    worst_inv = 0.0
    for _ in range(samples):
        anti, inv = memo.pole_defects(_random_hyperbolic(memo, rng))
        worst_anti = max(worst_anti, anti)
        worst_inv = max(worst_inv, inv)
    reports.append(CheckReport("antisymmetry_at_poles", samples, worst_anti, 1e-8))
    reports.append(CheckReport("inverse_class_equality", samples, worst_inv, 1e-8))

    # C determines c (triple-difference recovery, aux-pair independence)
    worst = 0.0
    done = 0
    for _ in range(REJECTION_CAP * samples):
        g = _random_word_element(memo, rng, max_len=2).m
        pts = _separated_points(rng, 5)
        x, y, z, y2, z2 = pts
        imgs = [act(g, p) for p in pts]
        if any(
            imgs[i].angle_dist(imgs[j]) < 1e-5 for i in range(5) for j in range(i + 1, 5)
        ):
            continue
        gx, gy, gz, gy2, gz2 = imgs
        r1 = recover_cocycle_from_C(g, x, y, z, images=(gx, gy, gz))
        r2 = recover_cocycle_from_C(g, x, y2, z2, images=(gx, gy2, gz2))
        b = busemann(g, x)
        worst = max(worst, abs(r1 - b), abs(r2 - b), abs(r1 - r2))
        done += 1
        if done == samples:
            break
    else:
        raise _rejections_exhausted("c_determines_cocycle", samples, done)
    reports.append(CheckReport("c_determines_cocycle", samples, worst, 1e-7))

    # Step-1 identity for coboundaries
    worst = 0.0
    done = 0
    for _ in range(REJECTION_CAP * samples):
        g = _random_hyperbolic(memo, rng).m
        e = _random_word_element(memo, rng).m
        try:
            worst = max(worst, step1_identity_check(lambda q: math.cos(q.theta), e, g))
        except DegenerateConfiguration:
            continue
        done += 1
        if done == samples:
            break
    else:
        raise _rejections_exhausted("step1_coboundary_identity", samples, done)
    reports.append(CheckReport("step1_coboundary_identity", samples, worst, 1e-12))

    # north-south limits (Lemma S style convergence)
    worst = 0.0
    for _ in range(samples):
        g = _random_hyperbolic(memo, rng, max_len=1)
        e = _random_word_element(memo, rng, max_len=1)
        rows = memo.northsouth(e, g)
        if rows is None:
            continue
        finals = [(dp, dm) for _, dp, dm in rows if dp is not None]
        if not finals:
            continue
        worst = max(worst, min(dp for dp, _ in finals), min(dm for _, dm in finals))
    reports.append(CheckReport("northsouth_limits", samples, worst, 1e-6))

    return reports
