"""Fricke coordinates: matrix representations from coordinate vectors and back.

In the chart's normal form alpha_1 = diag(lambda, 1/lambda) with lambda > 1
(repelling point 0, attracting point infinity), and 1 is the attracting
fixed point of beta_1, |c_1 + d_1| > 1.  The other generators carry the
coordinates (a_i, c_i, d_i, a'_i, c'_i, d'_i), 2 <= i <= g, and (e_j, g_j)
for the punctures.  The relator forces the first pair up to a sign;
`rep_from_fricke` keeps the branch in normal form, the one with
tr[alpha_1, beta_1] < 0 where both are, and rejects a vector that has none.

A rep's validity, its ping-pong certificate included, is derived from its
matrices, never read from a file: disjoint isometric circles of the free
generators prove them free and discrete (Maskit, Kleinian Groups, 1988).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import surface_group as sg
from .mobius import (
    IsometryClass,
    Mat2,
    classify,
    fixed_points,
    identity,
    is_exact,
)

RELATOR_TOL = 1e-8


class FrickeError(Exception):
    pass


class DegenerateCoordinates(FrickeError):
    pass


class NotInFrickeImage(FrickeError):
    pass


class NotNormalizable(FrickeError):
    pass


class SamplingFailed(FrickeError):
    pass


@dataclass(frozen=True)
class FrickeVector:
    """Point of R^(6g-6+2n): handle coordinates then puncture coordinates."""

    genus: int
    punctures: int
    values: tuple

    def __post_init__(self):
        g, n = self.genus, self.punctures
        if g < 1:
            raise FrickeError(f"need genus >= 1 (first handle pair), got {g}")
        if n < 1:
            raise FrickeError(f"need at least one puncture, got {n}")
        expected = 6 * (g - 1) + 2 * n
        if len(self.values) != expected:
            raise FrickeError(
                f"dimension {len(self.values)}, expected {expected} for (g,n)=({g},{n})"
            )
        for i in range(2, g + 1):
            _, c, _, _, c2, _ = self.handle(i)
            if c <= 0 or c2 <= 0:
                raise FrickeError("handle coordinates need c_i > 0, c'_i > 0")
        for j in range(1, n + 1):
            if self.puncture(j)[1] == 0:
                raise FrickeError("puncture coordinates need g_j != 0")

    def handle(self, i: int):
        """(a_i, c_i, d_i, a'_i, c'_i, d'_i) for 2 <= i <= genus."""
        off = 6 * (i - 2)
        return self.values[off : off + 6]

    def puncture(self, j: int):
        """(e_j, g_j) for 1 <= j <= punctures."""
        off = 6 * (self.genus - 1) + 2 * (j - 1)
        return self.values[off : off + 2]


@dataclass(frozen=True)
class ValidityReport:
    relator_defect: float
    all_hyperbolic_or_parabolic: bool
    punctures_parabolic: bool
    discreteness_certificate: tuple | None

    @property
    def valid(self) -> bool:
        return self.relator_defect <= RELATOR_TOL and self.all_hyperbolic_or_parabolic

    def as_dict(self):
        return {
            "relator_defect": self.relator_defect,
            "all_hyperbolic_or_parabolic": self.all_hyperbolic_or_parabolic,
            "punctures_parabolic": self.punctures_parabolic,
            "discreteness_certificate": (
                None
                if self.discreteness_certificate is None
                else [[float(x) for x in row] for row in self.discreteness_certificate]
            ),
        }


@dataclass(frozen=True)
class SurfaceRep:
    """Presentation plus one matrix per presentation generator."""

    presentation: sg.Presentation
    matrices: tuple

    @cached_property
    def validity(self) -> ValidityReport:
        """Relator defect, element types and ping-pong certificate, derived
        from the matrices on first read and kept."""
        pres, mats = self.presentation, self.matrices
        defect = sg.evaluate(sg.relator(pres), self).dist_to_pm_identity()
        ok = True
        cusps = True
        for k, m in enumerate(mats):
            cls = classify(m)
            if cls is IsometryClass.ELLIPTIC:
                ok = False
            if k >= 2 * pres.genus and cls is not IsometryClass.PARABOLIC:
                cusps = False
        return ValidityReport(defect, ok, cusps, ping_pong_certificate(mats[: pres.free_rank]))

    def matrix(self, k: int) -> Mat2:
        return self.matrices[k - 1]

    @classmethod
    def free_rep(cls, mats) -> "SurfaceRep":
        """Wrap free generators A_1..A_m as a punctured surface (g=1, n=m-1);
        the last puncture generator is forced by the relator.  Fewer than
        two generators raise ValueError (`Presentation.free`), and a
        generator whose det is not 1 raises FrickeError."""
        pres = sg.Presentation.free(len(mats))
        _check_unit_det(mats)
        a, b = mats[0], mats[1]
        partial = a * b * a.inverse() * b.inverse()
        for g in mats[2:]:
            partial = partial * g
        last = partial.inverse()
        if last.tr() < 0:
            last = -last
        return cls(pres, tuple(mats) + (last,))

    def conjugated(self, h: Mat2) -> "SurfaceRep":
        det = h.det()
        hinv = Mat2(h.d / det, -h.b / det, -h.c / det, h.a / det)
        mats = tuple((h * m * hinv) for m in self.matrices)
        return SurfaceRep(self.presentation, mats)

    def digest(self) -> str:
        payload = json.dumps(
            [[repr(x) for x in m.entries()] for m in self.matrices], sort_keys=True
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _check_unit_det(mats) -> None:
    """FrickeError unless every matrix has finite entries and det 1.  Lengths
    are read from traces, which is right only at det 1.  The bound is
    relative: entries printed to 17 digits lose accuracy in ad and bc, not in
    det.  An infinite entry makes the bound infinite too, so it is refused
    first."""
    for k, m in enumerate(mats, 1):
        if not all(is_exact(x) or math.isfinite(x) for x in m.entries()):
            raise FrickeError(f"matrix {k} has an entry that is not finite")
        ad, bc = m.a * m.d, m.b * m.c
        if not abs(ad - bc - 1.0) <= 1e-9 * max(1.0, abs(ad), abs(bc)):
            raise FrickeError(f"matrix {k} has det {ad - bc!r}, not 1")


def ping_pong_certificate(mats) -> tuple | None:
    """Rows (p, r, q, r), one per free generator (a b / c d): the isometric
    circles of A at p = -d/c and of A^-1 at q = a/c, both of radius 1/|c|.
    None unless all 2m disks are pairwise disjoint (so also when some c = 0).
    Exact entries give exact rows, so for an exact rep the test is a proof."""
    rows = []
    for m in mats:
        if m.c == 0:
            return None
        c = Fraction(m.c) if m.exact() else m.c
        r = 1 / abs(c)
        rows.append((-m.d / c, r, m.a / c, r))
    disks = [(p, r) for p, r, _, _ in rows] + [(q, r) for _, _, q, r in rows]
    if any(abs(x - y) <= r + s for (x, r), (y, s) in itertools.combinations(disks, 2)):
        return None
    return tuple(rows)


# ---------------------------------------------------------------------------
# Coordinates -> representation.
# ---------------------------------------------------------------------------

def _handle_matrices(coords):
    a, c, d, a2, c2, d2 = coords
    alpha = Mat2(a, (a * d - 1) / c, c, d)
    beta = Mat2(a2, (a2 * d2 - 1) / c2, c2, d2)
    return alpha, beta


def _puncture_matrix(e, gg) -> Mat2:
    return Mat2(e, (2 * e - e * e - 1) / gg, gg, 2 - e)


def _first_pair(a, b, c, d):
    """Solve for the normalized first handle pair from the inverse partial
    product (a b / c d).  Raises on coordinate degeneracies."""
    for x, label in ((a - 1, "a = 1"), (d - 1, "d = 1"), (c + d - 1, "c + d = 1"), (a + b - 1, "a + b = 1")):
        if x == 0:
            raise DegenerateCoordinates(label)
    lam_sq = (a - 1) / (1 - d)
    if lam_sq <= 0:
        raise NotInFrickeImage(f"lambda^2 = {lam_sq} <= 0")
    # a1 d1 - b1 c1 = 1 forces c1^2 * bracket = 1
    bracket = (b * c * (a + b - 1)) / ((1 - a) ** 2 * (c + d - 1)) - ((1 - d) * (a + b - 1)) / (
        (1 - a) * (c + d - 1)
    )
    if bracket <= 0:
        raise NotInFrickeImage(f"c1^2 bracket = {bracket} <= 0")
    lam = math.sqrt(lam_sq)
    c1 = math.sqrt(1.0 / bracket)
    a1 = b * c1 / (1 - a)
    b1 = (1 - d) * (a + b - 1) * c1 / ((1 - a) * (c + d - 1))
    d1 = c * b1 / (1 - d)
    if a1 + b1 < 0:
        a1, b1, c1, d1 = -a1, -b1, -c1, -d1
    alpha1 = Mat2(lam, 0.0, 0.0, 1.0 / lam)
    beta1 = Mat2(a1, b1, c1, d1)
    return alpha1, beta1


def rep_from_fricke(v: FrickeVector) -> SurfaceRep:
    """Build the representation in the chart's normal form determined by a
    Fricke vector; NotInFrickeImage if there is none."""
    g, n = v.genus, v.punctures
    handles = [_handle_matrices(v.handle(i)) for i in range(2, g + 1)]
    punct = [_puncture_matrix(*v.puncture(j)) for j in range(1, n + 1)]
    partial = identity()
    for alpha, beta in handles:
        partial = partial * alpha * beta * alpha.inverse() * beta.inverse()
    for gm in punct:
        partial = partial * gm
    inv = partial.inverse()
    a, b, c, d = (float(x) for x in inv.entries())
    # the relator fixes the first pair's commutator only up to sign, and a
    # branch's tr[alpha_1, beta_1] is sign * (a + d); keep the first branch in
    # normal form (lambda > 1, 1 attracting for beta_1), trying tr < 0 first:
    # the sign of a hyperbolic torus with a hole or cusp (Goldman 2003)
    for sign in ((-1.0, 1.0) if a + d > 0 else (1.0, -1.0)):
        try:
            alpha1, beta1 = _first_pair(sign * a, sign * b, sign * c, sign * d)
        except FrickeError:
            continue
        if alpha1.a > 1.0 and abs(beta1.c + beta1.d) > 1.0:
            break
    else:
        raise NotInFrickeImage("the first pair is in normal form on neither sign branch")
    ordered = [alpha1, beta1]
    for alpha, beta in handles:
        ordered += [alpha, beta]
    ordered = tuple(m.to_float() for m in ordered + punct)
    pres = sg.Presentation(genus=g, punctures=n)
    return SurfaceRep(pres, ordered)


# ---------------------------------------------------------------------------
# Representation -> coordinates.
# ---------------------------------------------------------------------------

def _mobius_to_0_inf_1(x_to_0, x_to_inf, x_to_1) -> Mat2:
    """Real Mobius map with prescribed images 0, infinity, 1; det normalized to 1."""
    inf = math.inf

    def row(p):
        # returns (u, v) with map numerator ~ u*z + v vanishing at p
        if p == inf:
            return (0.0, 1.0)
        return (1.0, -float(p))

    (na, nb) = row(x_to_0)
    (ca, cb) = row(x_to_inf)
    # scale so the third point goes to 1
    def ev(u, v, p):
        if p == inf:
            return u
        return u * float(p) + v

    num = ev(na, nb, x_to_1)
    den = ev(ca, cb, x_to_1)
    if num == 0.0 or den == 0.0:
        raise NotNormalizable("normalization points collide")
    s = den / num
    m = Mat2(s * na, s * nb, ca, cb)
    det = float(m.det())
    if det == 0.0:
        raise NotNormalizable("degenerate normalization")
    # scale for conditioning only; conjugation divides by det, so det = +-1 is fine
    r = math.sqrt(abs(det))
    return Mat2(m.a / r, m.b / r, m.c / r, m.d / r)


def fricke_from_rep(rep: SurfaceRep) -> FrickeVector:
    """Normalize the representation and read the coordinates off the matrices."""
    g, n = rep.presentation.genus, rep.presentation.punctures
    if g < 1:
        raise FrickeError("coordinates need genus >= 1")
    alpha1 = rep.matrix(1)
    if classify(alpha1) is not IsometryClass.HYPERBOLIC:
        raise NotNormalizable("first generator must be hyperbolic")
    att, repel = fixed_points(alpha1)
    x_plus, x_minus = att.to_real(), repel.to_real()
    beta1 = rep.matrix(2)
    p = _beta_normalization_point(beta1, x_plus, x_minus)
    h = _mobius_to_0_inf_1(x_minus, x_plus, p)
    mats = rep.conjugated(h).matrices
    # the first pair carries no coordinate; sign conventions: c_i > 0,
    # tr(gamma_j) >= 0
    values = []
    for i in range(2, g + 1):
        am = mats[2 * i - 2]
        bm = mats[2 * i - 1]
        if float(am.c) < 0:
            am = -am
        if float(bm.c) < 0:
            bm = -bm
        values += [float(am.a), float(am.c), float(am.d), float(bm.a), float(bm.c), float(bm.d)]
    for j in range(1, n + 1):
        gm = mats[2 * g + j - 1]
        if float(gm.tr()) < 0:
            gm = -gm
        values += [float(gm.a), float(gm.c)]
    return FrickeVector(g, n, tuple(values))


def _beta_normalization_point(beta1: Mat2, x_plus, x_minus):
    """beta_1's attracting fixed point (a parabolic beta_1's only one), which
    the normal form sends to 1; NotNormalizable if it is an alpha_1 fixed point."""
    cls = classify(beta1)
    if cls is IsometryClass.HYPERBOLIC:
        p = fixed_points(beta1)[0].to_real()
    elif cls is IsometryClass.PARABOLIC:
        a, b, c, d = (float(x) for x in beta1.entries())
        p = math.inf if c == 0.0 else (a - d) / (2.0 * c)
    else:
        raise NotNormalizable("second generator is elliptic or trivial")
    if any(math.isclose(p, x, rel_tol=1e-9, abs_tol=1e-9) for x in (x_plus, x_minus)):
        raise NotNormalizable("generators share a fixed point (elementary pair)")
    return p


# ---------------------------------------------------------------------------
# Certified sampling.
# ---------------------------------------------------------------------------

def schottky_sample(seed: int, m: int = 2) -> SurfaceRep:
    """Discrete free rank-m group from disjoint isometric-circle pairs.

    Generator k maps the outside of one disk onto the inside of its partner.
    A draw is kept when the certificate derived from the generators' own
    isometric circles exists: all 2m disks pairwise disjoint.  Centres lie
    in [-w, w], w = 4 up to rank 4 and 1.5 m above, so that high ranks fit.
    m < 2 raises ValueError; 64 draws without a certificate, SamplingFailed.
    """
    sg.Presentation.free(m)  # the rank check, before the rng is touched
    w = 4.0 if m <= 4 else 1.5 * m
    rng = random.Random(seed)
    for _ in range(64):
        centers, radii = [], []
        for _ in range(2 * m):
            for _try in range(200):
                x = rng.uniform(-w, w)
                r = rng.uniform(0.25, 0.6)
                if all(abs(x - y) > (r + s) * 1.15 for y, s in zip(centers, radii)):
                    centers.append(x)
                    radii.append(r)
                    break
            else:
                break
        if len(centers) < 2 * m:
            continue
        mats = []
        for k in range(m):
            p, q = centers[2 * k], centers[2 * k + 1]
            r1, r2 = radii[2 * k], radii[2 * k + 1]
            r = math.sqrt(r1 * r2)
            # isometric circles at p (radius r) and q (radius r), det 1
            c = 1.0 / r
            a = q * c
            d = -p * c
            b = (a * d - 1.0) / c
            mats.append(Mat2(a, b, c, d).psl_normalized())
        rep = SurfaceRep.free_rep(mats)
        if rep.validity.discreteness_certificate is not None:
            return rep
    raise SamplingFailed("no disjoint disk configuration after 64 tries")


def punctured_torus_sample(seed: int) -> SurfaceRep:
    """Normalized punctured-torus point: generator traces (x, y, z) with
    x^2 + y^2 + z^2 = xyz, which makes the commutator parabolic (trace -2).

    The representation comes out already in Fricke normal form: the first
    generator diagonal with attracting point at infinity, the second fixing 1.

    One draw suffices.  For x, y in [3, 5] the discriminant
    (x^2 - 4)(y^2 - 4) - 16 is at least 9.  c1 = 0 would make beta fix
    infinity as alpha does, and such an elementary pair has commutator
    trace 2, not -2.  And a1 + b1 = c1 + d1 = (y + sqrt(y^2 - 4)) / 2 > 2.6.
    Only rounding is left to check: det 1, tr gamma = 2 and validity, and a
    draw that fails them raises SamplingFailed.
    """
    rng = random.Random(seed)
    x = rng.uniform(3.0, 5.0)
    y = rng.uniform(3.0, 5.0)
    disc = x * x * y * y - 4.0 * (x * x + y * y)
    z = (x * y + math.sqrt(disc)) / 2.0
    lam = (x + math.sqrt(x * x - 4.0)) / 2.0
    alpha = Mat2(lam, 0.0, 0.0, 1.0 / lam)
    # beta: trace y, fixed point at 1 (a1 + b1 = c1 + d1), tr(alpha beta) = z
    a1 = (lam * z - y) / (lam * lam - 1.0)
    d1 = y - a1
    # c1^2 + (d1 - a1) c1 - (a1 d1 - 1) = 0
    disc2 = y * y - 4.0
    c1 = ((a1 - d1) + math.sqrt(disc2)) / 2.0
    b1 = c1 + d1 - a1
    beta = Mat2(a1, b1, c1, d1)
    comm = alpha * beta * alpha.inverse() * beta.inverse()
    gamma = -comm.inverse()
    rep = SurfaceRep(sg.Presentation(genus=1, punctures=1), (alpha, beta, gamma))
    if (
        abs(float(beta.det()) - 1.0) > 1e-9
        or abs(float(gamma.tr()) - 2.0) > 1e-8
        or not rep.validity.valid
    ):
        raise SamplingFailed(f"punctured-torus draw at seed {seed} fails a rounding check")
    return rep


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

# 17 significant digits, enough to read back the same double: the one
# number format of rep files, spectrum rows and patterns
FLOAT_SPEC = ".17g"


def float_text(x) -> str:
    """x as a float in the FLOAT_SPEC format."""
    return f"{float(x):{FLOAT_SPEC}}"


def rep_to_json(rep: SurfaceRep) -> str:
    doc = {
        "genus": rep.presentation.genus,
        "punctures": rep.presentation.punctures,
        "matrices": [[float_text(x) for x in m.entries()] for m in rep.matrices],
        "validity": rep.validity.as_dict(),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def rep_from_json(text: str) -> SurfaceRep:
    """Read a rep file; its validity is derived from the matrices, and a
    stored `validity` block is ignored."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise FrickeError("a rep file must hold a JSON object")
    for field in ("genus", "punctures"):
        if type(doc.get(field)) is not int or doc[field] < 0:
            raise FrickeError(f"{field!r} must be a non-negative integer, got {doc.get(field)!r}")
    pres = sg.Presentation(genus=doc["genus"], punctures=doc["punctures"])
    rows = doc.get("matrices")
    if not isinstance(rows, list) or len(rows) != pres.num_generators:
        raise FrickeError(
            f"expected a list of {pres.num_generators} matrices for (g,n)=({pres.genus},{pres.punctures})"
        )
    if not all(isinstance(row, list) and len(row) == 4 for row in rows):
        raise FrickeError("every matrix needs a list of 4 entries a, b, c, d")
    if any(type(v) is bool for row in rows for v in row):
        raise FrickeError("matrix entries must be numbers, not true or false")
    try:
        mats = tuple(Mat2(*(float(v) for v in row)) for row in rows)
    except (TypeError, ValueError, OverflowError):
        raise FrickeError("matrix entries must be numbers") from None
    _check_unit_det(mats)
    return SurfaceRep(pres, mats)

