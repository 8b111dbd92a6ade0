import math
import random
from fractions import Fraction

import pytest

from speclab.mobius import (
    CAYLEY_BOTTOM,
    CAYLEY_TOP,
    EPS,
    EllipticElement,
    BoundaryPoint,
    IsometryClass,
    Mat2,
    NotHyperbolic,
    act,
    boundary_derivative,
    classify,
    disk_matrix,
    disk_row,
    fixed_points,
    identity,
    translation_length,
)
from speclab.spectrum import modular_torus_rep


def _power(m: Mat2, n: int) -> Mat2:
    """m^n for n >= 0, as n products from the identity."""
    out = identity()
    for _ in range(n):
        out = out * m
    return out


def _act_real(m: Mat2, x):
    """Action on the extended real line (half-plane boundary)."""
    a, b, c, d = (float(v) for v in m.entries())
    if x == math.inf:
        return math.inf if c == 0.0 else a / c
    den = c * x + d
    if den == 0.0:
        return math.inf
    return (a * x + b) / den


def test_classify_identity():
    assert classify(identity()) is IsometryClass.IDENTITY


def test_classify_basic():
    assert classify(Mat2(2, 0, 0, 0.5)) is IsometryClass.HYPERBOLIC
    assert classify(Mat2(1, 1, 0, 1)) is IsometryClass.PARABOLIC
    assert classify(Mat2(0, -1, 1, 0)) is IsometryClass.ELLIPTIC
    assert classify(-identity()) is IsometryClass.IDENTITY


def test_mat2_algebra():
    a = Mat2(2, 1, 1, 1)
    b = Mat2(1, 1, 0, 1)
    assert (a * b).det() == a.det() * b.det() == 1
    assert a * a.inverse() == identity()
    assert _power(a, 3) == a * a * a
    assert a.tr() == 3


def test_exact_entries():
    assert Mat2(1, 1, 0, 1).exact()
    assert Mat2(True, False, False, True).exact()
    assert Mat2(Fraction(1, 2), Fraction(0), Fraction(0), Fraction(2)).exact()
    assert Mat2(Fraction(1, 2), 0, 3, 2).exact()
    assert not Mat2(2.0, 0.0, 0.0, 0.5).exact()
    assert not Mat2(2.0, 0, 0, 1).exact()
    assert not Mat2(1, 1, 0.0, 1).exact()


def test_composition_associativity():
    rng = random.Random(1)
    worst = 0.0
    for _ in range(100):
        ms = []
        for _ in range(3):
            t = rng.uniform(-1, 1)
            ms.append(Mat2(1, t, 0, 1) * Mat2(1, 0, rng.uniform(-1, 1), 1))
        m1, m2, m3 = ms
        lhs = (m1 * m2) * m3
        rhs = m1 * (m2 * m3)
        worst = max(worst, lhs.max_diff(rhs))
    assert worst < 1e-9


def test_fixed_points_diagonal():
    att, rep = fixed_points(Mat2(2, 0, 0, 0.5))
    assert att.to_real() == math.inf
    assert abs(rep.to_real()) < 1e-12


def test_fixed_points_golden_ratio():
    m = Mat2(2, 1, 1, 1)
    att, rep = fixed_points(m)
    phi = (1 + math.sqrt(5)) / 2
    assert abs(att.to_real() - phi) < 1e-12
    # independent oracle: iterate the action from 0.3 until convergence
    x = 0.3
    for _ in range(200):
        x = _act_real(m, x)
    assert abs(x - phi) < 1e-10


def test_fixed_points_requires_hyperbolic():
    with pytest.raises(NotHyperbolic):
        fixed_points(Mat2(1, 1, 0, 1))


def test_fixed_points_high_powers():
    # attracting/repelling selection must survive entries ~1e20
    m = Mat2(2, 1, 1, 1)
    att, rep = fixed_points(m)
    for n in (5, 20, 40):
        a_n, r_n = fixed_points(_power(m, n))
        assert a_n.angle_dist(att) < 1e-9
        assert r_n.angle_dist(rep) < 1e-9


def test_fixed_points_conjugation_equivariance():
    rng = random.Random(3)
    m = Mat2(3, 1, 1, 1)
    for _ in range(20):
        h = Mat2(1, rng.uniform(-1, 1), 0, 1) * Mat2(1, 0, rng.uniform(-1, 1), 1)
        att, rep = fixed_points(m)
        att_c, rep_c = fixed_points(h * m * h.inverse())
        assert att_c.angle_dist(act(h, att)) < 1e-9
        assert rep_c.angle_dist(act(h, rep)) < 1e-9


def test_translation_length_values():
    assert abs(translation_length(Mat2(2, 0, 0, 0.5)) - 2 * math.log(2)) < 1e-12
    assert translation_length(Mat2(1, 1, 0, 1)) == 0.0
    assert abs(translation_length(Mat2(2, 1, 1, 1)) - 2 * math.acosh(1.5)) < 1e-15
    with pytest.raises(EllipticElement):
        translation_length(Mat2(0, -1, 1, 0))


def test_translation_length_of_powers():
    m = Mat2(3, 2, 1, 1)
    l1 = translation_length(m)
    for n in (2, 3, 5):
        assert abs(translation_length(_power(m, n)) - n * l1) < 1e-9


def test_cached_disk_matrix_is_the_disk_matrix_formula():
    rng = random.Random(5)
    for _ in range(20):
        a, b, c = (rng.uniform(-3, 3) for _ in range(3))
        a = a if abs(a) > 0.1 else 1.0
        m = Mat2(a, b, c, (1 + b * c) / a)
        act(m, BoundaryPoint(0.5))  # fills the cache
        assert "disk" in vars(m)
        assert m.disk == disk_matrix(Mat2(*m.entries()))
    exact = Mat2(Fraction(3, 2), 1, Fraction(1, 2), 1)
    assert exact.disk == disk_matrix(Mat2(*exact.entries()))
    assert exact == Mat2(*exact.entries())  # the cache is not part of equality


def _disk_matrix_in_full(m):
    """C M C^-1 written out entry by entry, with C the det-1 Cayley matrix
    (z - i)/(z + i) scaled by 1/(1+i): the reference for `disk_row` and
    `disk_matrix`."""
    ca, cb, cc, cd = 1.0 / (1.0 + 1.0j), -1.0j / (1.0 + 1.0j), 1.0 / (1.0 + 1.0j), 1.0j / (1.0 + 1.0j)
    a, b, c, d = (float(x) for x in m.entries())
    pa, pb = ca * a + cb * c, ca * b + cb * d
    pc, pd = cc * a + cd * c, cc * b + cd * d
    return (
        pa * cd + pb * (-cc),
        pa * (-cb) + pb * ca,
        pc * cd + pd * (-cc),
        pc * (-cb) + pd * ca,
    )


def test_disk_rows_are_the_disk_matrix_bit_for_bit():
    rng = random.Random(36)
    floats = []
    for _ in range(20):
        a, b, c = (rng.uniform(-3, 3) for _ in range(3))
        a = a if abs(a) > 0.1 else 1.0
        floats.append(Mat2(a, b, c, (1 + b * c) / a))
    torus = modular_torus_rep()
    ints = [torus.matrix(1), torus.matrix(2), torus.matrix(1).inverse(), Mat2(3, 2, 1, 1)]
    fractions = [Mat2(Fraction(3, 2), 1, Fraction(1, 2), 1), Mat2(*map(Fraction, (2, 3, 1, 2)))]
    mats = floats + ints + fractions
    # products too, as the cocycle suite forms them: exact entries stay
    # exact until the row reads them as floats
    mats += [x * y for x in mats for y in mats[-6:]]
    for m in mats:
        a, b, c, d = float(m.a), float(m.b), float(m.c), float(m.d)
        want = _disk_matrix_in_full(m)
        assert disk_matrix(m) == want
        assert disk_row(CAYLEY_TOP, a, b, c, d) == want[:2]
        assert disk_row(CAYLEY_BOTTOM, a, b, c, d) == want[2:]


def test_boundary_derivative_identity():
    xi = BoundaryPoint.from_angle(0.7)
    assert abs(boundary_derivative(identity(), xi) - 1.0) < 1e-15


def test_boundary_derivative_at_attracting_point():
    m = Mat2(3, 2, 1, 1)
    att, _ = fixed_points(m)
    assert abs(boundary_derivative(m, att) - math.exp(-translation_length(m))) < 1e-12


def test_boundary_derivative_finite_difference():
    # |gamma'(xi)| should match the derivative of the induced circle map
    m = Mat2(3, 2, 1, 1)
    h = 1e-6
    for theta in (0.3, 1.1, 2.9, 4.0, 5.5):
        a0 = act(m, BoundaryPoint.from_angle(theta - h))
        a1 = act(m, BoundaryPoint.from_angle(theta + h))
        dtheta = a0.angle_dist(a1) / (2 * h)
        assert abs(dtheta - boundary_derivative(m, BoundaryPoint.from_angle(theta))) < 1e-5


def test_chain_rule():
    rng = random.Random(5)
    worst = 0.0
    for _ in range(100):
        m1 = Mat2(1, rng.uniform(-1, 1), 0, 1) * Mat2(1, 0, rng.uniform(-1, 1), 1)
        m2 = Mat2(1, rng.uniform(-1, 1), 0, 1) * Mat2(1, 0, rng.uniform(-1, 1), 1)
        xi = BoundaryPoint.from_angle(rng.uniform(0, 2 * math.pi))
        lhs = boundary_derivative(m1 * m2, xi)
        rhs = boundary_derivative(m1, act(m2, xi)) * boundary_derivative(m2, xi)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-8


def test_act_is_bijective_on_samples():
    m = Mat2(2, 1, 1, 1)
    for theta in (0.0, 1.0, 2.0, 3.0, 4.5, 6.0):
        xi = BoundaryPoint.from_angle(theta)
        back = act(m.inverse(), act(m, xi))
        assert back.angle_dist(xi) < 1e-12


def _reference_classify(m):
    """The former classify, which tested for +-I before reading the trace."""
    t = m.tr()
    if m.exact():
        if m in (identity(), -identity()):
            return IsometryClass.IDENTITY
        at = abs(t)
        if at > 2:
            return IsometryClass.HYPERBOLIC
        if at == 2:
            return IsometryClass.PARABOLIC
        return IsometryClass.ELLIPTIC
    if m.dist_to_pm_identity() <= EPS:
        return IsometryClass.IDENTITY
    at = abs(float(t))
    if at > 2 + EPS:
        return IsometryClass.HYPERBOLIC
    if at >= 2 - EPS:
        return IsometryClass.PARABOLIC
    return IsometryClass.ELLIPTIC


def _signed_log_uniform(rng, lo, hi):
    return rng.choice((-1, 1)) * 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def _elementary_product(rng, n, draw):
    m = identity()
    for _ in range(n):
        if rng.random() < 0.5:
            m = m * Mat2(1, draw(), 0, 1)
        else:
            m = m * Mat2(1, 0, draw(), 1)
    return m


def _det_one_float_families(rng):
    """Seeded det-1 float matrices: near +-I, parabolic conjugates, |tr| - 2
    between +-1e-12 and +-1e-6, and generic products."""
    # within 1e-12 .. 1e-6 of I, with d solving ad - bc = 1
    x, b, c = (_signed_log_uniform(rng, 1e-12, 1e-6) for _ in range(3))
    yield Mat2(1 + x, b, c, (1 + b * c) / (1 + x))
    h = _elementary_product(rng, 3, lambda: rng.uniform(-2, 2))
    yield h * Mat2(1, _signed_log_uniform(rng, 1e-12, 1.0), 0, 1) * h.inverse()
    # trace 2 + delta: a + d = 2 + delta, b free, c from the determinant
    delta = _signed_log_uniform(rng, 1e-12, 1e-6)
    s = rng.uniform(-1, 1)
    a, d = 1 + delta / 2 + s, 1 + delta / 2 - s
    b = rng.choice((-1, 1)) * rng.uniform(0.1, 2)
    yield Mat2(a, b, (a * d - 1) / b, d)
    yield _elementary_product(rng, rng.randint(1, 6), lambda: rng.uniform(-2, 2))


def test_classify_trace_first_matches_reference_on_floats():
    rng = random.Random(2024)
    seen = set()
    for _ in range(5000):
        for m in _det_one_float_families(rng):
            for mm in (m, -m):
                cls = classify(mm)
                assert cls is _reference_classify(mm), mm
                seen.add(cls)
    assert seen == set(IsometryClass)


def test_classify_trace_first_matches_reference_on_exact():
    rng = random.Random(7)
    cases = [
        identity(),
        -identity(),
        Mat2(1, 1, 0, 1),
        Mat2(-1, 1, 0, -1),
        Mat2(3, -4, 1, -1),  # trace exactly 2, not +-I
        Mat2(Fraction(1), Fraction(0), Fraction(0), Fraction(1)),
        Mat2(Fraction(1, 2), Fraction(-1, 4), Fraction(1), Fraction(3, 2)),  # trace 2
    ]
    for _ in range(3000):
        cases.append(
            _elementary_product(rng, rng.randint(0, 5), lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        )
    seen = set()
    for m in cases:
        for mm in (m, -m):
            assert mm.det() == 1
            cls = classify(mm)
            assert cls is _reference_classify(mm), mm
            seen.add(cls)
    assert seen == set(IsometryClass)


def test_classify_reads_entries_only_near_trace_two(monkeypatch):
    def unexpected(self):
        raise AssertionError("the +-I test ran away from |tr| = 2")

    monkeypatch.setattr(Mat2, "dist_to_pm_identity", unexpected)
    monkeypatch.setattr(Mat2, "max_diff", unexpected)
    assert classify(Mat2(2.0, 1.0, 1.0, 1.0)) is IsometryClass.HYPERBOLIC
    assert classify(Mat2(-2.0, 1.0, 1.0, -1.0)) is IsometryClass.HYPERBOLIC
    assert classify(Mat2(0.0, -1.0, 1.0, 0.0)) is IsometryClass.ELLIPTIC
    assert classify(Mat2(2, 1, 1, 1)) is IsometryClass.HYPERBOLIC
    assert classify(Mat2(1, 1, 0, 1)) is IsometryClass.PARABOLIC
