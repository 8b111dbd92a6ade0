import hashlib
import json
import random
from fractions import Fraction

import pytest

from speclab.fricke import (
    FrickeError,
    FrickeVector,
    NotInFrickeImage,
    SurfaceRep,
    fricke_from_rep,
    ping_pong_certificate,
    punctured_torus_sample,
    rep_from_fricke,
    rep_from_json,
    rep_to_json,
    schottky_sample,
)
from speclab.fricke import _first_pair, _puncture_matrix
from speclab.mobius import Mat2, classify, IsometryClass
from speclab.spectrum import modular_torus_rep
import speclab.surface_group as sg


def test_schottky_sample_is_valid():
    for seed in range(5):
        rep = schottky_sample(seed, 2)
        assert rep.validity.valid
        assert rep.validity.relator_defect < 1e-8
        assert rep.validity.discreteness_certificate is not None


@pytest.mark.parametrize("m", [5, 6, 8])
def test_schottky_sample_at_high_rank(m):
    for seed in range(20):
        rep = schottky_sample(seed, m)
        assert rep.presentation.free_rank == m
        assert rep.validity.discreteness_certificate is not None


def test_ping_pong_certificate_is_exact_for_integer_generators():
    # isometric circles of radius 1 at -3, 3 and -7, 7: disjoint
    cert = ping_pong_certificate([Mat2(3, 8, 1, 3), Mat2(7, 48, 1, 7)])
    assert cert == ((-3, 1, 3, 1), (-7, 1, 7, 1))
    assert all(type(x) is Fraction for row in cert for x in row)
    # circles at -5, 5 touch those at -3, 3: tangent is not disjoint
    assert ping_pong_certificate([Mat2(3, 8, 1, 3), Mat2(5, 24, 1, 5)]) is None
    # a generator with c = 0 has no isometric circle
    assert ping_pong_certificate([Mat2(2, 0, 0, Fraction(1, 2)), Mat2(7, 48, 1, 7)]) is None


def test_schottky_sample_deterministic():
    r1 = schottky_sample(42, 2)
    r2 = schottky_sample(42, 2)
    assert rep_to_json(r1) == rep_to_json(r2)


def test_schottky_generators_hyperbolic():
    rep = schottky_sample(3, 3)
    for k in range(1, rep.presentation.free_rank + 1):
        assert classify(rep.matrix(k)) is IsometryClass.HYPERBOLIC


def test_schottky_no_short_relation():
    # freeness at desk scale: no nontrivial word of length <= 6 lands near +-I
    rep = schottky_sample(1, 2)
    for key in sg.enumerate_classes(rep.presentation, 6):
        m = sg.evaluate(key.word, rep)
        assert m.dist_to_pm_identity() > 1e-6


def test_punctured_torus_sample_validity():
    for seed in range(5):
        rep = punctured_torus_sample(seed)
        assert rep.validity.valid
        assert rep.validity.punctures_parabolic
        gamma1 = rep.matrix(3)
        assert abs(abs(float(gamma1.tr())) - 2.0) < 1e-9
        commutator = sg.evaluate((1, 2, -1, -2), rep)
        assert abs(abs(float(commutator.tr())) - 2.0) < 1e-9


def test_punctured_torus_sample_golden():
    # every sampled rep, to the last printed digit, at seeds 0-49
    text = "\n".join(rep_to_json(punctured_torus_sample(s)) for s in range(50))
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "f8effa35e9b00a9617e40a980e3eacbdb812411e902023e5193aff0c90e6ad01"
    )


def test_fricke_from_rep_golden():
    # the coordinates read off the same reps, every float's repr
    text = "\n".join(repr(fricke_from_rep(punctured_torus_sample(s)).values) for s in range(50))
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "561e612e4786ab20eb1e06245f76685016f60de34ce5b46ac2c57acf91ca5e91"
    )


def test_fricke_vector_dimension():
    v = FrickeVector(genus=1, punctures=1, values=(2.0, 1.0))
    assert v.puncture(1) == (2.0, 1.0)
    with pytest.raises(FrickeError):
        FrickeVector(genus=1, punctures=1, values=(2.0,))


def test_fricke_vector_needs_a_puncture():
    values = (0.5, 1.0, 3.0, 2.0, 1.5, 1.0)  # a full genus-2 handle, no puncture
    with pytest.raises(FrickeError, match="puncture"):
        FrickeVector(2, 0, values)
    with pytest.raises(FrickeError, match="puncture"):
        rep_from_fricke(FrickeVector(2, 0, values))


def test_fricke_vector_needs_genus_one():
    with pytest.raises(FrickeError, match="genus"):
        FrickeVector(0, 3, ())
    with pytest.raises(FrickeError, match="genus"):
        FrickeVector(-1, 1, (2.0, 1.0))


def test_roundtrip_punctured_torus():
    worst_defect = 0.0
    worst_trace = 0.0
    for seed in range(10):
        rep = punctured_torus_sample(seed)
        v = fricke_from_rep(rep)
        rebuilt = rep_from_fricke(v)
        worst_defect = max(worst_defect, rebuilt.validity.relator_defect)
        # traces are conjugation invariants: must match generator-wise
        for k in range(1, 3):
            worst_trace = max(
                worst_trace,
                abs(abs(float(rep.matrix(k).tr())) - abs(float(rebuilt.matrix(k).tr()))),
            )
        # rebuilt puncture class is parabolic
        g1 = sg.evaluate((1, 2, -1, -2), rebuilt)
        assert abs(abs(float(g1.tr())) - 2.0) < 1e-7
    assert worst_defect < 1e-8
    assert worst_trace < 1e-7


def test_roundtrip_normalized_rep_generatorwise():
    # normalize once; the normalized rep must rebuild generator-by-generator
    rep = punctured_torus_sample(2)
    v = fricke_from_rep(rep)
    rebuilt = rep_from_fricke(v)
    v2 = fricke_from_rep(rebuilt)
    assert max(abs(x - y) for x, y in zip(v.values, v2.values)) < 1e-7
    rebuilt2 = rep_from_fricke(v2)
    for k in range(1, 3):
        assert rebuilt.matrix(k).max_diff(rebuilt2.matrix(k)) < 1e-7


def test_fricke_conjugation_invariance():
    rep = punctured_torus_sample(4)
    v = fricke_from_rep(rep)
    rng = random.Random(9)
    for _ in range(5):
        h = Mat2(1, rng.uniform(-1, 1), 0, 1) * Mat2(1, 0, rng.uniform(-1, 1), 1)
        vc = fricke_from_rep(rep.conjugated(h))
        assert max(abs(x - y) for x, y in zip(v.values, vc.values)) < 1e-7


def test_rep_json_roundtrip():
    rep = schottky_sample(6, 2)
    text = rep_to_json(rep)
    back = rep_from_json(text)
    assert rep_to_json(back) == text
    for k in range(1, rep.presentation.num_generators + 1):
        assert rep.matrix(k).max_diff(back.matrix(k)) == 0.0


def test_sampled_reps_survive_json_roundtrip():
    # printed entries lose absolute accuracy in ad and bc, not relative
    for m in (2, 3, 4):
        for seed in range(20):
            rep = schottky_sample(seed, m)
            back = rep_from_json(rep_to_json(rep))
            assert back.presentation == rep.presentation
            # the certificate is derived again on load, from the same matrices
            cert = back.validity.discreteness_certificate
            assert cert is not None and cert == rep.validity.discreteness_certificate


def test_rep_from_json_rejects_boolean_entries():
    # float(True) is 1.0, so without the check an all-boolean file loads as
    # identity matrices, every trace 2
    doc = {"genus": 1, "punctures": 1, "matrices": [[True, False, False, True]] * 3}
    with pytest.raises(FrickeError, match="not true or false"):
        rep_from_json(json.dumps(doc))


# each entry as it is written in the file: strings, and the JSON number 1e400
@pytest.mark.parametrize("entry", ['"1e400"', '"inf"', '"-inf"', "1e400", '"nan"'])
def test_rep_from_json_rejects_non_finite_entries(entry):
    # an infinite entry made the relative det bound infinite, so it passed
    text = '{"genus": 1, "punctures": 1, "matrices": [[%s, 0, 0, 1], [2, 0, 0, 0.5], [2, 0, 0, 0.5]]}'
    with pytest.raises(FrickeError, match="matrix 1 has an entry that is not finite"):
        rep_from_json(text % entry)


@pytest.mark.parametrize("entry", [float("inf"), float("-inf"), float("nan")])
def test_free_rep_rejects_non_finite_entries(entry):
    mats = [Mat2(2, 1, 1, 1), Mat2(1, 1, entry, 2)]
    with pytest.raises(FrickeError, match="matrix 2 has an entry that is not finite"):
        SurfaceRep.free_rep(mats)


def test_forged_certificate_is_not_trusted():
    # the modular torus's isometric circles overlap: no certificate exists
    doc = json.loads(rep_to_json(modular_torus_rep()))
    doc["validity"]["discreteness_certificate"] = [[-10, 1, 10, 1], [-20, 1, 20, 1]]
    assert rep_from_json(json.dumps(doc)).validity.discreteness_certificate is None


def test_conjugated_rep_derives_its_certificate():
    rep = schottky_sample(6, 2)
    conj = rep.conjugated(Mat2(1, 0.5, 0, 1))
    cert = conj.validity.discreteness_certificate
    assert cert == ping_pong_certificate(conj.matrices[: conj.presentation.free_rank])
    # conjugating by z -> z + 1/2 moves every isometric circle by 1/2
    for row, moved in zip(rep.validity.discreteness_certificate, cert):
        assert max(abs(y - x - t) for x, y, t in zip(row, moved, (0.5, 0, 0.5, 0))) < 1e-9
    assert conj.validity.valid


def _seeded_vectors(g, n):
    rng = random.Random(3)
    for _ in range(1000):
        values = []
        for _ in range(g - 1):
            for _ in range(2):
                values += [rng.uniform(-3, 3), rng.uniform(0.2, 3), rng.uniform(-3, 3)]
        for _ in range(n):
            values += [rng.uniform(-3, 3), rng.uniform(-3, 3)]
        yield FrickeVector(g, n, tuple(values))


@pytest.mark.parametrize("g,n", [(1, 1), (1, 2), (2, 1)])
def test_rep_from_fricke_accepts_only_its_normal_form(g, n):
    # a vector is either rebuilt in the chart's normal form, which
    # fricke_from_rep reads back, or rejected
    accepted = 0
    for v in _seeded_vectors(g, n):
        try:
            rep = rep_from_fricke(v)
        except NotInFrickeImage:
            continue
        back = fricke_from_rep(rep)
        assert max(abs(x - y) for x, y in zip(v.values, back.values)) < 1e-7
        accepted += 1
    assert accepted >= 10


def test_fricke_from_rep_reads_a_negated_rep_alike():
    # -M and M are one Mobius map: the chart flips c_i < 0 on handles and
    # tr gamma_j < 0 on punctures, so a rep with every matrix negated reads
    # back to the very same floats
    accepted = 0
    for v in _seeded_vectors(2, 2):
        try:
            rep = rep_from_fricke(v)
        except NotInFrickeImage:
            continue
        negated = SurfaceRep(rep.presentation, tuple(-m for m in rep.matrices))
        assert fricke_from_rep(negated).values == fricke_from_rep(rep).values
        accepted += 1
    assert accepted == 15


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("c", [0.0, -1.5])
def test_fricke_vector_rejects_a_handle_with_c_not_positive(k, c):
    # the handle (a, c, d, a', c', d'): c at index 1, c' at index 4
    values = [0.5, 1.0, 3.0, 2.0, 1.5, 1.0, 0.5, 2.0]
    values[k] = c
    with pytest.raises(FrickeError, match="c_i > 0"):
        FrickeVector(2, 1, tuple(values))


def test_fricke_vector_rejects_a_puncture_with_g_zero():
    with pytest.raises(FrickeError, match="g_j != 0"):
        FrickeVector(1, 2, (2.0, 1.0, 0.5, 0.0))


def _normal_form_branches(v):
    """The reps of a genus-1 vector on each sign branch of its first pair
    that is in normal form, built by hand."""
    punct = [_puncture_matrix(*v.puncture(j)) for j in range(1, v.punctures + 1)]
    partial = Mat2(1, 0, 0, 1)
    for m in punct:
        partial = partial * m
    a, b, c, d = partial.inverse().entries()
    reps = []
    for sign in (1.0, -1.0):
        try:
            alpha1, beta1 = _first_pair(sign * a, sign * b, sign * c, sign * d)
        except FrickeError:
            continue
        if alpha1.a > 1.0 and abs(beta1.c + beta1.d) > 1.0:
            mats = tuple(m.to_float() for m in [alpha1, beta1] + punct)
            reps.append(SurfaceRep(sg.Presentation(1, v.punctures), mats))
    return reps


def test_rep_from_fricke_keeps_the_branch_with_negative_commutator_trace():
    # where both sign branches are in normal form, the rep with
    # tr[alpha_1, beta_1] < 0 comes back from rep -> vector -> rep
    both = 0
    for v in _seeded_vectors(1, 2):
        branches = _normal_form_branches(v)
        if len(branches) < 2:
            continue
        both += 1
        rep = min(branches, key=lambda r: float(sg.evaluate((1, 2, -1, -2), r).tr()))
        assert float(sg.evaluate((1, 2, -1, -2), rep).tr()) < 0
        back = rep_from_fricke(fricke_from_rep(rep))
        assert max(x.max_diff(y) for x, y in zip(rep.matrices, back.matrices)) < 1e-9
    assert both == 4


def test_free_rep_wraps_free_generators():
    mats = [Mat2(2, 1, 1, 1), Mat2(1, 1, 1, 2)]
    rep = SurfaceRep.free_rep(mats)
    assert rep.presentation.free_rank == 2
    assert rep.matrix(1) == mats[0]
    # the final generator closes the relator
    rel = sg.relator(rep.presentation)
    assert sg.evaluate(rel, rep).dist_to_pm_identity() < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_free_rep_rejects_det_not_one(k):
    # integer generators, one of them of det 2
    mats = [Mat2(2, 1, 1, 1), Mat2(1, 1, 1, 2)]
    mats[k - 1] = Mat2(2, 2, 1, 2)
    with pytest.raises(FrickeError, match=f"matrix {k} has det 2, not 1"):
        SurfaceRep.free_rep(mats)


def test_digest_stable_and_sensitive():
    r1 = schottky_sample(10, 2)
    r2 = schottky_sample(10, 2)
    r3 = schottky_sample(11, 2)
    assert r1.digest() == r2.digest()
    assert r1.digest() != r3.digest()
