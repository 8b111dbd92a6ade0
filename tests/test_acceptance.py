"""End-to-end acceptance gate.

Each test records one PASS/FAIL line (see conftest) and asserts the
criterion.  Randomized pieces are fully seeded; exact-arithmetic pieces
require zero defect, numeric pieces use the tolerances stated inline.
"""

import math
import os
import random
import subprocess
import sys

from conftest import pattern_blocks
from speclab import boundary, characters as ch
from speclab.fricke import (
    fricke_from_rep,
    punctured_torus_sample,
    rep_from_fricke,
    schottky_sample,
)
from speclab.mobius import IsometryClass, Mat2, classify, fixed_points
from speclab.spectrum import (
    modular_torus_rep,
    pattern,
    scan_generic,
    spectrum,
)
import speclab.surface_group as sg


def _rand_word(rng, m, length):
    letters = [k for k in range(1, m + 1)] + [-k for k in range(1, m + 1)]
    w = []
    while len(w) < length:
        x = rng.choice(letters)
        if w and w[-1] == -x:
            continue
        w.append(x)
    return tuple(w)


def test_a1_horowitz_soundness(acceptance):
    """Character polynomials reproduce traces exactly over integer reps.

    Exhaustive over conjugacy classes to length 8 (rank 2) / length 5
    (rank 3) against 200 integer representations each, plus 200 seeded
    random words of length 9-10 per rank against 50 representations.
    Zero defect required (exact integer arithmetic throughout).
    """
    rng = random.Random(20260824)
    defects = 0
    checked = 0
    for m, maxlen, n_rand in ((2, 8, 200), (3, 5, 200)):
        pres = sg.Presentation(genus=1, punctures=m - 1)
        classes = sg.enumerate_classes(pres, maxlen)
        polys = [ch.trace_poly(k.word, m) for k in classes]
        reps = [ch.random_exact_rep(m, rng) for _ in range(200)]
        for rep in reps:
            cv = ch.character_values(rep, m)
            for k, p in zip(classes, polys):
                if p.evaluate(cv) != sg.evaluate(k.word, rep).tr():
                    defects += 1
                checked += 1
        words = [_rand_word(rng, m, rng.randint(9, 10)) for _ in range(n_rand)]
        rand_polys = [ch.trace_poly(w, m) for w in words]
        for rep in reps[:50]:
            cv = ch.character_values(rep, m)
            for w, p in zip(words, rand_polys):
                if p.evaluate(cv) != sg.evaluate(w, rep).tr():
                    defects += 1
                checked += 1
    passed = defects == 0
    acceptance("A1", "Horowitz soundness (exact, zero defect)", passed,
               f"{checked} word/rep evaluations, {defects} defects")
    assert passed


def test_a2_fricke_reconstruction(acceptance):
    worst_relator = 0.0
    worst_trace = 0.0
    n = 50
    for seed in range(n):
        rep = punctured_torus_sample(seed)
        v = fricke_from_rep(rep)
        rebuilt = rep_from_fricke(v)
        worst_relator = max(worst_relator, rebuilt.validity.relator_defect)
        for k in range(1, rep.presentation.num_generators + 1):
            worst_trace = max(
                worst_trace,
                abs(abs(float(rep.matrix(k).tr())) - abs(float(rebuilt.matrix(k).tr()))),
            )
    passed = worst_relator < 1e-8 and worst_trace < 1e-7
    acceptance("A2", "Fricke coordinate reconstruction (50 samples)", passed,
               f"relator defect {worst_relator:.2e}, trace mismatch {worst_trace:.2e}")
    assert passed


def test_a3_length_cocycle_bridge(acceptance):
    worst = 0.0
    count = 0
    for seed in range(5):
        rep = schottky_sample(seed, 2)
        rng = random.Random(1000 + seed)
        done = 0
        while done < 50:
            w = _rand_word(rng, 2, rng.randint(1, 5))
            g = sg.evaluate(w, rep)
            if classify(g) is not IsometryClass.HYPERBOLIC:
                continue
            gp, _ = fixed_points(g)
            l_trace = 2.0 * math.acosh(abs(float(g.tr())) / 2.0)
            worst = max(worst, abs(boundary.busemann(g, gp) - l_trace))
            done += 1
            count += 1
    passed = worst < 1e-8
    acceptance("A3", "length/cocycle bridge B(g, g+) = 2 arccosh(|tr|/2)", passed,
               f"{count} words, max defect {worst:.2e}")
    assert passed


def test_a4_cocycle_identity_suite(acceptance):
    rep = schottky_sample(7, 2)
    reports = boundary.run_all_checks(rep, seed=7, samples=1000)
    worst = max(r.max_defect for r in reports)
    enough = all(r.samples >= 1000 for r in reports)
    passed = worst < 1e-7 and enough and all(r.passed for r in reports)
    detail = ", ".join(f"{r.check}={r.max_defect:.1e}" for r in reports)
    acceptance("A4", "B-cocycle identity suite (>=1000 samples each)", passed, detail)
    assert passed, detail


def test_a5_pullback_theorem_witness(acceptance):
    rep = schottky_sample(13, 2)
    base = spectrum(rep, 6)
    rng = random.Random(5)
    worst_spec = 0.0
    worst_cob = 0.0
    for _ in range(20):
        h = Mat2(1, rng.uniform(-1, 1), 0, 1) * Mat2(1, 0, rng.uniform(-1, 1), 1)
        conj = rep.conjugated(h)
        other = spectrum(conj, 6)
        worst_spec = max(
            worst_spec,
            max(abs(a - b) for a, b in zip(base.lengths, other.lengths)),
        )
        beta = boundary.pullback_cocycle(h)
        phi = boundary.pullback_potential(h, _bp(2.0), _bp(4.5))
        for _ in range(200):
            g = rep.matrix(rng.randint(1, 2))
            xi = _bp(rng.uniform(0, 2 * math.pi))
            lhs = beta(g, xi) - boundary.busemann(g, xi)
            rhs = phi(_act(g, xi)) - phi(xi)
            worst_cob = max(worst_cob, abs(lhs - rhs))
    passed = worst_spec < 1e-8 and worst_cob < 1e-7
    acceptance("A5", "pullback cocycles: equal spectra + exact potential", passed,
               f"spectrum defect {worst_spec:.2e}, coboundary defect {worst_cob:.2e}")
    assert passed


def _bp(theta):
    from speclab.mobius import BoundaryPoint

    return BoundaryPoint.from_angle(theta)


def _act(g, xi):
    from speclab.mobius import act

    return act(g, xi)


def test_a6_genericity_experiment(acceptance):
    recs = list(scan_generic(20260824, 100, maxlen=6, m=2))
    assert len(recs) == 100
    sub_ok = all(not r["violations"] for r in recs)
    collapsed = sum(1 for r in recs if r["collapsed"])
    passed = sub_ok and collapsed >= 95
    acceptance("A6", "genericity: R_min sub-relation always, equality >= 95/100", passed,
               f"violations in {sum(bool(r['violations']) for r in recs)} trials, "
               f"collapsed {collapsed}/100")
    assert passed


def test_a7_arithmetic_point_contrast(acceptance):
    rep = modular_torus_rep()
    s = spectrum(rep, 2)
    p = pattern(s)
    where = dict(zip(p.classes, p.labels))
    found = None
    for block in pattern_blocks(p):
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                v = ch.rmin_test(block[i].word, block[j].word, 2, seed=0)
                if v.kind == ch.RminVerdict.DISTINCT:
                    found = (block[i], block[j])
                    break
            if found:
                break
        if found:
            break
    passed = found is not None
    detail = f"pair {found[0]}/{found[1]}" if found else "no pair found"
    acceptance("A7", "arithmetic point: equal length but Distinct in R_min", passed, detail)
    assert passed


def test_a8_determinism(acceptance):
    env = dict(os.environ)

    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "speclab.cli", *args],
            capture_output=True,
            env=env,
        )

    commands = [
        ["sample", "--seed", "77"],
        ["spectrum", "--seed", "77", "--maxlen", "3"],
        ["scan", "--seed", "77", "--trials", "3", "--maxlen", "3"],
        ["cocycle-verify", "--seed", "77", "--samples", "100"],
    ]
    stable = True
    for args in commands:
        r1, r2 = run(args), run(args)
        if r1.returncode != r2.returncode or r1.stdout != r2.stdout:
            stable = False
            break
    acceptance("A8", "seeded commands byte-identical on rerun", stable,
               f"{len(commands)} commands x 2 runs")
    assert stable
