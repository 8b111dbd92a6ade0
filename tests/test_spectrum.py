import functools
import math
import random
import sys
from fractions import Fraction

import pytest

from conftest import pattern_blocks
from speclab.fricke import SamplingFailed, punctured_torus_sample, schottky_sample
from speclab.spectrum import (
    ClassSetMismatch,
    EllipticClassFound,
    LengthSpectrum,
    Pattern,
    SpectrumError,
    modular_torus_rep,
    pattern,
    rmin_pattern,
    scan_generic,
    spectrum,
    subrelation,
)
from speclab.characters import RminVerdict, random_exact_rep, rmin_test
import speclab.surface_group as sg
from speclab.fricke import SurfaceRep
from speclab.mobius import EPS, IsometryClass, Mat2, classify, translation_length

F2 = sg.Presentation(genus=1, punctures=1)


def _toy_spectrum(named_lengths):
    keys = tuple(sg.canonical_class(w) for w, _ in named_lengths)
    lengths = tuple(l for _, l in named_lengths)
    traces = tuple(2 * math.cosh(l / 2) for l in lengths)
    return LengthSpectrum(keys, traces, lengths, "toy", False)


def test_pattern_toy_blocks():
    s = _toy_spectrum([((1,), 1.0), ((2,), 1.0), ((1, 2), 2.0)])
    p = pattern(s)
    blocks = {frozenset(str(k) for k in b) for b in pattern_blocks(p)}
    assert blocks == {frozenset({"a", "b"}), frozenset({"ab"})}


def test_pattern_all_distinct_singletons():
    s = _toy_spectrum([((1,), 1.0), ((2,), 1.5), ((1, 2), 2.0)])
    p = pattern(s)
    assert all(len(b) == 1 for b in pattern_blocks(p))


def test_spectrum_inverse_classes_equal_length():
    rep = schottky_sample(2, 2)
    s = spectrum(rep, 3)
    by_key = {k: l for k, l in zip(s.classes, s.lengths)}
    for k in s.classes:
        ki = sg.canonical_class(sg.invert(k.word))
        assert abs(by_key[k] - by_key[ki]) < 1e-12


def test_spectrum_parabolic_class_zero_length():
    rep = punctured_torus_sample(0)
    s = spectrum(rep, 4)
    by_key = {str(k): l for k, l in zip(s.classes, s.lengths)}
    # the commutator represents the puncture class; parabolic => length 0
    assert by_key["abAB"] < 1e-6


def test_spectrum_powers_scale_lengths():
    rep = schottky_sample(4, 2)
    s = spectrum(rep, 3)
    by_key = {str(k): l for k, l in zip(s.classes, s.lengths)}
    assert abs(by_key["aaa"] - 3 * by_key["a"]) < 1e-9


def _reference_rows(rep, maxlen):
    """(trace, length) per class from classify/translation_length on each
    class's Mat2; None where the class is elliptic."""
    exact = all(m.exact() for m in rep.matrices)
    rows = []
    for key in sg.enumerate_classes(rep.presentation, maxlen):
        m = sg.evaluate(key.word, rep)
        if classify(m) is IsometryClass.ELLIPTIC:
            rows.append(None)
            continue
        rows.append((abs(m.tr()) if exact else abs(float(m.tr())), translation_length(m)))
    return rows


def _near_parabolic_rep():
    # Gamma(2) with its first parabolic generator pushed off |tr| = 2 by about
    # 1e-10: a and aB then have float |tr| within EPS above and below 2
    x = 1.0 + 1e-5
    return SurfaceRep.free_rep([Mat2(x, 2.0, 0.0, 1.0 / x), Mat2(1.0, 0.0, 2.0, 1.0)])


KERNEL_REPS = {
    "float": (schottky_sample(6, 3), 5),
    "exact": (modular_torus_rep(), 7),
    "float-near-2": (_near_parabolic_rep(), 4),
    "exact-identity": (SurfaceRep.free_rep([Mat2(-1, 0, 0, -1), Mat2(2, 1, 1, 1)]), 4),
    "float-identity": (SurfaceRep.free_rep([Mat2(1.0, 0.0, 0.0, 1.0), Mat2(2.0, 1.0, 1.0, 1.0)]), 4),
}


@pytest.mark.parametrize("rep,maxlen", list(KERNEL_REPS.values()), ids=list(KERNEL_REPS))
def test_spectrum_matches_reference_built_with_evaluate(rep, maxlen):
    rows = _reference_rows(rep, maxlen)
    s = spectrum(rep, maxlen)
    assert s.classes == tuple(sg.enumerate_classes(rep.presentation, maxlen))
    assert list(zip(s.traces, s.lengths)) == rows


def test_spectrum_kernel_branches_are_reached():
    s = spectrum(modular_torus_rep(), 4)
    by_key = {str(k): (t, l) for k, t, l in zip(s.classes, s.traces, s.lengths)}
    assert by_key["abAB"] == (2, 0.0) and type(by_key["abAB"][0]) is int
    s = spectrum(_near_parabolic_rep(), 4)
    by_key = {str(k): (t, l) for k, t, l in zip(s.classes, s.traces, s.lengths)}
    assert 2 < by_key["a"][0] <= 2 + EPS and by_key["a"][1] == 0.0
    assert 2 - EPS <= by_key["aB"][0] < 2 and by_key["aB"][1] == 0.0
    for name in ("exact-identity", "float-identity"):
        s = spectrum(*KERNEL_REPS[name])
        by_key = {str(k): (t, l) for k, t, l in zip(s.classes, s.traces, s.lengths)}
        assert by_key["a"] == by_key["aa"] == (2, 0.0)
        assert by_key["b"][1] == by_key["ab"][1] > 0


@pytest.mark.parametrize("rep,maxlen", list(KERNEL_REPS.values()), ids=list(KERNEL_REPS))
def test_spectrum_zero_lengths_are_the_classify_window(rep, maxlen):
    # spectrum and classify read one |tr| = 2 window (mobius.trace_gap): the
    # classes of length exactly 0.0 are those classify calls PARABOLIC or
    # IDENTITY, and none of them is ELLIPTIC
    s = spectrum(rep, maxlen)
    kinds = [classify(sg.evaluate(k.word, rep)) for k in s.classes]
    assert IsometryClass.ELLIPTIC not in kinds
    zero = [l == 0.0 for l in s.lengths]
    assert zero == [c in (IsometryClass.PARABOLIC, IsometryClass.IDENTITY) for c in kinds]


@pytest.mark.parametrize("rep,maxlen", list(KERNEL_REPS.values()), ids=list(KERNEL_REPS))
def test_spectrum_walk_matches_given_classes(rep, maxlen):
    # keys and traces from the necklace walk, against the compiled program
    # of the enumerated classes
    walked = spectrum(rep, maxlen)
    program = sg.compile_classes(sg.enumerate_classes(rep.presentation, maxlen))
    given = spectrum(rep, maxlen, program=program)
    assert walked == given
    assert list(map(repr, walked.traces)) == list(map(repr, given.traces))


def test_spectrum_builds_no_matrix(monkeypatch):
    def no_evaluate(w, rep):
        raise AssertionError(f"built the matrix of {w}")

    monkeypatch.setattr(sg, "evaluate", no_evaluate)
    s = spectrum(modular_torus_rep(), 6)
    low = [k.word for k, t in zip(s.classes, s.traces) if t <= 2]
    assert low == [(1, 2, -1, -2), (1, -2, -1, 2)]
    # the parabolic commutator and its inverse have length 0
    assert [s.lengths[s.classes.index(sg.ConjClassKey(w))] for w in low] == [0.0, 0.0]


def _blocks_by_dict(s):
    """Exact blocks by grouping positions on |tr| in a dict, groups in order
    of increasing |tr|: the reference for pattern on an exact spectrum."""
    groups: dict = {}
    for i, t in enumerate(s.traces):
        groups.setdefault(t, []).append(i)
    return Pattern.from_blocks(s.classes, (groups[t] for t in sorted(groups)))


EXACT_REPS = {
    "modular-torus": (modular_torus_rep(), 8),
    "random-rank2": (random_exact_rep(2, random.Random(1)), 6),
    "random-rank3": (random_exact_rep(3, random.Random(5)), 4),
    "fraction": (
        SurfaceRep.free_rep(
            [Mat2(Fraction(3), 0, 0, Fraction(1, 3)), Mat2(*map(Fraction, (2, 3, 1, 2)))]
        ),
        6,
    ),
}


@pytest.mark.parametrize("rep,maxlen", list(EXACT_REPS.values()), ids=list(EXACT_REPS))
def test_exact_pattern_matches_dict_grouping(rep, maxlen):
    s = spectrum(rep, maxlen)
    assert s.exact
    p, want = pattern(s), _blocks_by_dict(s)
    assert (p.order, p.ends) == (want.order, want.ends)
    assert 1 < p.n_blocks < len(s.classes)  # some classes share a block, not all


@pytest.mark.parametrize("num", [int, float], ids=["exact", "float"])
def test_spectrum_raises_on_elliptic_generator(num):
    # b is a rotation by a quarter turn (trace 0)
    rep = SurfaceRep.free_rep([Mat2(*map(num, (2, 1, 1, 1))), Mat2(*map(num, (0, -1, 1, 0)))])
    with pytest.raises(EllipticClassFound, match="class b is elliptic"):
        spectrum(rep, 1)


@pytest.mark.parametrize("num", [Fraction, float], ids=["exact", "float"])
def test_spectrum_raises_on_elliptic_product(num):
    # both generators hyperbolic (tr 5/2 and 3), their product elliptic (tr 3/2)
    a = Mat2(*map(num, (2, 0, 0, Fraction(1, 2))))
    b = Mat2(*map(num, (0, -1, 1, 3)))
    rep = SurfaceRep.free_rep([a, b])
    rows = _reference_rows(rep, 2)
    assert None in rows
    with pytest.raises(EllipticClassFound, match="class ab is elliptic"):
        spectrum(rep, 2)


def _subrelation_by_keys(p1, p2):
    """The key-based sub-relation test, as it was before patterns held
    positions: the reference for subrelation."""
    blocks1, blocks2 = pattern_blocks(p1), pattern_blocks(p2)
    if frozenset(k for b in blocks1 for k in b) != frozenset(k for b in blocks2 for k in b):
        raise ClassSetMismatch("patterns cover different class sets")
    where = {k: i for i, b in enumerate(blocks2) for k in b}
    violations = []
    for block in blocks1:
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                if where[block[i]] != where[block[j]]:
                    violations.append((block[i], block[j]))
    return {"holds": not violations, "violations": violations}


def _random_pattern(rng, classes, blocks):
    order = list(range(len(classes)))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, len(order)), blocks - 1))
    return Pattern.from_blocks(
        classes, [order[i:j] for i, j in zip([0] + cuts, cuts + [len(order)])]
    )


def _coarsened(rng, p):
    """p with some of its blocks merged, so p is a sub-relation of it."""
    merged = {}
    for block in pattern_blocks(p, positions=True):
        merged.setdefault(rng.randrange(max(1, p.n_blocks // 2)), []).extend(block)
    return Pattern.from_blocks(p.classes, merged.values())


def _reordered(rng, p):
    """The same partition over a shuffled copy of the class tuple."""
    perm = list(range(len(p.classes)))
    rng.shuffle(perm)
    new_pos = {old: new for new, old in enumerate(perm)}
    classes = tuple(p.classes[old] for old in perm)
    return Pattern.from_blocks(
        classes, ([new_pos[i] for i in b] for b in pattern_blocks(p, positions=True))
    )


def test_position_based_subrelation_matches_key_based():
    rng = random.Random(20260824)
    classes = tuple(sg.enumerate_classes(F2, 4))
    seen_violations = seen_holds = 0
    for _ in range(300):
        p1 = _random_pattern(rng, classes, rng.randint(1, len(classes)))
        p2 = rng.choice(
            [
                _random_pattern(rng, classes, rng.randint(1, len(classes))),
                _coarsened(rng, p1),
                _reordered(rng, p1),
                _reordered(rng, _coarsened(rng, p1)),
                Pattern.from_blocks(classes, reversed(pattern_blocks(p1, positions=True))),
            ]
        )
        for a, b in ((p1, p2), (p2, p1)):
            got = subrelation(a, b)
            assert got == _subrelation_by_keys(a, b)
            seen_violations += bool(got["violations"])
            seen_holds += got["holds"]
    assert seen_violations > 100 and seen_holds > 100


def test_position_based_subrelation_class_set_mismatch():
    rng = random.Random(7)
    classes = tuple(sg.enumerate_classes(F2, 3))
    p = _random_pattern(rng, classes, 5)
    fewer = _random_pattern(rng, classes[:-1], 5)
    other = _random_pattern(rng, classes[:-1] + (sg.canonical_class((1, 1, 1, 1)),), 5)
    for q in (fewer, other):
        for a, b in ((p, q), (q, p)):
            with pytest.raises(ClassSetMismatch):
                _subrelation_by_keys(a, b)
            with pytest.raises(ClassSetMismatch):
                subrelation(a, b)


def test_pattern_blocks_name_positions():
    s = spectrum(schottky_sample(3, 2), 4)
    p = pattern(s)
    assert p.classes is s.classes
    assert sorted(p.order) == list(range(len(s.classes)))
    blocks = pattern_blocks(p, positions=True)
    assert len(blocks) == p.n_blocks and sum(map(len, blocks)) == len(s.classes)
    assert [i for b in blocks for i in b] == list(p.order) and p.ends[-1] == len(p.order)
    assert pattern_blocks(p) == tuple(tuple(s.classes[i] for i in b) for b in blocks)
    where = dict(zip(p.classes, p.labels))
    assert all(where[k] == i for i, b in enumerate(pattern_blocks(p)) for k in b)



def test_from_blocks_labels_each_position():
    classes = tuple(sg.enumerate_classes(F2, 1))  # a, A, b, B
    p = Pattern.from_blocks(classes, [[2, 0], [1, 3]])
    assert p.labels == [0, 1, 0, 1] and p.labels is p.labels


@pytest.mark.parametrize(
    "blocks",
    [[[0, 1], [1, 3]], [[0, 1], [3]], [[0, 1], [2, -1]], [[0, 1], [2, 3, 4]], [[0, 1], [], [2, 3]]],
    ids=["overlapping", "missing", "negative", "past-the-end", "empty-block"],
)
def test_from_blocks_rejects_a_non_partition(blocks):
    classes = tuple(sg.enumerate_classes(F2, 1))
    with pytest.raises(ValueError):
        Pattern.from_blocks(classes, blocks)


def test_subrelation_forms_no_pairs_when_it_holds(monkeypatch):
    def no_pairs(*args):
        raise AssertionError("walked the pairs of a block that meets one label")

    classes = tuple(sg.enumerate_classes(F2, 8))
    pmin = rmin_pattern(classes, 2)
    pg = pattern(spectrum(schottky_sample(1, 2), 8))
    assert pg.classes == classes and pg.n_blocks == pmin.n_blocks
    monkeypatch.setattr(sys.modules["speclab.spectrum"], "combinations", no_pairs)
    assert subrelation(pmin, pg) == {"holds": True, "violations": []}


def test_scan_generic_checks_rank_before_any_work(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated classes for a rank below 2")

    monkeypatch.setattr(sg, "enumerate_classes", no_enumeration)
    with pytest.raises(ValueError, match="need m >= 2, got 1"):
        next(scan_generic(1, 1, maxlen=3, m=1))


def test_scan_generic_arithmetic_point_needs_rank_two(monkeypatch):
    # the arithmetic point is the rank-2 modular torus: against rank-3
    # classes it would read letter c as its puncture generator
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated classes for the arithmetic point at rank 3")

    monkeypatch.setattr(sg, "enumerate_classes", no_enumeration)
    with pytest.raises(ValueError, match="the arithmetic point is a rank-2 rep, got m = 3"):
        next(scan_generic(1, 1, maxlen=3, m=3, include_arithmetic_point=True))


def test_scan_generic_compiles_its_classes_once(monkeypatch):
    module = sys.modules["speclab.spectrum"]
    real_compile, real_spectrum = sg.compile_classes, module.spectrum
    classes = tuple(sg.enumerate_classes(F2, 4))
    programs, given = [], []

    def counted_compile(words):
        program = real_compile(words)
        # rmin_pairs compiles its fingerprint words apart; only the class tuple counts
        if words == classes:
            programs.append(program)
        return program

    def counted_spectrum(rep, maxlen, program=None):
        given.append(program)
        return real_spectrum(rep, maxlen, program=program)

    monkeypatch.setattr(sg, "compile_classes", counted_compile)
    monkeypatch.setattr(module, "spectrum", counted_spectrum)
    recs = list(scan_generic(1, 5, maxlen=4, include_arithmetic_point=True))
    # each trial runs the one program; the arithmetic point is trial 0
    assert len(programs) == 1 and len(given) == len(recs) == 5 + 1
    assert all(program is programs[0] for program in given)



def test_scan_generic_builds_rmin_labels_once(monkeypatch):
    module = sys.modules["speclab.spectrum"]
    real_rmin, real_build = module.rmin_pattern, Pattern.labels.func
    pmins, built = [], []

    def kept_rmin(classes, m):
        pmins.append(real_rmin(classes, m))
        return pmins[-1]

    def counted_build(p):
        built.append(p)
        return real_build(p)

    labels = functools.cached_property(counted_build)
    labels.__set_name__(Pattern, "labels")
    monkeypatch.setattr(module, "rmin_pattern", kept_rmin)
    monkeypatch.setattr(Pattern, "labels", labels)
    recs = list(scan_generic(1, 5, maxlen=4, include_arithmetic_point=True))
    # R_min's labels once for the scan, then each trial's R_g labels once
    assert len(pmins) == 1 and len(recs) == 5 + 1
    assert sum(p is pmins[0] for p in built) == 1 and len(built) == 1 + len(recs)


def test_subrelation_reflexive():
    s = _toy_spectrum([((1,), 1.0), ((2,), 1.0), ((1, 2), 2.0)])
    p = pattern(s)
    assert subrelation(p, p)["holds"]


def test_subrelation_mismatched_class_sets():
    p1 = pattern(_toy_spectrum([((1,), 1.0)]))
    p2 = pattern(_toy_spectrum([((2,), 1.0)]))
    with pytest.raises(ClassSetMismatch):
        subrelation(p1, p2)


def test_modular_torus_arithmetic_coincidence():
    rep = modular_torus_rep()
    s = spectrum(rep, 1)
    assert s.exact
    p = pattern(s)
    a = sg.canonical_class((1,))
    b = sg.canonical_class((2,))
    where = dict(zip(p.classes, p.labels))
    # traces 3 and 3: same length block ...
    assert where[a] == where[b]
    # ... yet provably unrelated in the minimal pattern
    assert rmin_test((1,), (2,), 2, seed=0).kind == RminVerdict.DISTINCT


def test_modular_vs_generic_violation():
    s_arith = spectrum(modular_torus_rep(), 2)
    s_gen = spectrum(schottky_sample(8, 2), 2)
    p_arith, p_gen = pattern(s_arith), pattern(s_gen)
    sub = subrelation(p_arith, p_gen)
    assert not sub["holds"]
    flat = {frozenset((str(x), str(y))) for x, y in sub["violations"]}
    assert frozenset(("a", "b")) in flat


def test_rmin_subset_of_length_pattern():
    classes = sg.enumerate_classes(F2, 4)
    pmin = rmin_pattern(classes, 2)
    for seed in range(5):
        s = spectrum(schottky_sample(seed, 2), 4)
        pg = pattern(s)
        assert subrelation(pmin, pg)["holds"]


def test_scan_generic_records():
    recs = list(scan_generic(99, 3, maxlen=4, include_arithmetic_point=True))
    assert len(recs) == 4
    assert recs[0]["collapsed"] is False  # arithmetic point has extra coincidences
    for r in recs[1:]:
        assert r["violations"] == []
    seeds = [r["seed"] for r in recs[1:]]
    assert len(set(seeds)) == len(seeds)


def test_scan_generic_does_not_retry_a_spectrum_error(monkeypatch):
    # a SpectrumError is a fault, not a bad draw: the scan ends at once
    module = sys.modules["speclab.spectrum"]
    real, calls = module.spectrum, []

    def elliptic_once(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise EllipticClassFound("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "spectrum", elliptic_once)
    with pytest.raises(EllipticClassFound, match="injected"):
        list(scan_generic(99, 3, maxlen=3))
    assert len(calls) == 1


def _always_fails(seed, m):
    raise SamplingFailed("injected")


def test_scan_generic_raises_when_every_draw_fails(monkeypatch):
    monkeypatch.setattr(sys.modules["speclab.spectrum"], "schottky_sample", _always_fails)
    with pytest.raises(SpectrumError, match=r"trial 0 \(seed 99\)"):
        list(scan_generic(99, 3, maxlen=3))


def test_scan_command_exits_1_when_a_trial_fails(monkeypatch, capsys):
    from speclab.cli import main

    monkeypatch.setattr(sys.modules["speclab.spectrum"], "schottky_sample", _always_fails)
    assert main(["scan", "--seed", "2", "--trials", "2", "--maxlen", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: trial 0") and captured.out == ""
