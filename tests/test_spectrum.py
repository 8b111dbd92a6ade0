import math
import sys

import pytest

from speclab.fricke import SamplingFailed, punctured_torus_sample, schottky_sample
from speclab.spectrum import (
    ClassSetMismatch,
    LengthSpectrum,
    SpectrumError,
    modular_torus_rep,
    partition_equal,
    pattern,
    rmin_pattern,
    rows_to_csv,
    scan_generic,
    spectrum,
    subrelation,
)
from speclab.characters import RminVerdict, rmin_test
import speclab.surface_group as sg
from speclab.mobius import translation_length

F2 = sg.Presentation(genus=1, punctures=1)


def _toy_spectrum(named_lengths, tol=1e-6):
    keys = tuple(sg.canonical_class(w, F2) for w, _ in named_lengths)
    lengths = tuple(l for _, l in named_lengths)
    traces = tuple(2 * math.cosh(l / 2) for l in lengths)
    return LengthSpectrum(keys, traces, lengths, "toy", 0, tol, False)


def test_pattern_toy_blocks():
    s = _toy_spectrum([((1,), 1.0), ((2,), 1.0), ((1, 2), 2.0)])
    p = pattern(s)
    blocks = {frozenset(str(k) for k in b) for b in p.blocks}
    assert blocks == {frozenset({"a", "b"}), frozenset({"ab"})}


def test_pattern_all_distinct_singletons():
    s = _toy_spectrum([((1,), 1.0), ((2,), 1.5), ((1, 2), 2.0)])
    p = pattern(s)
    assert all(len(b) == 1 for b in p.blocks)


def test_spectrum_inverse_classes_equal_length():
    rep = schottky_sample(2, 2)
    s = spectrum(rep, 3)
    by_key = {k: l for k, l in zip(s.classes, s.lengths)}
    for k in s.classes:
        ki = sg.canonical_class(sg.invert(k.word), F2)
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


@pytest.mark.parametrize(
    "rep,maxlen", [(schottky_sample(6, 3), 5), (modular_torus_rep(), 7)], ids=["float", "exact"]
)
def test_spectrum_matches_reference_built_with_evaluate(rep, maxlen):
    classes = sg.enumerate_classes(rep.presentation, maxlen)
    traces, lengths = [], []
    for key in classes:
        m = sg.evaluate(key.word, rep)
        traces.append(abs(m.tr()) if m.exact() else abs(float(m.tr())))
        lengths.append(translation_length(m))
    s = spectrum(rep, maxlen)
    assert s.classes == tuple(classes)
    assert s.traces == tuple(traces)
    assert s.lengths == tuple(lengths)


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
    a = sg.canonical_class((1,), F2)
    b = sg.canonical_class((2,), F2)
    where = p.block_of()
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


def test_scan_generic_retries_failed_sample(monkeypatch):
    calls = []

    def flaky(seed, m):
        calls.append(seed)
        if len(calls) == 1:
            raise SamplingFailed("injected")
        return schottky_sample(seed, m)

    monkeypatch.setattr(sys.modules["speclab.spectrum"], "schottky_sample", flaky)
    recs = list(scan_generic(99, 3, maxlen=3))
    assert [r["trial"] for r in recs] == [0, 1, 2]
    assert calls[1] == calls[0] + 7919  # the failed draw is retried, not the trial dropped
    assert recs[0]["rep_digest"] == schottky_sample(calls[1], 2).digest()


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


def test_partition_equal():
    s = _toy_spectrum([((1,), 1.0), ((2,), 1.0)])
    assert partition_equal(pattern(s), pattern(s))


def test_rows_to_csv_layout():
    s = _toy_spectrum([((1,), 1.0)])
    text = rows_to_csv(s.as_rows())
    lines = text.strip().splitlines()
    assert lines[0] == "class,trace,length"
    assert lines[1].startswith("a,")
