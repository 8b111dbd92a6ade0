import itertools
import os
import random
from math import gcd

import pytest

from speclab import surface_group as sg
from speclab.mobius import Mat2, identity
from speclab.surface_group import (
    EmptyWord,
    Presentation,
    canonical_class,
    cyclic_reduce,
    enumerate_classes,
    evaluate,
    evaluate_many,
    format_word,
    free_reduce,
    invert,
    least_rotation,
    parse_word,
    relator,
)
from speclab.fricke import SurfaceRep, schottky_sample
from speclab.spectrum import modular_torus_rep

F2 = Presentation(genus=1, punctures=1)


def test_free_reduce():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, 1)) == (1, 1)
    assert free_reduce((1, 2, -2, -1)) == ()


def test_cyclic_reduce():
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert cyclic_reduce((2, 1, -2)) == (1,)


def test_relator_sphere_with_three_punctures():
    p = Presentation(genus=0, punctures=3)
    assert relator(p) == (1, 2, 3)


def test_relator_genus_two_closed():
    p = Presentation(genus=2, punctures=0)
    assert relator(p) == (1, 2, -1, -2, 3, 4, -3, -4)


def test_canonical_class_merge_inverse():
    w1 = parse_word("aB", F2)
    w2 = parse_word("bA", F2)
    # b a^-1 is conjugate to the inverse of a b^-1, not to a b^-1 itself
    assert canonical_class(w1, F2) != canonical_class(w2, F2)
    assert canonical_class(w1, F2, merge_inverse=True) == canonical_class(
        w2, F2, merge_inverse=True
    )


def test_canonical_class_conjugation_invariance():
    rng = random.Random(7)
    letters = [1, 2, -1, -2]
    for _ in range(50):
        w = tuple(rng.choice(letters) for _ in range(6))
        u = tuple(rng.choice(letters) for _ in range(3))
        conj = free_reduce(u + w + invert(u))
        try:
            k1 = canonical_class(w, F2)
        except EmptyWord:
            continue
        assert canonical_class(conj, F2) == k1


def _brute_force_classes(maxlen):
    """All cyclically reduced words up to rotation (independent oracle)."""
    letters = [1, 2, -1, -2]
    seen = set()
    for L in range(1, maxlen + 1):
        for w in itertools.product(letters, repeat=L):
            if free_reduce(w) != w or cyclic_reduce(w) != w:
                continue
            reps = {tuple(w[i:] + w[:i]) for i in range(L)}
            seen.add(min(reps))
    return seen


def test_enumerate_classes_counts_f2():
    assert len(enumerate_classes(F2, 1)) == 4
    assert len(enumerate_classes(F2, 2)) == 12
    for maxlen in (3, 4):
        assert len(enumerate_classes(F2, maxlen)) == len(_brute_force_classes(maxlen))


def test_enumerate_classes_no_duplicates():
    classes = enumerate_classes(F2, 5)
    assert len(classes) == len(set(classes))


def test_enumerate_classes_merge_inverse_halves_non_symmetric():
    full = enumerate_classes(F2, 2)
    merged = enumerate_classes(F2, 2, merge_inverse=True)
    assert len(merged) < len(full)
    # every merged key covers itself and its inverse class
    merged_set = {k.word for k in merged}
    for k in full:
        ki = canonical_class(k.word, F2, merge_inverse=True)
        assert ki.word in merged_set


def test_enumerate_classes_closed_genus_two():
    p = Presentation(genus=2, punctures=0)
    classes = enumerate_classes(p, 2)
    # oracle: brute-force words with Dehn reduction folded in by canonical_class
    letters = [x for k in (1, 2, 3, 4) for x in (k, -k)]
    seen = set()
    for L in (1, 2):
        for w in itertools.product(letters, repeat=L):
            try:
                seen.add(canonical_class(w, p))
            except EmptyWord:
                continue
    assert set(classes) == seen


def _phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@pytest.mark.parametrize("m,maxlen", [(2, 10), (3, 7), (4, 5)])
def test_enumerate_classes_closed_form_counts(m, maxlen):
    # necklace count: (1/n) sum_{d | n} phi(n/d) c_d, where
    # c_d = (2m-1)^d + 1 + (m-1)(1 + (-1)^d) counts cyclically reduced words
    lengths = [len(k.word) for k in enumerate_classes(Presentation(1, m - 1), maxlen)]
    for n in range(1, maxlen + 1):
        total = sum(
            _phi(n // d) * ((2 * m - 1) ** d + 1 + (m - 1) * (1 + (-1) ** d))
            for d in range(1, n + 1)
            if n % d == 0
        )
        assert total % n == 0
        assert lengths.count(n) == total // n


def _naive_least_rotation(w):
    order = lambda v: [(abs(x), x < 0) for x in v]  # a1 < A1 < b1 < B1 < ...
    return min((w[i:] + w[:i] for i in range(len(w))), key=order, default=w)


def _brute_force_ordered(p, maxlen, merge_inverse):
    """Every cyclically reduced word, keyed by its least rotation (after Dehn
    reduction on closed surfaces), deduplicated and sorted."""
    order = lambda v: (len(v), [(abs(x), x < 0) for x in v])
    letters = [x for k in range(1, p.free_rank + 1) for x in (k, -k)]
    rel = relator(p)
    keys = set()
    for L in range(1, maxlen + 1):
        for w in itertools.product(letters, repeat=L):
            if any(w[i] == -w[(i + 1) % L] for i in range(L)):
                continue
            if p.punctures == 0:
                w = sg._dehn_reduce(w, rel)
                if not w:
                    continue
            key = _naive_least_rotation(w)
            if merge_inverse:
                key = min(key, _naive_least_rotation(invert(key)), key=order)
            keys.add(key)
    return sorted(keys, key=order)


@pytest.mark.parametrize(
    "g,n,maxlen",
    [(1, 1, 7), (1, 2, 5), (1, 3, 4), (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 0, 4)],
    ids=["m2", "m3", "m4", "m2-L1", "m2-L2", "m3-L1", "m3-L2", "closed-g2"],
)
@pytest.mark.parametrize("merge_inverse", [False, True])
def test_enumerate_classes_matches_brute_force_order(g, n, maxlen, merge_inverse):
    p = Presentation(g, n)
    classes = enumerate_classes(p, maxlen, merge_inverse=merge_inverse)
    assert [k.word for k in classes] == _brute_force_ordered(p, maxlen, merge_inverse)
    assert all(k.inverse_paired is merge_inverse for k in classes)


def test_least_rotation_matches_naive():
    rng = random.Random(2000)
    for _ in range(3000):
        # small alphabets give periodic words and ties between least letters
        letters = [1, -1, 2, -2, 3, -3][: rng.choice((1, 2, 4, 6))]
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 12)))
        assert least_rotation(w) == _naive_least_rotation(w)


def test_evaluate_trivial_cases():
    rep = SurfaceRep.free_rep([Mat2(2, 1, 1, 1), Mat2(1, 1, 1, 2)])
    assert evaluate((), rep) == identity()
    assert evaluate((1,), rep) == rep.matrices[0]
    assert evaluate((-2,), rep) == rep.matrices[1].inverse()


def test_evaluate_is_homomorphism():
    rep = SurfaceRep.free_rep([Mat2(2, 1, 1, 1), Mat2(1, 1, 1, 2)])
    rng = random.Random(11)
    letters = [1, 2, -1, -2]
    worst = 0.0
    for _ in range(100):
        w1 = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        w2 = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        lhs = evaluate(free_reduce(w1 + w2), rep)
        rhs = evaluate(w1, rep) * evaluate(w2, rep)
        worst = max(worst, lhs.max_diff(rhs))
    assert worst < 1e-10


def _closed_genus_two_rep():
    # four float matrices under the closed genus-2 presentation; the relator
    # need not hold for a check of the products alone
    return SurfaceRep(Presentation(2, 0), schottky_sample(5, 4).matrices[:4])


def _chain(w, rep):
    """Entries of the left-to-right Mat2.__mul__ chain from the identity:
    the oracle of evaluate_many, which does not call Mat2.__mul__."""
    out = identity()
    for x in w:
        m = rep.matrix(abs(x))
        out = out * (m if x > 0 else m.inverse())
    return out.entries()


@pytest.mark.parametrize(
    "p,maxlen,rep",
    [
        (F2, 8, schottky_sample(3, 2)),
        (F2, 8, modular_torus_rep()),
        (Presentation(1, 2), 6, schottky_sample(4, 3)),
        (Presentation(2, 0), 4, _closed_genus_two_rep()),
    ],
    ids=["m2-float", "m2-exact", "m3-float", "closed-g2"],
)
@pytest.mark.parametrize("merge_inverse", [False, True])
def test_evaluate_many_matches_evaluate_on_class_lists(p, maxlen, rep, merge_inverse):
    for L in range(1, maxlen + 1):
        words = [k.word for k in enumerate_classes(p, L, merge_inverse=merge_inverse)]
        # exact tuple equality: the same products in the same order
        assert list(evaluate_many(words, rep)) == [_chain(w, rep) for w in words]
    assert [evaluate(w, rep).entries() for w in words] == [_chain(w, rep) for w in words]


@pytest.mark.parametrize("rep", [schottky_sample(3, 2), modular_torus_rep()], ids=["float", "exact"])
def test_evaluate_many_any_order(rep):
    words = [k.word for k in enumerate_classes(F2, 5)]
    rng = random.Random(5)
    shuffled = rng.choices(words, k=2 * len(words))  # repeats, and no shared order
    for ws in (shuffled, [(), (1, 2), (), (1, 2), (1,), ()], [(1, -2, 1)], []):
        assert list(evaluate_many(ws, rep)) == [_chain(w, rep) for w in ws]


class _Counted:
    """A number that counts the scalar products it takes part in."""

    products = 0

    def __init__(self, x):
        self.x = x

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted(self.x * getattr(other, "x", other))

    __rmul__ = __mul__

    def __add__(self, other):
        return _Counted(self.x + getattr(other, "x", other))

    __radd__ = __add__

    def __neg__(self):
        return _Counted(-self.x)


def test_evaluate_many_multiplies_once_per_letter_after_shared_prefix(monkeypatch):
    rep = schottky_sample(1, 2)
    counted = SurfaceRep(
        rep.presentation, tuple(Mat2(*map(_Counted, m.entries())) for m in rep.matrices)
    )
    words = [k.word for k in enumerate_classes(F2, 8)]
    monkeypatch.setattr(_Counted, "products", 0)
    out = [tuple(x.x for x in e) for e in evaluate_many(words, counted)]
    new_letters = sum(
        len(w) - len(os.path.commonprefix([v, w])) for v, w in zip([()] + words, words)
    )
    # one 2x2 multiply (8 scalar products) per letter after the shared prefix
    assert _Counted.products == 8 * new_letters == 8 * 3097  # evaluate: one per letter, 10112
    assert out == list(evaluate_many(words, rep))


def test_evaluate_many_is_lazy():
    out = evaluate_many(iter([(1,), (1, 2)]), modular_torus_rep())
    assert next(out) == (1, 1, 1, 2)
    assert next(out) == (Mat2(1, 1, 1, 2) * Mat2(1, -1, -1, 2)).entries()


def test_word_text_roundtrip():
    for text in ("a1 B1 a1", "abAB", "a1", "g1"):
        w = parse_word(text, F2)
        assert parse_word(format_word(w, F2), F2) == w


def test_parse_word_compact_and_spaced_agree():
    assert parse_word("abAB", F2) == parse_word("a1 b1 A1 B1", F2)


def test_canonical_class_rejects_trivial():
    with pytest.raises(EmptyWord):
        canonical_class((1, -1), F2)


def test_class_key_str_compact():
    k = canonical_class(parse_word("abAB", F2), F2)
    assert str(k).isalpha()
