import hashlib
import random
import time
from collections import Counter
from itertools import combinations, product

import pytest

from conftest import pattern_blocks
import speclab.characters as characters
from speclab.characters import (
    RminVerdict,
    TracePoly,
    _canonical_trace_key,
    _class_at,
    _class_trace_key,
    _decreases,
    _Rewriter,
    _factors,
    basis_word,
    character_values,
    random_exact_rep,
    rmin_key,
    rmin_pairs,
    rmin_test,
    subset_name,
    trace_poly,
)
from speclab.spectrum import rmin_pattern
import speclab.surface_group as sg

F2 = sg.Presentation(genus=1, punctures=1)


def _rand_word(rng, m, length):
    letters = [k for k in range(1, m + 1)] + [-k for k in range(1, m + 1)]
    w = []
    while len(w) < length:
        x = rng.choice(letters)
        if w and w[-1] == -x:
            continue
        w.append(x)
    return tuple(w)


def _total_degree(p):
    return max((sum(e for _, e in _factors(mono)) for mono in p.terms), default=0)


def test_subset_name():
    assert subset_name(0b1) == "t{1}"
    assert subset_name(0b11) == "t{1,2}"
    assert subset_name(0b101) == "t{1,3}"


def test_basis_word():
    assert basis_word(0b1) == (1,)
    assert basis_word(0b110) == (2, 3)


def test_single_generator_poly():
    p = trace_poly((1,), 2)
    assert p == TracePoly.var(0b1)
    rep = random_exact_rep(2, random.Random(0))
    assert p.evaluate(character_values(rep, 2)) == rep.matrices[0].tr()


def test_commutator_polynomial():
    # tr[A,B] = t1^2 + t2^2 + t12^2 - t1 t2 t12 - 2
    t1, t2, t12 = TracePoly.var(0b1), TracePoly.var(0b10), TracePoly.var(0b11)
    expected = t1 * t1 + t2 * t2 + t12 * t12 + -(t1 * t2 * t12) + TracePoly.const(-2)
    p = trace_poly((1, 2, -1, -2), 2)
    assert p == expected
    # exact oracle: evaluate both sides at 200 random rational reps
    rng = random.Random(1)
    for _ in range(200):
        rep = random_exact_rep(2, rng)
        m = sg.evaluate((1, 2, -1, -2), rep)
        assert p.evaluate(character_values(rep, 2)) == m.tr()


def test_inverse_and_conjugation_invariance():
    rng = random.Random(2)
    for _ in range(30):
        w = _rand_word(rng, 2, rng.randint(2, 7))
        u = _rand_word(rng, 2, rng.randint(1, 3))
        wi = sg.invert(w)
        conj = sg.free_reduce(u + w + sg.invert(u))
        p = trace_poly(w, 2)
        assert trace_poly(wi, 2) == p
        assert trace_poly(conj, 2) == p


def test_degree_bound():
    rng = random.Random(3)
    for _ in range(30):
        w = _rand_word(rng, 3, rng.randint(1, 8))
        assert _total_degree(trace_poly(w, 3)) <= len(w)


def test_soundness_random_words_exact():
    rng = random.Random(4)
    for m in (2, 3, 4):
        for _ in range(60):
            w = _rand_word(rng, m, rng.randint(1, 10))
            rep = random_exact_rep(m, rng)
            assert trace_poly(w, m).evaluate(character_values(rep, m)) == sg.evaluate(w, rep).tr()


def test_soundness_rank4_squares_exact():
    # the repeated-letter rule splits a cyclically adjacent square with U
    # empty; every such class at (4,6) evaluates exactly at two reps
    rng = random.Random(6)
    reps = [random_exact_rep(4, rng) for _ in range(2)]
    chars = [character_values(rep, 4) for rep in reps]
    classes = sg.enumerate_classes(sg.Presentation.free(4), 6)
    squares = [k.word for k in classes if any(x == k.word[i - 1] for i, x in enumerate(k.word))]
    assert squares
    for w in squares:
        p = trace_poly(w, 4)
        for rep, cv in zip(reps, chars):
            assert p.evaluate(cv) == sg.evaluate(w, rep).tr(), w


# sha256 of every class polynomial's text: the rewrite rules' order only
# shows from rank 4, length 6 on, so these texts do not depend on it
@pytest.mark.parametrize(
    "m,maxlen,digest",
    [
        (2, 9, "cf186ab5b9534030e0d3c1a5bfc8dae34d55c7cf4029619ba9b3bffcb813985c"),
        (3, 6, "2f27f67d82cb93b448b10fadf6e0859272caf2cb555b84f412e13ad78a4db008"),
        (4, 5, "eeab425866e473af202ca132ef1e158f0dedb0ef84f0b54bb0456f35cd5c3e9d"),
        (5, 4, "73975793cb79510ddb5768a30e878e624b7ea4507fb62dec9850a5c75806a5fa"),
    ],
)
def test_class_polynomial_text_digest(m, maxlen, digest):
    classes = sg.enumerate_classes(sg.Presentation.free(m), maxlen)
    text = "".join(trace_poly(k.word, m).text() + "\n" for k in classes)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_character_values_cover_basis():
    rep = random_exact_rep(3, random.Random(5))
    cv = character_values(rep, 3)
    assert set(cv) == set(range(1, 8))
    assert cv[0b1] == rep.matrices[0].tr()
    assert cv[0b111] == sg.evaluate((1, 2, 3), rep).tr()


def _rmin_oracle(w1, w2, m, seed=0, n_reps=16):
    """Oracle: both polynomials evaluated at all 2^m - 1 character values of
    each seeded exact rep, stopping at the first |value| that differs."""
    p1 = trace_poly(w1, m)
    p2 = trace_poly(w2, m)
    if rmin_key(p1) == rmin_key(p2):
        return RminVerdict.EQUAL
    rng = random.Random(seed)
    for _ in range(n_reps):
        chars = character_values(random_exact_rep(m, rng), m)
        if abs(p1.evaluate(chars)) != abs(p2.evaluate(chars)):
            return RminVerdict.DISTINCT
    return RminVerdict.PROBABLY_EQUAL


def test_rmin_generators_distinct():
    v = rmin_test((1,), (2,), 2, seed=0)
    assert v.kind == RminVerdict.DISTINCT
    assert v.kind == _rmin_oracle((1,), (2,), 2, seed=0)


def test_rmin_conjugates_equal():
    assert rmin_test((1, 2), (2, 1), 2, seed=0).kind == RminVerdict.EQUAL


def test_rmin_inverse_equal():
    assert rmin_test((1,), (-1,), 2, seed=0).kind == RminVerdict.EQUAL


def test_rmin_all_length_two_classes():
    classes = sg.enumerate_classes(F2, 2)
    assert len(classes) == 12
    key = {k: i for i, k in enumerate(classes)}
    a = sg.canonical_class((1,))
    ai = sg.canonical_class((-1,))
    b = sg.canonical_class((2,))
    assert rmin_test(a.word, ai.word, 2, seed=1).kind == RminVerdict.EQUAL
    assert rmin_test(a.word, b.word, 2, seed=1).kind == RminVerdict.DISTINCT
    # ab and ba share a canonical key already
    assert sg.canonical_class((1, 2)) == sg.canonical_class((2, 1))
    assert a in key and b in key


def test_nontrivial_minimal_pair_exists():
    # non-conjugate classes, one per inverse pair, with identical character polynomial
    classes = [
        k for k in sg.enumerate_classes(F2, 8)
        if k <= sg.canonical_class(sg.invert(k.word))
    ]
    groups = {}
    for k in classes:
        groups.setdefault(trace_poly(k.word, 2).text(), []).append(k)
    nontrivial = [v for v in groups.values() if len(v) > 1]
    assert nontrivial
    w1, w2 = nontrivial[0][0].word, nontrivial[0][1].word
    assert rmin_test(w1, w2, 2, seed=2).kind == RminVerdict.EQUAL


def test_rmin_pairs_partition():
    classes = sg.enumerate_classes(F2, 2)
    partition, flagged = rmin_pairs(classes, 2, seed=0, n_reps=8)
    assert not flagged
    covered = [k for block in partition for k in block]
    assert sorted(covered, key=str) == sorted(classes, key=str)
    blocks = {frozenset(b) for b in partition}
    a = sg.canonical_class((1,))
    ai = sg.canonical_class((-1,))
    assert any(a in b and ai in b for b in blocks)


def test_poly_text_canonical():
    p = trace_poly((1, 2, -1, -2), 2)
    q = trace_poly((2, 1, -2, -1), 2)  # inverse commutator, same trace
    assert p.text() == q.text()
    assert p.text() == trace_poly((1, 2, -1, -2), 2).text()


# -- R_min keyed by +-P, against a squared-text oracle -------------------------

def _rotations(w):
    return [w[k:] + w[:k] for k in range(len(w))]


def _squared_text_blocks(classes, m):
    """Oracle: group classes by the text of P^2."""
    blocks = {}
    for k in classes:
        p = trace_poly(k.word, m)
        blocks.setdefault((p * p).text(), []).append(k)
    return blocks


def _squared_flagged(blocks, m, seed, n_reps):
    """Oracle: block pairs whose P^2 agree at every seeded exact rep."""
    rng = random.Random(seed)
    char_sets = [character_values(random_exact_rep(m, rng), m) for _ in range(n_reps)]
    groups = {}
    for members in blocks.values():
        p = trace_poly(members[0].word, m)
        fp = tuple((p * p).evaluate(cv) for cv in char_sets)
        groups.setdefault(fp, []).append(members[0])
    return {
        frozenset((g[i], g[j]))
        for g in groups.values()
        for i in range(len(g))
        for j in range(i + 1, len(g))
    }


@pytest.mark.parametrize("m,maxlen", [(2, 7), (3, 5)])
def test_rmin_partition_matches_squared_text_oracle(m, maxlen):
    classes = sg.enumerate_classes(sg.Presentation(1, m - 1), maxlen)
    oracle = _squared_text_blocks(classes, m)
    expected = {frozenset(b) for b in oracle.values()}
    # two reps leave hundreds of numeric coincidences to flag
    partition, flagged = rmin_pairs(classes, m, seed=3, n_reps=2)
    assert {frozenset(b) for b in partition} == expected
    assert {frozenset(b) for b in pattern_blocks(rmin_pattern(classes, m))} == expected
    assert flagged
    assert {frozenset(f) for f in flagged} == _squared_flagged(oracle, m, 3, 2)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_canonical_trace_key_rotation_and_inversion_invariant(m):
    def old_key(w):
        # reference: every rotation of w and w^-1, least by
        # (inverse-letter count, (abs, sign) per letter)
        cands = _rotations(w) + _rotations(sg.invert(w))
        return min(cands, key=lambda v: (sum(x < 0 for x in v), [(abs(x), x < 0) for x in v]))

    for k in sg.enumerate_classes(sg.Presentation(1, m - 1), 6 if m < 4 else 4):
        key = _canonical_trace_key(k.word)
        assert key == old_key(k.word)
        assert _class_trace_key(k.word) == key
        for v in _rotations(k.word) + _rotations(sg.invert(k.word)):
            assert _canonical_trace_key(v) == key


def test_rank2_trace_polynomial_is_reversal_invariant():
    # (A, B) -> (A^-1, B^-1) fixes t1, t2 and t12, which generate F2's
    # character ring freely, so the rewriter finds P_reverse(w) = P_w
    for k in sg.enumerate_classes(F2, 8):
        assert trace_poly(k.word, 2) == trace_poly(k.word[::-1], 2), k


def test_rank3_trace_polynomial_is_not_reversal_invariant():
    # abc and cba are t123 and t132, which differ by more than a sign
    abc, cba = trace_poly((1, 2, 3), 3), trace_poly((3, 2, 1), 3)
    assert abc != cba and rmin_key(abc) != rmin_key(cba)


def test_rmin_key_is_sign_blind():
    p = trace_poly((1, 2, -1, -2), 2)
    assert rmin_key(-p) == rmin_key(p)
    assert rmin_key(p) != rmin_key(trace_poly((1, 2), 2))
    assert rmin_key(TracePoly()) == ()


def test_rmin_test_inverse_classes_equal():
    for k in sg.enumerate_classes(F2, 5):
        assert rmin_test(k.word, sg.invert(k.word), 2, n_reps=1).kind == RminVerdict.EQUAL


@pytest.mark.parametrize("m,maxlen", [(2, 7), (3, 5)])
def test_no_sign_opposite_trace_polynomials(m, maxlen):
    # No pair with P1 = -P2 exists up to the tested length, nor can one: at
    # the trivial representation every t_S is 2 and every word has trace 2,
    # so P_w(2, ..., 2) = 2 for all w.  The +- in the key is thus never
    # exercised by words, only by the algebra (see test_rmin_key_is_sign_blind).
    polys = {trace_poly(k.word, m) for k in sg.enumerate_classes(sg.Presentation(1, m - 1), maxlen)}
    twos = {mask: 2 for mask in range(1, 1 << m)}
    assert all(p.evaluate(twos) == 2 for p in polys)
    assert not any(-p in polys for p in polys)


# -- packed monomials and trace fingerprints -----------------------------------

def test_monomial_product_adds_exponent_fields():
    for m in (2, 3):
        masks = range(1, 1 << m)
        rng = random.Random(m)
        for _ in range(50):
            exps = {mask: rng.randint(0, 9) for mask in masks}
            p = TracePoly.const(1)
            for mask, e in exps.items():
                for _ in range(e):
                    p = p * TracePoly.var(mask)
            (mono,) = p.terms
            assert _factors(mono) == tuple((mask, e) for mask, e in exps.items() if e)
            assert _total_degree(p) == sum(exps.values())


def test_top_generator_monomial_is_one_field_wide():
    # fields are numbered by first use, so t_S is not 32 (S - 1) bits wide
    start = time.perf_counter()
    assert trace_poly((20,), 20).text() == "+1*t{20}"
    assert time.perf_counter() - start < 0.5


def test_rank5_text_is_unchanged_by_field_order():
    # expected texts as printed when t_S sat at bit 32 (S - 1)
    assert trace_poly((5, 1, -5, -1), 5).text() == (
        "-1*t{1}*t{5}*t{1,5} +1*t{1,5}^2 +1*t{5}^2 +1*t{1}^2 -2"
    )
    assert trace_poly((5, 5, 1, -5, 1, 1), 5).text() == (
        "+1*t{1}^2*t{5}^2*t{1,5} -1*t{1}^3*t{5} -1*t{1}*t{5}^3 -1*t{1}*t{5}*t{1,5}^2"
        " +1*t{1}^2*t{1,5} +3*t{1}*t{5} -1*t{1,5}"
    )


@pytest.mark.parametrize("n_reps", [0, -1])
def test_rmin_pairs_rejects_fewer_than_one_rep(n_reps):
    with pytest.raises(ValueError, match="n_reps must be >= 1"):
        rmin_pairs(sg.enumerate_classes(F2, 4), 2, n_reps=n_reps)


# sha256 of the partition and the ordered flagged pairs, seed 1
@pytest.mark.parametrize(
    "m,maxlen,n_reps,n_flagged,digest",
    [
        (2, 9, 16, 0, "34879add78c3ddd624584895712d3d96d31d0626d88da7a278f0f70c1ec7f3ec"),
        (3, 6, 16, 0, "c75686ec3811c22e40ec2b378fb547a62b98c04032201241185c70cb77a05036"),
        (3, 6, 2, 39, "5d5d3d6f7c9bdf0463340efa8626d48184937c98a5a94cc6e199ee10688866ae"),
    ],
)
def test_rmin_pairs_golden(m, maxlen, n_reps, n_flagged, digest):
    classes = sg.enumerate_classes(sg.Presentation(1, m - 1), maxlen)
    partition, flagged = rmin_pairs(classes, m, seed=1, n_reps=n_reps)
    text = "".join(" ".join(map(str, b)) + "\n" for b in partition)
    text += "".join(f"flagged {a} {b}\n" for a, b in flagged)
    assert len(flagged) == n_flagged
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _evaluated_flags(partition, m, seed, n_reps):
    """Oracle: evaluate +-P of every block at every seeded rep, group blocks
    by the |values| in first-seen order, flag each pair inside a group."""
    rng = random.Random(seed)
    char_sets = [character_values(random_exact_rep(m, rng), m) for _ in range(n_reps)]
    groups = {}
    for block in partition:
        poly = TracePoly(dict(rmin_key(trace_poly(block[0].word, m))))
        fp = tuple(abs(poly.evaluate(cv)) for cv in char_sets)
        groups.setdefault(fp, []).append(block[0])
    return [(g[i], g[j]) for g in groups.values() for i in range(len(g)) for j in range(i + 1, len(g))]


@pytest.mark.parametrize("m,maxlen", [(2, 7), (3, 5)])
def test_trace_fingerprint_flags_match_polynomial_evaluation(m, maxlen):
    classes = sg.enumerate_classes(sg.Presentation(1, m - 1), maxlen)
    for seed, n_reps in ((1, 16), (3, 1), (3, 2), (5, 3)):
        partition, flagged = rmin_pairs(classes, m, seed=seed, n_reps=n_reps)
        assert flagged == _evaluated_flags(partition, m, seed, n_reps)


# -- R_min straight from class keys --------------------------------------------

def _per_class_blocks(classes, m):
    """Oracle: every class through trace_poly, grouped by rmin_key."""
    blocks = {}
    for k in classes:
        blocks.setdefault(rmin_key(trace_poly(k.word, m)), []).append(k)
    return blocks


def _class_lists(m, maxlen):
    classes = sg.enumerate_classes(sg.Presentation(1, m - 1), maxlen)
    shuffled = list(classes)
    random.Random(m * 100 + maxlen).shuffle(shuffled)
    one_of_each = [k for k in classes if k <= sg.canonical_class(sg.invert(k.word))]
    # not closed under reversal: of two memo keys that are each other's
    # reverse, only the lower one's classes, so the other key is missing
    one_of_each_reversal = [
        k for k in classes if _class_trace_key(k.word) <= _class_trace_key(sg.least_rotation(k.word[::-1]))
    ]
    return {
        "sorted": classes,
        "shuffled": shuffled,
        "one_of_each": one_of_each,
        "one_of_each_reversal": one_of_each_reversal,
    }


def _rewrite_every_key(classes, m):
    """Rewrite the memo key of every class, as no fingerprint spares any."""
    rw = characters._rewriter(m)
    for k in classes:
        rw.keyed(_class_trace_key(k.word))


@pytest.mark.parametrize("m,maxlen", [(2, 8), (3, 5), (4, 4)])
def test_rmin_pattern_matches_per_class_trace_poly(monkeypatch, m, maxlen):
    for name, classes in _class_lists(m, maxlen).items():
        # each side starts from a cold memo of its own
        monkeypatch.setattr(characters, "_rewriters", {})
        expected = _per_class_blocks(classes, m)
        oracle_memo = characters._rewriters[m].memo
        monkeypatch.setattr(characters, "_rewriters", {})
        assert pattern_blocks(rmin_pattern(classes, m)) == tuple(map(tuple, expected.values())), name
        # only keys that no rep told apart are rewritten, to the same
        # polynomials; the memo keeps them unreduced, as trace_poly gives them
        assert characters._rewriters[m].memo.items() <= oracle_memo.items(), name
        # a rewrite child that is a memo key is looked up without canonicalizing
        assert all(_canonical_trace_key(k) == k for k in oracle_memo), name


@pytest.mark.parametrize("m,maxlen", [(2, 8), (3, 6)])
def test_memo_is_the_same_when_children_miss_it(monkeypatch, m, maxlen):
    # longest classes first: most rewrite children are not yet memo keys
    classes = sg.enumerate_classes(sg.Presentation(1, m - 1), maxlen)
    memos = []
    for order in (classes, classes[::-1]):
        monkeypatch.setattr(characters, "_rewriters", {})
        _rewrite_every_key(order, m)
        memos.append(characters._rewriters[m].memo)
    assert memos[0] == memos[1]


def test_cold_partition_searches_few_rotations(monkeypatch):
    classes = sg.enumerate_classes(F2, 8)
    calls = []
    real = sg.least_rotation

    def counted(w):
        calls.append(w)
        return real(w)

    monkeypatch.setattr(characters, "_rewriters", {})
    monkeypatch.setattr(sg, "least_rotation", counted)
    _rewrite_every_key(classes, 2)
    # 1035 when step-1 children start at position 0 of their key and the
    # memo is probed first; 2301 when every child was canonicalized
    assert len(calls) <= 1200


# 1290, 3441 and 2266 when every class and every reversed memo key was
# rotated; what is left comes from the rewriter (107 and 152 at seed 1):
# for a square the repeated-letter rule's third child V U^-1 is V itself,
# a memo key that is looked up without a rotation
@pytest.mark.parametrize("m,maxlen,most", [(2, 8, 0), (2, 9, 110), (3, 6, 160)])
def test_cold_rmin_pairs_finds_inverses_and_reverses_without_rotating(monkeypatch, m, maxlen, most):
    classes = sg.enumerate_classes(sg.Presentation.free(m), maxlen)
    calls = []
    real = sg.least_rotation

    def counted(w):
        calls.append(w)
        return real(w)

    monkeypatch.setattr(characters, "_rewriters", {})
    monkeypatch.setattr(sg, "least_rotation", counted)
    rmin_pairs(classes, m, seed=1)
    assert len(calls) <= most


@pytest.mark.parametrize("m,maxlen", [(2, 6), (3, 4)])
def test_class_at_finds_every_rotation_of_a_class(m, maxlen):
    classes = sg.enumerate_classes(sg.Presentation.free(m), maxlen)
    pos = {k.word: i for i, k in enumerate(classes)}
    letters = [x for k in range(1, m + 1) for x in (k, -k)]
    for i, k in enumerate(classes):
        w = k.word
        for r in range(len(w)):
            assert _class_at(w[r:] + w[:r], pos, letters) == i, (k, r)
    # a class that is not in the list
    last = classes[-1].word
    del pos[last]
    assert _class_at(last[1:] + last[:1], pos, letters) is None


def test_class_at_tries_each_rotation_at_the_least_letter():
    letters = [1, -1, 2, -2]
    # the least letter -1 occurs only inverted, twice; the first rotation
    # that starts at it is not the class word, the second is
    pos = {(-1, 2, -1, -2): 0, (1, 1, 2, 1, -2): 1}
    assert _class_at((-1, -2, -1, 2), pos, letters) == 0
    assert _class_at((2, -1, -2, -1), pos, letters) == 0
    # the least letter 1 occurs three times, twice in a row
    assert _class_at((1, -2, 1, 1, 2), pos, letters) == 1
    assert _class_at((2, 1, -2, 1, 1), pos, letters) == 1
    assert _class_at((1, 2, -1, -2), pos, letters) is None


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("word", [(1, 3), (3,), (1, 0)])
def test_rmin_rejects_letters_beyond_rank(monkeypatch, warm, word):
    monkeypatch.setattr(characters, "_rewriters", {})
    if warm:
        _rewrite_every_key(sg.enumerate_classes(F2, 4), 2)
    bad = [sg.ConjClassKey((1,)), sg.ConjClassKey(word)]
    with pytest.raises(ValueError, match="beyond rank 2"):
        rmin_pattern(bad, 2)
    with pytest.raises(ValueError, match="beyond rank 2"):
        rmin_pairs(bad, 2)
    assert all(all(0 < abs(x) <= 2 for x in key) for key in characters._rewriters[2].memo)


def test_trace_poly_rejects_letters_beyond_rank():
    with pytest.raises(ValueError, match=r"^word uses generators beyond rank 2$"):
        trace_poly((3,), 2)
    with pytest.raises(sg.WordError, match="letter 0"):
        trace_poly((1, 0), 2)


@pytest.mark.parametrize(
    "parent,child",
    [((1, 2), (1, 1, 2)), ((1, 2), (2, 1)), ((1, -2), (1, 2, -1, -2)), ((1, -2), (-1, 2))],
)
def test_rewrite_guard_rejects_non_decreasing_child(parent, child):
    with pytest.raises(RuntimeError, match="does not decrease"):
        _Rewriter(2)._child(parent, child)


def _measure(w):
    """Oracle: the rewriting measure (length, inverse letters, index
    inversions of the least rotation of a positive word) as one tuple."""
    neg = sum(1 for x in w if x < 0)
    inv = 0
    if w and neg == 0:
        lin = sg.least_rotation(w)
        inv = sum(1 for i in range(len(lin)) for j in range(i + 1, len(lin)) if lin[i] > lin[j])
    return (len(w), neg, inv)


def test_rewrite_guard_matches_measure_tuples():
    words = [
        w
        for n in range(5)
        for w in product((1, -1, 2, -2), repeat=n)
        if sg.cyclic_reduce(w) == w
    ]
    assert len(words) == 1 + 4 + 12 + 28 + 84
    for parent, child in product(words, repeat=2):
        assert _decreases(parent, child) == (_measure(child) < _measure(parent)), (parent, child)


# -- rmin_test is rmin_pairs on two classes ------------------------------------

# rank-3 pairs whose rewritten polynomials differ, but only by a multiple of
# the t123 relation, so their |tr| agree at every rep (ROADMAP "F5");
# rmin_key reduces each pair to one key
F5_PAIRS = [("abAcAcBC", "abAcBCaC"), ("abcABCaC", "abcAcABC"), ("aBcAbCaC", "aBcAcAbC")]


def _f5_words(pair):
    pres = sg.Presentation.free(3)
    return [sg.parse_word(t, pres) for t in pair]


def _verdict_words(m):
    """Seeded words of rank m, with rotations and inverses of the first ones
    and, at rank 3, the F5 pairs."""
    rng = random.Random(40 + m)
    words = [_rand_word(rng, m, rng.randint(1, 7 if m < 4 else 5)) for _ in range(8)]
    for w in words[:3]:
        words += [w[1:] + w[:1], sg.invert(w)]
    if m == 3:
        words += [w for pair in F5_PAIRS for w in _f5_words(pair)]
    return words


@pytest.mark.parametrize("m", [2, 3, 4])
def test_rmin_test_matches_character_evaluation(m):
    words = _verdict_words(m)
    kinds = set()
    for n_reps in (1, 3, 16):
        for seed, (w1, w2) in enumerate(combinations(words, 2)):
            got = rmin_test(w1, w2, m, seed=seed, n_reps=n_reps).kind
            assert got == _rmin_oracle(w1, w2, m, seed=seed, n_reps=n_reps), (w1, w2, n_reps)
            kinds.add(got)
    assert {RminVerdict.EQUAL, RminVerdict.DISTINCT} <= kinds
    if m == 3:
        assert RminVerdict.PROBABLY_EQUAL in kinds


def test_rmin_test_evaluates_no_characters(monkeypatch):
    def no_characters(rep, m):
        raise AssertionError("character_values called")

    monkeypatch.setattr(characters, "character_values", no_characters)
    assert rmin_test((1, 2), (1, -2), 24).kind == RminVerdict.DISTINCT


def test_reps_are_drawn_until_a_rep_splits_no_key_group_then_while_blocks_agree(monkeypatch):
    draws = []
    real = characters.random_exact_rep

    def counted(m, rng):
        draws.append(m)
        return real(m, rng)

    monkeypatch.setattr(characters, "random_exact_rep", counted)
    # one memo key, or none: nothing to tell apart
    assert rmin_test((1, 2), (2, 1), 2, seed=0).kind == RminVerdict.EQUAL
    assert rmin_pairs([], 2) == ([], [])
    assert len(draws) == 0
    # two memo keys, told apart by the first rep
    assert rmin_test((1, 2), (1, -2), 2, seed=0).kind == RminVerdict.DISTINCT
    assert len(draws) == 1
    del draws[:]
    # two memo keys, each the other's reverse: one reversal orbit, one
    # block, and nothing to tell apart
    assert rmin_test((1, 1, 2, 1, -2), (1, 1, -2, 1, 2), 2, seed=0).kind == RminVerdict.EQUAL
    assert len(draws) == 0
    # the second rep splits no group of orbits, and no two blocks agree then
    # (3 reps when phase 1 grouped every memo key, reversal partners included)
    partition, flagged = rmin_pairs(sg.enumerate_classes(F2, 5), 2, seed=1)
    assert len(partition) == 47 and not flagged
    assert len(draws) == 2
    del draws[:]
    # two rank-3 memo keys in one block: the first rep splits nothing, and
    # the rewrite modulo the t123 relation finds one block
    assert rmin_test(*_f5_words(F5_PAIRS[0]), 3).kind == RminVerdict.EQUAL
    assert len(draws) == 1


# -- fingerprints before rewrites, against the rewrite-first order -------------

def _rewrite_first_pairs(classes, m, seed, n_reps):
    """Oracle: every class rewritten to its R_min key (_per_class_blocks),
    then each block's |tr| at seeded reps, drawn while two blocks agree."""
    partition = [tuple(v) for v in _per_class_blocks(classes, m).values()]
    rng = random.Random(seed)
    fingerprints = [()] * len(partition)
    live = range(len(partition))
    for _ in range(n_reps):
        if len(live) < 2:
            break
        rep = random_exact_rep(m, rng)
        traces = sg.compile_classes([partition[i][0] for i in live]).traces(rep)
        for i, t in zip(live, traces):
            fingerprints[i] += (abs(t),)
        seen = Counter(fingerprints[i] for i in live)
        live = [i for i in live if seen[fingerprints[i]] > 1]
    groups = {}
    for i in live:
        groups.setdefault(fingerprints[i], []).append(partition[i][0])
    return partition, [pair for g in groups.values() for pair in combinations(g, 2)]


@pytest.mark.parametrize("m,maxlen", [(2, 7), (2, 9), (3, 5), (3, 6), (4, 4)])
def test_rmin_pairs_matches_rewrite_first_oracle(monkeypatch, m, maxlen):
    lists = _class_lists(m, maxlen)
    lists["empty"] = []
    lists["single"] = lists["sorted"][:1]
    # classes given twice share their memo key with their first copy
    lists["repeated"] = lists["shuffled"] + random.Random(maxlen).sample(lists["shuffled"], 40)
    if m == 3:
        lists["f5"] = [sg.canonical_class(w) for pair in F5_PAIRS for w in _f5_words(pair)]
    for name, classes in lists.items():
        monkeypatch.setattr(characters, "_rewriters", {})
        for seed, n_reps in product((1, 7), (1, 2, 16)):
            got = rmin_pairs(classes, m, seed=seed, n_reps=n_reps)
            assert got == _rewrite_first_pairs(classes, m, seed, n_reps), (name, seed, n_reps)
            # the classes are read in one pass, so a one-shot iterator will do
            assert rmin_pairs(iter(classes), m, seed=seed, n_reps=n_reps) == got, (name, seed, n_reps)
            if name == "f5":  # the t123 relation makes each pair one block
                assert len(got[0]) == 3 and not got[1]


# seed 1 rewrites 199 keys at (3,6) and 84 at (2,9); rewriting every key
# first made 1754 and 1792, and at (2,9) fingerprints alone left 1621
@pytest.mark.parametrize("m,maxlen,most", [(3, 6, 400), (2, 9, 100)])
def test_rmin_pairs_rewrites_only_keys_no_rep_told_apart(monkeypatch, m, maxlen, most):
    monkeypatch.setattr(characters, "_rewriters", {})
    rmin_pairs(sg.enumerate_classes(sg.Presentation(1, m - 1), maxlen), m, seed=1)
    assert len(characters._rewriters[m].memo) <= most


# the first rep of these seeds gives every class |tr| 2; ending the first
# phase there rewrote 1792 memo keys at (2,9) and 1754 at (3,6)
@pytest.mark.parametrize("m,maxlen,seed,most", [(2, 9, 3, 100), (2, 9, 8, 100), (3, 6, 50, 400)])
def test_a_rep_that_tells_no_key_apart_leaves_the_keys_grouped(monkeypatch, m, maxlen, seed, most):
    classes = sg.enumerate_classes(sg.Presentation.free(m), maxlen)
    rep = random_exact_rep(m, random.Random(seed))
    assert {abs(t) for t in sg.compile_classes(classes).traces(rep)} == {2}
    monkeypatch.setattr(characters, "_rewriters", {})
    assert len(rmin_pairs(classes, m, seed=seed)[0]) == {2: 1097, 3: 1699}[m]
    assert len(characters._rewriters[m].memo) <= most


def test_later_reps_compile_only_the_labels_that_still_agree(monkeypatch):
    # the first rep runs one program of every reversal orbit; each rep of
    # phase 2 compiles the first classes of the labels no rep has told
    # apart yet
    sizes = []
    real = sg.compile_classes

    def recorded(classes):
        classes = list(classes)
        sizes.append(len(classes))
        return real(classes)

    monkeypatch.setattr(sg, "compile_classes", recorded)
    assert len(rmin_pairs(sg.enumerate_classes(F2, 3), 2, seed=16)[0]) == 12
    assert sizes == [12, 4, 2, 2, 2]
    del sizes[:]
    # the F5 pairs are three blocks that the first rep tells apart
    f5 = [sg.canonical_class(w) for pair in F5_PAIRS for w in _f5_words(pair)]
    assert rmin_pairs(f5, 3, seed=0) == ([tuple(f5[i : i + 2]) for i in (0, 2, 4)], [])
    assert sizes == [6]


# seed 1: at rank 2 phase 1 compiles one word per reversal orbit (693 and
# 1791 memo keys), at (2,8) exactly the R_min blocks; each rep after the
# first reads only the leaves of the orbits still grouped (1753 at every
# rep of (3,6) when all were read)
@pytest.mark.parametrize(
    "m,maxlen,compiled,leaves,memo",
    [(2, 8, 471, [471, 290], 0), (2, 9, 1101, [1101, 640, 8], 84), (3, 6, 1753, [1753, 965, 138, 108], 199)],
)
def test_phase_one_reads_one_word_per_orbit_then_only_the_grouped_keys(monkeypatch, m, maxlen, compiled, leaves, memo):
    sizes, read = [], []
    real_compile, real_traces = sg.compile_classes, sg.ClassProgram.traces

    def recorded(classes):
        classes = list(classes)
        sizes.append(len(classes))
        return real_compile(classes)

    def traces(program, rep):
        read.append(len(program.leaves))
        return real_traces(program, rep)

    monkeypatch.setattr(sg, "compile_classes", recorded)
    monkeypatch.setattr(sg.ClassProgram, "traces", traces)
    monkeypatch.setattr(characters, "_rewriters", {})
    rmin_pairs(sg.enumerate_classes(sg.Presentation.free(m), maxlen), m, seed=1)
    assert (sizes, read, len(characters._rewriters[m].memo)) == ([compiled], leaves, memo)


@pytest.mark.parametrize("m,maxlen", [(2, 7), (3, 6)])
def test_rmin_pattern_is_the_rmin_pairs_partition(m, maxlen):
    lists = _class_lists(m, maxlen)
    if m == 3:
        lists["f5"] = [sg.canonical_class(w) for pair in F5_PAIRS for w in _f5_words(pair)]
    for name, classes in lists.items():
        blocks = pattern_blocks(rmin_pattern(classes, m))
        for seed, n_reps in product((0, 1, 7), (1, 2, 16)):
            assert blocks == tuple(rmin_pairs(classes, m, seed, n_reps)[0]), (name, seed, n_reps)


def test_cold_rmin_pattern_rewrites_only_keys_no_rep_told_apart(monkeypatch):
    # 1754 memo entries when rmin_pattern rewrote every key
    monkeypatch.setattr(characters, "_rewriters", {})
    rmin_pattern(sg.enumerate_classes(sg.Presentation.free(3), 6), 3)
    assert len(characters._rewriters[3].memo) <= 400


def test_cold_scan_prelude_rewrites_nothing_at_rank_2(monkeypatch):
    # at (2,8), the scan prelude, the groups the reps leave are reversal
    # orbits; 577 memo entries when every key that shared a group was rewritten
    monkeypatch.setattr(characters, "_rewriters", {})
    assert rmin_pattern(sg.enumerate_classes(F2, 8), 2).n_blocks == 471
    assert characters._rewriters[2].memo == {}


def test_rmin_pattern_rejects_a_repeated_class():
    a, b = sg.enumerate_classes(F2, 1)[:2]
    with pytest.raises(ValueError, match=f"class {a} is repeated"):
        rmin_pattern([a, b, a], 2)


def test_rmin_pairs_needs_least_rotation_keys(monkeypatch):
    # (2, 1) is not its own least rotation, so it is no memo key: its
    # rewrite steps to (1, 2), which does not decrease the measure
    keys = [sg.ConjClassKey((1, 2)), sg.ConjClassKey((2, 1))]
    with pytest.raises(RuntimeError, match="does not decrease"):
        rmin_pairs(keys, 3)
    # at rank 2 the reverse of (2, 1) is keyed (1, 2): one reversal orbit,
    # one block, and nothing is rewritten
    monkeypatch.setattr(characters, "_rewriters", {})
    assert rmin_pairs(keys, 2) == ([tuple(keys)], [])
    assert characters._rewriters[2].memo == {}


def test_f5_pairs_are_equal():
    for pair in F5_PAIRS:
        assert rmin_test(*_f5_words(pair), 3).kind == RminVerdict.EQUAL


def test_square_of_a_triple_is_reduced_by_its_relation():
    # _square(S) = s t_S - q: of degree 1 in t_S, t_S^2 at every rep, and
    # s = tr(abc) + tr(acb) as polynomials, since abc and acb are the roots
    rng = random.Random(5)
    for m, mask in ((3, 0b111), (4, 0b1101)):
        sq, shift = characters._square(mask), characters._shift_of[mask]
        assert all(mono >> shift & characters._FIELD_MASK <= 1 for mono in sq.terms)
        i, j, k = characters.basis_word(mask)
        s_t = (trace_poly((i, j, k), m) + trace_poly((i, k, j), m)) * TracePoly.var(mask)
        assert TracePoly({mono: c for mono, c in sq.terms.items() if mono >> shift & 1}) == s_t
        # tr(abc) tr(acb) = s t_S - t_S^2 reduces to q
        assert rmin_key(trace_poly((i, j, k), m) * trace_poly((i, k, j), m)) == rmin_key(s_t + -sq)
        for _ in range(3):
            chars = character_values(random_exact_rep(m, rng), m)
            assert sq.evaluate(chars) == chars[mask] ** 2


def test_rmin_key_reduces_every_triple_to_degree_one():
    # tr((abc)^2) = t123^2 - 2 = s t123 - q - 2
    sq = characters._square(0b111)
    assert rmin_key(trace_poly((1, 2, 3, 1, 2, 3), 3)) == rmin_key(sq + TracePoly.const(-2))
    # rank-4 words whose polynomials hold the square of one triple or of two
    for w in ((1, 2, 3, 1, 2, 3, 1, 2, 3), (1, 2, 4, 1, 2, 4, 1, 3, 4, 1, 3, 4), (2, 3, 4, 2, 3, 4, 1, 2, 3, 1, 2, 3)):
        p, key = trace_poly(w, 4), rmin_key(trace_poly(w, 4))
        shifts = [characters._shift_of[mask] for mask in characters._shift_of if mask.bit_count() == 3]
        assert any(mono >> shift & characters._FIELD_MASK > 1 for mono in p.terms for shift in shifts), w
        assert all(mono >> shift & characters._FIELD_MASK <= 1 for mono, _ in key for shift in shifts), w
    # the key is still sign-blind, and its reduced polynomial is still tr
    rng = random.Random(5)
    for _ in range(3):
        rep = random_exact_rep(3, rng)
        w = (1, 2, 3, 1, 3, 2, -1, 2, 3)
        reduced = TracePoly(dict(rmin_key(trace_poly(w, 3))))
        assert abs(reduced.evaluate(character_values(rep, 3))) == abs(sg.evaluate(w, rep).tr())
