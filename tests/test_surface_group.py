import itertools
import random
from math import gcd

import pytest

import speclab.surface_group as sg
from speclab.mobius import Mat2, identity
from speclab.characters import random_exact_rep
from speclab.surface_group import (
    ConjClassKey,
    EmptyWord,
    Presentation,
    WordError,
    canonical_class,
    class_traces,
    compile_classes,
    cyclic_reduce,
    enumerate_classes,
    evaluate,
    free_reduce,
    invert,
    least_rotation,
    letter_code,
    letter_names,
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


def test_relator_genus_two_one_puncture():
    p = Presentation(genus=2, punctures=1)
    assert relator(p) == (1, 2, -1, -2, 3, 4, -3, -4, 5)


def test_presentation_needs_a_puncture():
    for genus in (1, 2):
        with pytest.raises(ValueError, match="punctures >= 1"):
            Presentation(genus, 0)


def test_presentation_needs_a_nonnegative_genus():
    # 2g + n >= 3 holds at (g,n) = (-1,5), but no surface has genus -1
    for genus, punctures in ((-1, 5), (-2, 9)):
        with pytest.raises(ValueError, match=f"need genus >= 0, got {genus}"):
            Presentation(genus, punctures)


def test_presentation_needs_free_rank_two():
    # a sphere with two punctures has the cyclic group Z: every class is a
    # power of one generator, so there is no length pattern to compare
    for genus, punctures in ((0, 1), (0, 2)):
        with pytest.raises(ValueError, match=r"need 2g \+ n >= 3 \(free rank >= 2\)"):
            Presentation(genus, punctures)
    assert Presentation(0, 3).free_rank == 2


def test_canonical_class_conjugation_invariance():
    rng = random.Random(7)
    letters = [1, 2, -1, -2]
    for _ in range(50):
        w = tuple(rng.choice(letters) for _ in range(6))
        u = tuple(rng.choice(letters) for _ in range(3))
        conj = free_reduce(u + w + invert(u))
        try:
            k1 = canonical_class(w)
        except EmptyWord:
            continue
        assert canonical_class(conj) == k1


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


def _phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@pytest.mark.parametrize("m,maxlen", [(2, 10), (3, 7), (4, 5), (5, 4), (6, 3)])
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


def _order(v):
    return (len(v), [(abs(x), x < 0) for x in v])


def _brute_force_ordered(p, maxlen):
    """Every cyclically reduced word, keyed by its least rotation,
    deduplicated and sorted."""
    letters = [x for k in range(1, p.free_rank + 1) for x in (k, -k)]
    keys = set()
    for L in range(1, maxlen + 1):
        for w in itertools.product(letters, repeat=L):
            if not any(w[i] == -w[(i + 1) % L] for i in range(L)):
                keys.add(_naive_least_rotation(w))
    return sorted(keys, key=_order)


@pytest.mark.parametrize(
    "g,n,maxlen",
    [(1, 1, 7), (1, 2, 5), (1, 3, 4), (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 4, 3),
     (1, 1, 8)],
    ids=["m2", "m3", "m4", "m2-L1", "m2-L2", "m3-L1", "m3-L2", "m5-L3", "m2-L8"],
)
@pytest.mark.parametrize("inverted", [False, True])
def test_enumerate_classes_matches_brute_force_order(g, n, maxlen, inverted):
    p = Presentation(g, n)
    words = [k.word for k in enumerate_classes(p, maxlen)]
    if inverted:
        # the class list is closed under inversion: keying every inverse
        # gives back the same list once sorted
        words = sorted((canonical_class(invert(w)).word for w in words), key=_order)
    assert words == _brute_force_ordered(p, maxlen)


def test_least_rotation_matches_naive():
    rng = random.Random(2000)
    for _ in range(3000):
        # small alphabets give periodic words and ties between least letters
        letters = [1, -1, 2, -2, 3, -3][: rng.choice((1, 2, 4, 6))]
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 12)))
        assert least_rotation(w) == _naive_least_rotation(w)


def _reduced_words(letters, length):
    """Every freely reduced word of the given length over letters."""
    words = [()]
    for _ in range(length):
        words = [w + (x,) for w in words for x in letters if not w or w[-1] != -x]
    return words


def _least_rotation_by_code(w):
    return min((w[i:] + w[:i] for i in range(len(w))), key=letter_code, default=w)


def test_least_rotation_all_short_rank2_words():
    for n in range(7):
        for w in _reduced_words([1, -1, 2, -2], n):
            assert least_rotation(w) == _least_rotation_by_code(w)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_least_rotation_seeded_words(m):
    rng = random.Random(m)
    letters = [x for k in range(1, m + 1) for x in (k, -k)]
    repeats = 0
    for _ in range(2000):
        n = rng.randint(1, 12)
        if rng.random() < 0.5:
            # a short block repeated: the least letter occurs more than once
            block = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
            w = (block * n)[:n]
        else:
            w = tuple(rng.choice(letters) for _ in range(n))
        w = free_reduce(w)
        code = letter_code(w)
        repeats += bool(code) and code.count(min(code)) > 1
        assert least_rotation(w) == _least_rotation_by_code(w)
    assert repeats > 500


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


def _chain(w, rep):
    """Entries of the left-to-right Mat2.__mul__ chain from the identity:
    the oracle of `evaluate` and of the compiled programs, which do not
    call Mat2.__mul__."""
    out = identity()
    for x in w:
        m = rep.matrix(abs(x))
        out = out * (m if x > 0 else m.inverse())
    return out.entries()


def _run(words, rep):
    """Traces of the words from one compiled program."""
    program = compile_classes(map(ConjClassKey, words))
    assert [k.word for k in program.classes] == list(words)
    return program.traces(rep)


def _chain_traces(words, rep):
    return [a + d for a, _, _, d in (_chain(w, rep) for w in words)]


# These tests keep the ids they had when given lists were evaluated by
# `evaluate_many`, which the compiled program replaced; they test the program.
@pytest.mark.parametrize(
    "p,maxlen,rep",
    [
        (F2, 8, schottky_sample(3, 2)),
        (F2, 8, modular_torus_rep()),
        (Presentation(1, 2), 6, schottky_sample(4, 3)),
    ],
    ids=["m2-float", "m2-exact", "m3-float"],
)
@pytest.mark.parametrize("inverted", [False, True])
def test_evaluate_many_matches_evaluate_on_class_lists(p, maxlen, rep, inverted):
    for L in range(1, maxlen + 1):
        words = [k.word for k in enumerate_classes(p, L)]
        if inverted:
            # inverse words are not least rotations: the program must not
            # depend on the canonical form
            words = [invert(w) for w in words]
        # the same scalar sums in the same order: equal traces, floats by repr
        assert list(map(repr, _run(words, rep))) == list(map(repr, _chain_traces(words, rep)))
    assert [evaluate(w, rep).entries() for w in words] == [_chain(w, rep) for w in words]


@pytest.mark.parametrize(
    "p,rep",
    [
        (F2, schottky_sample(3, 2)),
        (F2, modular_torus_rep()),
        (Presentation(1, 2), schottky_sample(4, 3)),
    ],
    ids=["float", "exact", "m3-float"],
)
def test_evaluate_many_any_order(p, rep):
    words = [k.word for k in enumerate_classes(p, 5)]
    rng = random.Random(5)
    shuffled = rng.choices(words, k=2 * len(words))  # repeats, and no shared order
    inverted = [invert(w) for w in rng.sample(words, len(words))]
    for ws in (shuffled, inverted, [(1, 2), (1, 2), (1,)], [(1, -2, 1)], []):
        traces = _run(ws, rep)
        assert list(map(repr, traces)) == list(map(repr, _chain_traces(ws, rep)))
        if all(m.exact() for m in rep.matrices):
            assert all(type(t) is int for t in traces)


WALK_REPS = {
    "m2-float": schottky_sample(3, 2),
    "m2-exact": random_exact_rep(2, random.Random(2)),
    "m2-modular": modular_torus_rep(),
    "m3-float": schottky_sample(4, 3),
    "m3-exact": random_exact_rep(3, random.Random(3)),
    "m4-float": schottky_sample(5, 4),
    "m4-exact": random_exact_rep(4, random.Random(4)),
}


@pytest.mark.parametrize("rep", list(WALK_REPS.values()), ids=list(WALK_REPS))
def test_class_traces_match_evaluate_many(rep):
    exact = all(m.exact() for m in rep.matrices)
    for maxlen in range(1, 7):
        keys, traces = class_traces(rep, maxlen)
        assert keys == enumerate_classes(rep.presentation, maxlen)
        program = compile_classes(keys).traces(rep)
        chain = _chain_traces([k.word for k in keys], rep)
        if exact:
            assert traces == program == chain
            assert all(type(t) is int for t in traces + program)
        else:
            # bit-identical floats, signed zeros included
            assert list(map(repr, traces)) == list(map(repr, program)) == list(map(repr, chain))


def test_every_engine_reads_one_letter_table(monkeypatch):
    # the walk, the compiled program and evaluate take every letter's
    # entries from _letter_table, once per call: handed another rep's
    # table, each gives that rep's traces
    rep, other = schottky_sample(3, 2), modular_torus_rep()
    program = compile_classes(enumerate_classes(F2, 4))
    engines = {
        "class_traces": lambda r: class_traces(r, 4)[1],
        "ClassProgram.traces": program.traces,
        "evaluate": lambda r: evaluate((1, -2, 1, 2), r).entries(),
    }
    want = {name: run(other) for name, run in engines.items()}
    real, calls = sg._letter_table, []

    def swapped(r):
        calls.append(r)
        return real(other)

    monkeypatch.setattr(sg, "_letter_table", swapped)
    for name, run in engines.items():
        calls.clear()
        assert run(rep) == want[name], name
        assert calls == [rep], name


def test_walks_reject_maxlen_below_one():
    with pytest.raises(ValueError, match="maxlen must be >= 1"):
        enumerate_classes(F2, 0)
    with pytest.raises(ValueError, match="maxlen must be >= 1"):
        class_traces(modular_torus_rep(), 0)


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
    keys = enumerate_classes(F2, 8)
    program = compile_classes(keys)
    monkeypatch.setattr(_Counted, "products", 0)
    out = [t.x for t in program.traces(counted)]
    # one 2x2 multiply (8 scalar products) per distinct proper prefix in the
    # whole list, and 4 scalar products per word for its trace; prefixes
    # shared with the previous word only would make 1711 nodes, not 1028
    prefixes = {k.word[:n] for k in keys for n in range(1, len(k.word))}
    assert len(prefixes) == 1028 and len(keys) == 1386
    assert _Counted.products == 8 * len(prefixes) + 4 * len(keys) == 13768
    assert out == program.traces(rep)


def _prenecklaces(rank, n):
    """Words of length n with no letter next to its inverse whose every
    proper suffix is >= the prefix of its length, in letter_code order."""
    letters = [x for k in range(1, rank + 1) for x in (k, -k)]
    codes = map(letter_code, _reduced_words(letters, n))
    return sum(all(c[i:] >= c[: n - i] for i in range(1, n)) for c in codes)


@pytest.mark.parametrize("m,maxlen,nodes,products", [(2, 8, 1074, 14136), (3, 5, 322, 6048)])
def test_class_traces_multiplies_once_per_prenecklace(monkeypatch, m, maxlen, nodes, products):
    rep = schottky_sample(1, m)
    counted = SurfaceRep(
        rep.presentation, tuple(Mat2(*map(_Counted, g.entries())) for g in rep.matrices)
    )
    monkeypatch.setattr(_Counted, "products", 0)
    keys, traces = class_traces(counted, maxlen)
    # one walk for every length: one 2x2 multiply (8 scalar products) per
    # prenecklace shorter than maxlen, and 4 scalar products per class for
    # its trace; a walk per length would make 19792 at (2,8), 6992 at (3,5)
    assert sum(_prenecklaces(m, n) for n in range(1, maxlen)) == nodes
    assert _Counted.products == 8 * nodes + 4 * len(keys) == products
    assert [t.x for t in traces] == compile_classes(keys).traces(rep)


@pytest.mark.parametrize(
    "genus,punctures,generators",
    [(0, 3, "g1 g2 g3"), (1, 1, "a1 b1 g1"), (2, 1, "a1 b1 a2 b2 g1"), (2, 3, "a1 b1 a2 b2 g1 g2 g3")],
    ids=["0-3", "1-1", "2-1", "2-3"],
)
def test_word_text_roundtrip(genus, punctures, generators):
    # letter_names is the one name table: each name it prints, lower case
    # for a generator and upper case for its inverse, parses to its letter
    p = Presentation(genus=genus, punctures=punctures)
    names = letter_names(p)
    assert [names[k] for k in range(1, p.num_generators + 1)] == generators.split()
    assert sorted(names) == [x for x in range(-p.num_generators, p.num_generators + 1) if x]
    for x, name in names.items():
        assert name == (name.lower() if x > 0 else name.upper())
        assert parse_word(name, p) == (x,)
    texts = ["abAB", "g1", " ".join(names.values())] + (["a1 B1 a1", "a1"] if genus else [])
    for text in texts:
        w = parse_word(text, p)
        assert parse_word(" ".join(map(names.__getitem__, w)), p) == w


def test_parse_word_compact_letters_up_to_26_generators():
    p = Presentation(genus=0, punctures=27)
    for k in range(1, 27):
        assert parse_word(chr(ord("a") + k - 1), p) == (k,)
        assert parse_word(chr(ord("A") + k - 1), p) == (-k,)
    assert parse_word("azZ", p) == (1,) and parse_word("g27 G26", p) == (27, -26)
    # past the generators there is no compact letter
    with pytest.raises(WordError, match="^unknown generator token 'd'$"):
        parse_word("abd", F2)


def test_parse_word_names_an_unknown_token():
    with pytest.raises(WordError, match="^unknown generator token 'x9'$"):
        parse_word("a1 x9 b1", F2)


def test_parse_word_compact_and_spaced_agree():
    assert parse_word("abAB", F2) == parse_word("a1 b1 A1 B1", F2)


def test_canonical_class_rejects_trivial():
    with pytest.raises(EmptyWord):
        canonical_class((1, -1))


def test_class_key_str_compact():
    k = canonical_class(parse_word("abAB", F2))
    assert str(k).isalpha()
