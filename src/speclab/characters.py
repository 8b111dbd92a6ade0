"""Trace polynomials in the 2^m - 1 character variables, exact integers.

Every SL2 trace identity used here follows from Cayley-Hamilton:
    tr(U^-1) = tr(U),   tr(UV) = tr(VU),   tr(UV) + tr(UV^-1) = tr(U) tr(V),
plus the symmetrized product rule
    tr(MABN) = -tr(MBAN) + tr(B) tr(MAN) + tr(A) tr(MBN)
               + (tr(AB) - tr(A) tr(B)) tr(MN)
for single letters A, B.  Rewriting terminates because every step strictly
decreases (length, inverse letters, index inversions) lexicographically.

A character variable is a nonempty subset S of {1..m}, encoded as a bitmask;
t_S stands for tr of the ascending product of the generators in S.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from . import surface_group as sg
from .fricke import SurfaceRep
from .mobius import Mat2

# A monomial is one int: the exponent of t_S sits in a 32-bit field of its
# own.  Fields are numbered in the order their masks are first met, so a
# monomial is as wide as the variables in use, not 2^m fields.  A word's
# polynomial has degree at most the word's length, so exponents stay far
# below 2^32, fields never carry, and a product of monomials is their sum.
Monomial = int
_FIELD = 32
_FIELD_MASK = (1 << _FIELD) - 1
_shift_of: dict[int, int] = {}  # mask -> bit offset of its field
_field_masks: list[int] = []  # field number -> mask


def _var(mask: int) -> Monomial:
    """The monomial t_S of the subset bitmask S."""
    shift = _shift_of.get(mask)
    if shift is None:
        shift = _shift_of[mask] = _FIELD * len(_field_masks)
        _field_masks.append(mask)
    return 1 << shift


def _factors(mono: Monomial) -> tuple[tuple[int, int], ...]:
    """((mask, exponent), ...) of a monomial, ascending by mask."""
    out = []
    field = 0
    while mono:
        e = mono & _FIELD_MASK
        if e:
            out.append((_field_masks[field], e))
        mono >>= _FIELD
        field += 1
    out.sort()
    return tuple(out)


def subset_name(mask: int) -> str:
    return "t{" + ",".join(map(str, basis_word(mask))) + "}"


class TracePoly:
    """Integer polynomial in character variables; canonical sparse form."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def const(cls, c: int) -> "TracePoly":
        return cls({0: c})

    @classmethod
    def var(cls, mask: int) -> "TracePoly":
        return cls({_var(mask): 1})

    def __eq__(self, other) -> bool:
        return isinstance(other, TracePoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "TracePoly") -> "TracePoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return TracePoly(out)

    def __neg__(self) -> "TracePoly":
        return TracePoly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "TracePoly") -> "TracePoly":
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = m1 + m2
                out[key] = out.get(key, 0) + c1 * c2
        return TracePoly(out)

    def evaluate(self, char_values: dict[int, object]):
        """Substitute numeric character values keyed by subset bitmask."""
        total = 0
        for mono, coeff in self.terms.items():
            v = coeff
            for mask, e in _factors(mono):
                v *= char_values[mask] ** e
            total += v
        return total

    def text(self) -> str:
        """Canonical text form, terms in graded order, bit-exact: by total
        degree, then by the factor tuples, both descending."""
        if not self.terms:
            return "0"
        terms = []
        for mono, coeff in self.terms.items():
            factors = _factors(mono)
            terms.append((sum(e for _, e in factors), factors, coeff))
        terms.sort(reverse=True)
        parts = []
        for _, factors, coeff in terms:
            sign = "+" if coeff >= 0 else "-"
            body = str(abs(coeff))
            if factors:
                body += "*" + "*".join(
                    subset_name(mask) + (f"^{e}" if e > 1 else "") for mask, e in factors
                )
            parts.append(f"{sign}{body}")
        return " ".join(parts)

    def __repr__(self):
        return f"TracePoly({self.text()})"


# ---------------------------------------------------------------------------
# Rewriting tr(w) into the character basis.
# ---------------------------------------------------------------------------

def _canonical_trace_key(w: sg.Word) -> sg.Word:
    """Minimal representative under cyclic rotation and inversion (both are
    trace-preserving), used as the memo key."""
    return _class_trace_key(sg.least_rotation(w))


def _class_trace_key(w: sg.Word) -> sg.Word:
    """_canonical_trace_key of a word that is already a cyclically reduced
    least rotation, as a ConjClassKey's is.  Candidates with fewer inverse
    letters win so canonicalization never increases the rewriting measure;
    among those, the least rotation in letter order wins.  w stands for its
    own rotations, so only w^-1 is rotated, and only when it may win."""
    n = len(w)
    neg = sum(1 for x in w if x < 0)
    if 2 * neg < n:
        return w
    inv = sg.least_rotation(sg.invert(w))
    if 2 * neg > n:
        return inv
    return min(w, inv, key=sg.letter_code)


def _decreases(parent: sg.Word, w: sg.Word) -> bool:
    """Whether (length, inverse letters, index inversions) of the cyclically
    reduced w is below parent's, deciding each part only when the ones
    before it tie; inversions count on the least rotation of a positive word."""
    if len(w) != len(parent):
        return len(w) < len(parent)
    neg = sum(1 for x in w if x < 0)
    neg_parent = sum(1 for x in parent if x < 0)
    if neg != neg_parent:
        return neg < neg_parent
    return neg == 0 and _inversions(w) < _inversions(parent)


def _inversions(w: sg.Word) -> int:
    lin = sg.least_rotation(w)
    return sum(1 for i in range(len(lin)) for j in range(i + 1, len(lin)) if lin[i] > lin[j])


def _add_shifted(out: dict[Monomial, int], p: TracePoly, sign: int, mono: Monomial = 0) -> None:
    """out += sign * mono * p, in place; zero coefficients are left in."""
    get = out.get
    if mono:
        for m, c in p.terms.items():
            m += mono
            out[m] = get(m, 0) + sign * c
    else:
        # no shift: keep p's monomial ints rather than make new equal ones
        for m, c in p.terms.items():
            out[m] = get(m, 0) + sign * c


class _Rewriter:
    def __init__(self, m: int):
        self.m = m
        self.memo: dict[sg.Word, TracePoly] = {}

    def check(self, w: sg.Word) -> None:
        if any(not 0 < abs(x) <= self.m for x in w):
            raise ValueError(f"word uses generators beyond rank {self.m}")

    def trace(self, w) -> TracePoly:
        w = sg.cyclic_reduce(w)
        self.check(w)
        return self.keyed(_canonical_trace_key(w))

    def keyed(self, key: sg.Word) -> TracePoly:
        """The polynomial of a memo key whose letters are checked."""
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        result = self._rewrite(key)
        self.memo[key] = result
        return result

    def _child(self, parent: sg.Word, w) -> TracePoly:
        """tr(w) for a word w that a rewrite step of parent produced.

        The step must strictly decrease (length, inverse letters, index
        inversions).  Every memo key is its own canonical key, so a w that
        is a memo key is looked up without canonicalizing it."""
        w = sg.cyclic_reduce(w)
        if not _decreases(parent, w):
            raise RuntimeError(f"rewriting {parent} produced {w}, which does not decrease the measure")
        hit = self.memo.get(w)
        if hit is not None:
            return hit
        return self.keyed(_canonical_trace_key(w))

    def _rewrite(self, w: sg.Word) -> TracePoly:
        """One trace identity applied to the memo key w, summed into one term
        dict: multiplying by t_S adds its monomial to every term."""
        n = len(w)
        if n == 0:
            return TracePoly.const(2)
        if n == 1:
            return TracePoly.var(1 << (abs(w[0]) - 1))
        out: dict[Monomial, int] = {}

        # 1. eliminate inverse letters: tr(U s^-1) = tr(U) tr(s) - tr(U s),
        # U read cyclically from position 0 of w, so a child starts where
        # the key does and is usually a memo key itself
        for k in range(n):
            if w[k] < 0:
                i = -w[k]
                head, tail = w[:k], w[k + 1 :]
                _add_shifted(out, self._child(w, head + tail), 1, _var(1 << (i - 1)))
                _add_shifted(out, self._child(w, head + (i,) + tail), -1)
                return TracePoly(out)

        # 2. split a repeated letter: tr(s U s V) = tr(sU) tr(sV) - tr(V U^-1)
        positions: dict[int, int] = {}
        for k in range(n):
            i = w[k]
            if i in positions:
                p = positions[i]
                rot = w[p:] + w[:p]  # starts with s at position 0
                q = k - p
                U = rot[1:q]
                V = rot[q + 1 :]
                get = out.get
                left = self._child(w, (i,) + U).terms
                right = self._child(w, (i,) + V).terms
                for m1, c1 in left.items():
                    for m2, c2 in right.items():
                        key = m1 + m2
                        out[key] = get(key, 0) + c1 * c2
                _add_shifted(out, self._child(w, V + sg.invert(U)), -1)
                return TracePoly(out)
            positions[i] = k

        # 3. distinct positive letters: sort toward the ascending basis word
        # (w is a memo key, hence already its own least rotation)
        descent = None
        for j in range(len(w) - 1):
            if w[j] > w[j + 1]:
                descent = j
                break
        if descent is None:
            mask = 0
            for x in w:
                mask |= 1 << (x - 1)
            return TracePoly.var(mask)
        # tr(MabN) = -tr(MbaN) + t_b tr(MaN) + t_a tr(MbN) + (t_ab - t_a t_b) tr(MN)
        a, b = w[descent], w[descent + 1]
        M = w[:descent]
        N = w[descent + 2 :]
        t_a = _var(1 << (a - 1))
        t_b = _var(1 << (b - 1))
        _add_shifted(out, self._child(w, M + (b, a) + N), -1)
        _add_shifted(out, self._child(w, M + (a,) + N), 1, t_b)
        _add_shifted(out, self._child(w, M + (b,) + N), 1, t_a)
        mn = self._child(w, M + N)
        _add_shifted(out, mn, 1, _var((1 << (a - 1)) | (1 << (b - 1))))
        _add_shifted(out, mn, -1, t_a + t_b)
        return TracePoly(out)


_rewriters: dict[int, _Rewriter] = {}


def _rewriter(m: int) -> _Rewriter:
    rw = _rewriters.get(m)
    if rw is None:
        rw = _rewriters[m] = _Rewriter(m)
    return rw


def trace_poly(w, m: int) -> TracePoly:
    """Universal polynomial with tr(phi(w)) = P_w(characters) for all SL2 phi."""
    return _rewriter(m).trace(tuple(w))


# ---------------------------------------------------------------------------
# Numeric / exact evaluation and the R_min relation.
# ---------------------------------------------------------------------------

def basis_word(mask: int) -> sg.Word:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def character_values(rep, m: int) -> dict[int, object]:
    """tr of every ascending square-free basis word of the first m generators."""
    out = {}
    for mask in range(1, 1 << m):
        out[mask] = sg.evaluate(basis_word(mask), rep).tr()
    return out


def random_exact_rep(m: int, rng: random.Random):
    """Random integer SL2 representation (products of elementary matrices)."""
    mats = []
    for _ in range(m):
        mat = Mat2(1, 0, 0, 1)
        for _ in range(4):
            r = rng.randint(-3, 3)
            if rng.random() < 0.5:
                mat = mat * Mat2(1, r, 0, 1)
            else:
                mat = mat * Mat2(1, 0, r, 1)
        mats.append(mat)
    return SurfaceRep.free_rep(mats)


@dataclass(frozen=True)
class RminVerdict:
    kind: str  # "equal" | "probably_equal" | "distinct"

    EQUAL = "equal"
    PROBABLY_EQUAL = "probably_equal"
    DISTINCT = "distinct"


def rmin_key(p: TracePoly) -> tuple:
    """The one R_min key: P and -P share it, and nothing else does.

    Z[t_S] is an integral domain, so P1^2 = P2^2 exactly when P1 = +-P2; the
    key is the term tuple of P sorted by monomial, negated when its first
    coefficient is negative."""
    terms = sorted(p.terms.items())
    if terms and terms[0][1] < 0:
        return tuple((mono, -c) for mono, c in terms)
    return tuple(terms)


def _colliding(live, group) -> list:
    """The positions in live whose group another position in live shares."""
    seen = Counter(group[i] for i in live)
    return [i for i in live if seen[group[i]] > 1]


def _split(live, group, traces) -> tuple[list, bool]:
    """Split the groups of the positions in live by |tr| at one rep, in
    place; traces are in live's order.  The positions that still share a
    group, and whether any group split."""
    ids: dict[tuple, int] = {}
    for i, t in zip(live, traces):
        group[i] = ids.setdefault((group[i], abs(t)), len(ids))
    return _colliding(live, group), len(ids) > len({g for g, _ in ids})


def _class_at(w: sg.Word, pos: dict, letters):
    """pos[r] for the first rotation r of w that starts at w's least letter
    (the first of letters, 1, -1, 2, -2, ..., in w) and is a key of pos, or
    None.  A least rotation starts at a least letter, so when pos is keyed
    by least rotations this is the position of w's class."""
    for lo in letters:
        if lo in w:
            break
    k = -1
    for _ in range(w.count(lo)):
        k = w.index(lo, k + 1)
        hit = pos.get(w[k:] + w[:k])
        if hit is not None:
            return hit
    return None


def rmin_pairs(classes, m: int, seed: int = 0, n_reps: int = 16):
    """Partition classes by provable R_min equality; flag numeric-only
    coincidences (equal |tr| at every sampled rep, distinct as polynomials).

    tr rho(w) = P_w(characters of rho) exactly at an integer rep, so |tr| of
    a word there is |P| of its key +-P, and one rep where |tr| differs
    proves two memo keys lie in different blocks.  Reps are drawn from one
    seeded stream, n_reps at most, in two phases on the same memo-key
    positions:

    1. Memo keys are grouped by |tr| of their first class until a rep
       splits no group.  A rep at which every key still grouped has
       |tr| = 2, as the identity and commuting unipotents give, is no
       such rep: ending there would leave all those keys to be rewritten.
       A key alone in its group is its own block, with no rewrite; only
       the keys that share a group are rewritten to their R_min keys, and
       each is labelled with its block's first position.
       At rank 2 a key first takes the lower position of its reversal
       orbit, and only orbits that share a group with another orbit are
       rewritten, once per orbit.  (A, B) -> (A^-1, B^-1) fixes t1, t2 and
       t12, and Z[t1, t2, t12] is the whole character ring of F2, so
       P_reverse(w) = P_(w letterwise inverted) = P_w exactly.  At rank 3
       the map swaps t123 and t132, and abc, cba are distinct.
    2. Labels that still agree at every rep so far draw the further reps,
       while two labels agree, each evaluated on those labels only.

    Flagged are the pairs of distinct blocks that agree at every rep, so
    neither the partition nor the flags depend on when a rep is drawn.
    Blocks come in first-seen order.

    Contract: each class word must be its class's cyclically reduced least
    rotation, as enumerate_classes and canonical_class make it; checking it
    would cost the rotation per class that the lookups avoid.  A class
    with fewer than half its letters inverse is its own memo key; other
    classes find their inverse class, and rank-2 keys their reverse class,
    by _class_at in a word -> position dict of the list, and a class whose
    inverse class is missing is keyed by rotating its inverse.  So a bad
    key such as ConjClassKey((2, 1)) is merged with its reverse (1, 2) at
    rank 2 and ends in a RuntimeError from the rewriter at rank 3.  A
    class and its inverse share a memo key, found once."""
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    rw = _rewriter(m)
    classes = list(classes)
    words = [cls.word for cls in classes]
    pos = dict(zip(words, range(len(words))))  # class word -> position
    letters = [x for k in range(1, m + 1) for x in (k, -k)]
    negs = letters[1::2]
    keyed = []  # memo key of each class
    first: dict[sg.Word, object] = {}  # memo key -> its first class
    for w, cls in zip(words, classes):
        key = w
        neg = sum(map(w.count, negs))
        if 2 * neg >= len(w):  # the key may be the inverse class's word
            j = _class_at(sg.invert(w), pos, letters)
            if j is None:
                key = _class_trace_key(w)
            elif 2 * neg > len(w) or sg.letter_code(words[j]) < sg.letter_code(w):
                key = words[j]
        if key not in first:
            first[key] = cls
        keyed.append(key)
    keys = list(first)
    rw.check(set().union(*keys))  # before any key reaches a rep or the memo
    rng = random.Random(seed)
    drawn = 0
    # 1. group memo keys by |tr| until a rep splits no group; a rep that
    # gives every live key |tr| 2 tells none apart and does not end it
    group = [0] * len(keys)
    live, split = _colliding(range(len(keys)), group), True
    program = sg.compile_classes(first.values())
    while live and split and drawn < n_reps:
        traces = program.traces(random_exact_rep(m, rng))
        drawn += 1
        traces = [traces[i] for i in live]
        if any(abs(t) != 2 for t in traces):
            live, split = _split(live, group, traces)
    del program  # the rewrites below grow the memo; free the tree first
    # a key's label is the position of the first key of its block, so an
    # R_min key is held once per block, not once per key
    label = list(range(len(keys)))
    if m == 2:
        # a key and the key of its reverse share a block (step 1 above):
        # both take the lower position, and only that one may be rewritten.
        # The reverse's key is its class's, or that class's inverse's; live
        # ascends, so a key labelled lower was labelled by its partner
        at = {key: i for i, key in enumerate(keys)}
        for i in live:
            if label[i] < i:
                continue
            rev = keys[i][::-1]
            j = _class_at(rev, pos, letters)
            if j is None:
                j = _class_at(sg.invert(rev), pos, letters)
            if j is not None:
                k = at[keyed[j]]
                label[k] = label[i] = min(i, k)
    label_at: dict[tuple, int] = {}  # R_min key -> label
    for i in _colliding([i for i in live if label[i] == i], group):
        label[i] = label_at.setdefault(rmin_key(rw.keyed(keys[i])), i)
    for i in live:  # each key takes its orbit's label
        label[i] = label[label[i]]
    # 2. the same stream, while two labels agree at every rep so far; a
    # label keeps its keys' phase-1 group, as they agree in |tr| at any rep
    live = _colliding(sorted({label[i] for i in live}), group)
    while len(live) > 1 and drawn < n_reps:
        rep = random_exact_rep(m, rng)
        drawn += 1
        live, _ = _split(live, group, sg.compile_classes([first[keys[i]] for i in live]).traces(rep))
    # live ascends, so groups come in the order of their first block
    groups: dict[int, list] = {}
    for i in live:
        groups.setdefault(group[i], []).append(first[keys[i]])
    flagged = [pair for g in groups.values() for pair in combinations(g, 2)]
    # classes grouped by label; labels ascend, as blocks come first-seen
    blocks: dict[int, list] = {}
    block_of = {key: blocks.setdefault(at, []) for key, at in zip(keys, label)}
    for key, cls in zip(keyed, classes):
        block_of[key].append(cls)
    return [tuple(v) for v in blocks.values()], flagged


def rmin_test(w1, w2, m: int, seed: int = 0, n_reps: int = 16) -> RminVerdict:
    """Decide the minimal-pattern relation between two words: rmin_pairs on
    their two classes.

    One block (P1 = +-P2) is a proof of equality; a flagged pair agreed in
    |tr| at every seeded rep; otherwise a rep told them apart, and the
    verdict replays from (seed, n_reps).  A word that reduces to the
    identity has no class: canonical_class raises EmptyWord."""
    partition, flagged = rmin_pairs([sg.canonical_class(w1), sg.canonical_class(w2)], m, seed, n_reps)
    if len(partition) == 1:
        return RminVerdict(RminVerdict.EQUAL)
    if flagged:
        return RminVerdict(RminVerdict.PROBABLY_EQUAL)
    return RminVerdict(RminVerdict.DISTINCT)
