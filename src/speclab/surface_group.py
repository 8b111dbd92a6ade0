"""Surface-group presentations, words, conjugacy classes, enumeration.

Words are tuples of nonzero signed generator indices (1-based): +k is the
k-th generator, -k its inverse.  Only punctured surfaces (n >= 1) are
presented: the group is free on the first 2g + n - 1 generators, and the
last puncture generator is carried by the presentation only (it equals the
inverse of the rest of the relator).  A conjugacy class is therefore keyed
by the least rotation of a cyclically reduced word.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .mobius import Mat2

Word = tuple[int, ...]


class WordError(Exception):
    pass


class EmptyWord(WordError):
    pass


@dataclass(frozen=True)
class Presentation:
    """Genus-g surface with n punctures; generators a_i, b_i (i<=g), g_j (j<=n)."""

    genus: int
    punctures: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError(f"need genus >= 0, got {self.genus}")
        if self.punctures < 1:
            raise ValueError(f"need punctures >= 1 (no closed surfaces), got {self.punctures}")
        if 2 * self.genus + self.punctures < 3:
            raise ValueError(
                f"need 2g + n >= 3 (free rank >= 2), got (g,n)=({self.genus},{self.punctures})"
            )

    @classmethod
    def free(cls, m: int) -> "Presentation":
        """The punctured surface whose group is free of rank m: genus 1 with
        m - 1 punctures.  ValueError for m < 2."""
        if m < 2:
            raise ValueError(f"need m >= 2, got {m}")
        return cls(genus=1, punctures=m - 1)

    @property
    def num_generators(self) -> int:
        """All presentation generators, punctures included."""
        return 2 * self.genus + self.punctures

    @property
    def free_rank(self) -> int:
        """Rank of the free group: every generator but the last puncture's."""
        return 2 * self.genus + self.punctures - 1


def free_reduce(raw) -> Word:
    out: list[int] = []
    for x in raw:
        if x == 0:
            raise WordError("letter 0 is not a generator")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def cyclic_reduce(w: Word) -> Word:
    w = free_reduce(w)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def letter_code(w) -> list[int]:
    """Integer letter codes 2|x| + (x < 0): comparing code lists compares
    words in letter order a1 < A1 < b1 < B1 < a2 < ..."""
    return [2 * x if x > 0 else 1 - 2 * x for x in w]


def least_rotation(w: Word) -> Word:
    """Least rotation of w in letter order.  A least rotation starts at a
    least letter, so only those rotations are compared, and none when the
    least letter occurs once."""
    if len(w) < 2:
        return w
    code = letter_code(w)
    lo = min(code)
    best = k = code.index(lo)
    repeats = code.count(lo) - 1
    if repeats:
        least = code[k:] + code[:k]
        for _ in range(repeats):
            k = code.index(lo, k + 1)
            rot = code[k:] + code[:k]
            if rot < least:
                best, least = k, rot
    return w[best:] + w[:best]


def relator(p: Presentation) -> Word:
    raw: list[int] = []
    for i in range(1, p.genus + 1):
        a, b = 2 * i - 1, 2 * i
        raw += [a, b, -a, -b]
    for j in range(1, p.punctures + 1):
        raw.append(2 * p.genus + j)
    return free_reduce(raw)


class ConjClassKey(NamedTuple):
    """A class's least cyclic rotation; a plain 1-tuple, so hashing and
    equality are tuple-speed."""

    word: Word

    def __str__(self) -> str:
        # compact letter syntax (a..z, uppercase = inverse); signed-int
        # fallback for ranks past 26
        if all(1 <= abs(x) <= 26 for x in self.word):
            return "".join(
                chr(ord("A" if x < 0 else "a") + abs(x) - 1) for x in self.word
            )
        return " ".join(str(x) for x in self.word)


def canonical_class(w) -> ConjClassKey:
    """Canonical cyclic form naming the conjugacy class of w in a free
    group: the least rotation of its cyclic reduction."""
    w = cyclic_reduce(w)
    if not w:
        raise EmptyWord("trivial class has no key")
    return ConjClassKey(least_rotation(w))


def _necklaces(rank: int, maxlen: int, table=None):
    """One key per class of cyclic length <= maxlen, each its least rotation,
    sorted by (length, letter order); with a `table`, also each key's trace.

    These are the necklaces over the 2m letters with no letter next to its
    inverse, wrap-around included.  One depth-first walk of the FKM
    prenecklace tree (Cattell, Ruskey, Sawada, Serra & Miers, J. Algorithms
    37, 2000) to depth maxlen lists every length: it runs over letter
    indices in letter order, is cut wherever a letter follows its inverse,
    and keeps a prenecklace of length n whose longest Lyndon prefix p
    divides n and whose last letter is not the inverse of its first.

    Each call keeps the children of its prefix a[:t] that are keys: the
    child a[t] = a[t - p] keeps the Lyndon prefix p, so it is a key only
    when p divides t + 1, and any larger letter makes the whole child its
    own Lyndon prefix.  Keys go into one list per length, joined shortest
    first; a depth-first walk meets the words of one length in letter
    order.

    `table` is `_letter_table(rep)`, read as table[x] once per letter
    index.  Each call extends its prefix's product by one letter for each
    child it visits, one 2x2 multiply per prenecklace shorter than maxlen,
    left to right from the identity (1, 0, 0, 1) with the sums of
    Mat2.__mul__; each key's trace, prefix times last letter, is
    (A P + B R) + (C Q + D S).  That is `a + d` of the chain `evaluate`
    forms, so every trace is bit-identical to it.  Returns (keys, traces);
    traces is None without `table`."""
    if maxlen < 1:
        raise ValueError("maxlen must be >= 1")
    letters = [x for k in range(1, rank + 1) for x in (k, -k)]  # index j ^ 1 is the inverse
    k = len(letters)
    one = [(x,) for x in letters]
    new = tuple.__new__  # ConjClassKey(w) without its Python-level __new__
    keys = [[] for _ in range(maxlen)]  # keys[t] holds the keys of length t + 1, as traces[t] does
    gens = None if table is None else [table[x] for x in letters]
    traces = None if table is None else [[] for _ in range(maxlen)]
    a = [0] * maxlen

    def visit(t: int, p: int, word: Word, m) -> None:
        # word is a[:t], p its longest Lyndon prefix, m its product or None;
        # the root has no letter to repeat, cut or wrap round to
        lo, cut, first = (a[t - p], a[t - 1] ^ 1, a[0] ^ 1) if t else (0, -1, -1)
        keys_t = keys[t]
        if m is not None:
            A, B, C, D = m
            traces_t = traces[t]
        for j in range(lo if (t + 1) % p == 0 else lo + 1, k):
            if j != cut and j != first:
                keys_t.append(new(ConjClassKey, (word + one[j],)))
                if m is not None:
                    P, Q, R, S = gens[j]
                    traces_t.append((A * P + B * R) + (C * Q + D * S))
        if t + 1 == maxlen:
            return
        child = None
        for j in range(lo, k):
            if j != cut:
                a[t] = j
                if m is not None:
                    P, Q, R, S = gens[j]
                    child = A * P + B * R, A * Q + B * S, C * P + D * R, C * Q + D * S
                visit(t + 1, p if j == lo else t + 1, word + one[j], child)

    visit(0, 1, (), None if gens is None else (1, 0, 0, 1))
    del visit  # visit's cell holds visit: break that cycle, or it keeps the walk's lists until a gc
    for runs in keys, traces:
        if runs is not None:  # shortest first, into the last and longest list, which is not copied
            runs[-1][:0] = chain.from_iterable(runs[:-1])
    return keys[-1], None if traces is None else traces[-1]


def enumerate_classes(p: Presentation, maxlen: int) -> list[ConjClassKey]:
    """One key per conjugacy class of cyclic length <= maxlen, sorted by
    (length, letter order).  Deterministic and duplicate-free."""
    return _necklaces(p.free_rank, maxlen)[0]


def class_traces(rep, maxlen: int) -> tuple[list[ConjClassKey], list]:
    """enumerate_classes(rep.presentation, maxlen) and the trace a + d of
    each class word's product, from one walk of the prenecklace tree to
    depth maxlen: one 2x2 multiply per prenecklace shorter than maxlen and
    4 scalar products per class.  Each trace is bit-identical to `a + d`
    from `evaluate` and to the trace a `ClassProgram` reads."""
    return _necklaces(rep.presentation.free_rank, maxlen, _letter_table(rep))


def _letter_table(rep) -> dict:
    """Entries of each letter's matrix: +k the k-th of `rep.matrices`, -k
    its inverse.  The one source of letter entries for every trace engine:
    `evaluate`, `ClassProgram.traces` and the walk of `class_traces`."""
    gens = {}
    for k, m in enumerate(rep.matrices, 1):
        gens[k] = m.entries()
        gens[-k] = m.inverse().entries()
    return gens


def evaluate(w, rep) -> Mat2:
    """Product of generator matrices along the word, folded left to right
    from the identity (1, 0, 0, 1) with the sums of Mat2.__mul__."""
    gens = _letter_table(rep)
    a, b, c, d = 1, 0, 0, 1
    for x in w:
        p, q, r, s = gens[x]
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return Mat2(a, b, c, d)


class ClassProgram(NamedTuple):
    """A list of class keys compiled once to the products its traces need,
    then run once per rep (`traces`).

    This serves a class list run at many reps: a scan compiles its shared
    classes once for all trials, and `rmin_pairs` its fingerprint words.
    The spectrum of all classes up to a length at one rep takes its traces
    from the prenecklace walk instead (`class_traces`), which builds no
    tree and multiplies once per prenecklace it passes.

    The program is a prefix tree over the whole list: node 0 is the empty
    prefix, and node i > 0 is (parent node, letter), one node per distinct
    proper prefix of a word.  A word is (node of its prefix, last letter).
    Products are formed left to right from (1, 0, 0, 1) with the sums of
    Mat2.__mul__, and a word's trace is read as (A P + B R) + (C Q + D S)
    from its prefix's product and its last letter, so every trace is
    bit-identical to `a + d` of `evaluate`."""

    classes: tuple  # the compiled keys, in the order given
    nodes: tuple  # (parent node, letter) of nodes 1, 2, ...
    leaves: tuple  # (prefix node, last letter) of each class

    def traces(self, rep) -> list:
        """The trace of each class's product under rep, in class order:
        ints for an exact rep, as `evaluate` gives them."""
        gens = _letter_table(rep)
        prods = [(1, 0, 0, 1)]
        add = prods.append
        for parent, x in self.nodes:
            A, B, C, D = prods[parent]
            P, Q, R, S = gens[x]
            add((A * P + B * R, A * Q + B * S, C * P + D * R, C * Q + D * S))
        out = []
        add = out.append
        for node, x in self.leaves:
            A, B, C, D = prods[node]
            P, Q, R, S = gens[x]
            add((A * P + B * R) + (C * Q + D * S))
        return out


def compile_classes(classes) -> ClassProgram:
    """The program of class keys, in the order given: non-empty words, as
    enumerate_classes and canonical_class make them, in any order and
    with repeats.  A node is keyed by itself, (parent node, letter), which
    names its prefix, so prefixes are shared across the whole list."""
    classes = tuple(classes)
    node: dict[tuple[int, int], int] = {}  # (parent node, letter) -> node, in order made
    leaves = []
    for key in classes:
        w = key.word
        parent = 0
        for x in w[:-1]:
            parent = node.setdefault((parent, x), len(node) + 1)
        leaves.append((parent, w[-1]))
    return ClassProgram(classes, tuple(node), tuple(leaves))


# -- text serialization ------------------------------------------------------

def letter_names(p: Presentation) -> dict[int, str]:
    """The letter -> name table of p, the one rule for generator names:
    +k names the k-th generator (a_i, b_i for the handles, then g_j for the
    punctures), -k the same name in upper case.  A word's text is its
    letters' names joined by spaces, `" ".join(map(names.__getitem__, w))`."""
    names = {}
    for i in range(1, p.genus + 1):
        names[2 * i - 1], names[2 * i] = f"a{i}", f"b{i}"
    for j in range(1, p.punctures + 1):
        names[2 * p.genus + j] = f"g{j}"
    for k in range(1, p.num_generators + 1):
        names[-k] = names[k].upper()
    return names


def parse_word(text: str, p: Presentation) -> Word:
    """Parse `a1 B1 a1` tokens or compact single-letter `abAB` syntax: each
    token is a name of `letter_names(p)` or, up to 26 generators, a compact
    letter a, b, c, ... in generator order, upper case for the inverse."""
    text = text.strip()
    if not text:
        return ()
    toks = text.split()
    if len(toks) == 1 and not any(ch.isdigit() for ch in toks[0]) and len(toks[0]) > 1:
        toks = list(toks[0])
    letter_of = {name: x for x, name in letter_names(p).items()}
    for k in range(1, min(p.num_generators, 26) + 1):
        letter_of[chr(ord("a") + k - 1)], letter_of[chr(ord("A") + k - 1)] = k, -k
    out = []
    for t in toks:
        if t not in letter_of:
            raise WordError(f"unknown generator token {t!r}")
        out.append(letter_of[t])
    return free_reduce(out)
