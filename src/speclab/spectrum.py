"""Marked length spectra, length patterns, sub-relation tests, genericity scan."""

from __future__ import annotations

import math
from array import array
from collections import Counter
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from . import characters, surface_group as sg
from .fricke import SamplingFailed, SurfaceRep, schottky_sample
# classify is not called here: perfbench/selftest.py checks that its tracer wraps this copy
from .mobius import Mat2, classify, trace_gap  # noqa: F401


class SpectrumError(Exception):
    pass


class EllipticClassFound(SpectrumError):
    pass


class ClassSetMismatch(SpectrumError):
    pass


class LengthSpectrum(NamedTuple):
    """Class -> (|trace|, length); exact traces kept for rational reps."""

    classes: tuple
    traces: tuple
    lengths: tuple
    rep_digest: str
    exact: bool


def spectrum(rep: SurfaceRep, maxlen: int, program=None) -> LengthSpectrum:
    """|trace| and translation length of every class, read from |tr| alone.

    Without `program` the keys and traces come from one walk of the
    necklace tree (`surface_group.class_traces`); a given
    `surface_group.ClassProgram`, compiled once for many reps, is run for
    rep.  The window is `mobius.trace_gap`, as in `classify`: above
    2 + gap the length is 2 acosh(|tr|/2), which assumes det = 1; from
    2 - gap up it is 0.0 (parabolic or identity); below, the class is
    elliptic and EllipticClassFound is raised."""
    if program is None:
        classes, traces = sg.class_traces(rep, maxlen)
    else:
        classes, traces = program.classes, program.traces(rep)
    exact = all(m.exact() for m in rep.matrices)
    gap = trace_gap(exact)
    top, bottom = 2 + gap, 2 - gap
    acosh = math.acosh
    lengths = []
    for i, t in enumerate(traces):
        # |tr| replaces the raw trace in place, so no second list of numbers is held
        t = traces[i] = abs(t) if exact else abs(float(t))
        if t > top:
            lengths.append(2.0 * acosh(float(t) / 2.0))
        elif t >= bottom:
            lengths.append(0.0)
        else:
            raise EllipticClassFound(f"class {classes[i]} is elliptic (non-discrete rep?)")
    return LengthSpectrum(tuple(classes), tuple(traces), tuple(lengths), rep.digest(), exact)


class Pattern(NamedTuple("Pattern", [("classes", tuple), ("order", array), ("ends", array)])):
    """Partition of a class tuple (of ConjClassKey) into equal-length blocks.

    The blocks are kept flat, as positions into `classes`: `order` holds
    every position once, block by block, and block k ends at `ends[k]`;
    no block is empty.  Unhashable, as its arrays are."""

    @classmethod
    def from_blocks(cls, classes: tuple, blocks) -> "Pattern":
        """A pattern from its blocks, each an iterable of class positions.
        ValueError unless every block is nonempty and the blocks hold each
        position in range(len(classes)) exactly once."""
        order, ends = array("l"), array("l")
        for block in blocks:
            start = len(order)
            order.extend(block)
            if len(order) == start:
                raise ValueError("a block is empty")
            ends.append(len(order))
        if sorted(order) != list(range(len(classes))):
            raise ValueError("the blocks do not hold each class position exactly once")
        return cls(classes, order, ends)

    @property
    def n_blocks(self) -> int:
        return len(self.ends)

    @cached_property
    def labels(self) -> list:
        """Block index of each class, by position; built on first use and
        kept, so it is not to be changed."""
        # one pass along order: no block is empty, so each end passed starts the next block
        out, ends, label = [0] * len(self.classes), self.ends.tolist(), 0
        for k, i in enumerate(self.order):
            if k == ends[label]:
                label += 1
            out[i] = label
        return out


def pattern(s: LengthSpectrum) -> Pattern:
    """Equal-length blocks in order of increasing length: the classes sorted
    (stably, by position) on |tr| for an exact spectrum or on length for a
    float one, cut wherever neighbours differ by more than `mobius.trace_gap`."""
    keys, gap = (s.traces if s.exact else s.lengths), trace_gap(s.exact)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ends = [k for k in range(1, len(order)) if not keys[order[k]] - keys[order[k - 1]] <= gap]
    if order:
        ends.append(len(order))
    return Pattern(s.classes, array("l", order), array("l", ends))


def _labels_along(p: Pattern, classes: tuple):
    """p's block labels read in the order of `classes`; ClassSetMismatch
    when p covers another class set."""
    labels = p.labels
    if p.classes == classes:
        return labels
    where = dict(zip(p.classes, labels))
    if where.keys() != set(classes):
        raise ClassSetMismatch("patterns cover different class sets")
    return [where[k] for k in classes]


def subrelation(p1: Pattern, p2: Pattern):
    """Does every p1 block sit inside a p2 block?  Violations are pairs that
    p1 relates but p2 separates, block by block in p1's order.

    p1 refines p2 exactly when each p1 block meets one p2 label, i.e. when
    the positions give p1.n_blocks distinct (p1 label, p2 label) pairs; only
    the p1 blocks that meet several p2 labels are walked for their pairs."""
    where = _labels_along(p2, p1.classes)
    pairs = set(zip(p1.labels, where))
    violations = []
    if len(pairs) > p1.n_blocks:
        cs, order, ends = p1.classes, p1.order, p1.ends
        meets = Counter(label for label, _ in pairs)
        for b in sorted(label for label, n in meets.items() if n > 1):
            block = order[ends[b - 1] if b else 0 : ends[b]]
            violations += [
                (cs[i], cs[j]) for i, j in combinations(block, 2) if where[i] != where[j]
            ]
    return {"holds": not violations, "violations": violations}


def rmin_pattern(classes, m: int) -> Pattern:
    """Partition by provable character-polynomial equality up to sign: the
    blocks of `characters.rmin_pairs`, without its flags.  A class given
    twice raises ValueError.  rmin_pairs' contract holds here unchecked:
    each class must be a cyclically reduced least rotation, and at m = 2 a
    bad key merges with its reverse."""
    classes = tuple(classes)
    position = {}
    for i, key in enumerate(classes):
        if position.setdefault(key, i) != i:
            raise ValueError(f"class {key} is repeated")
    partition, _ = characters.rmin_pairs(classes, m)
    return Pattern.from_blocks(classes, (map(position.__getitem__, block) for block in partition))


def scan_generic(
    seed: int,
    trials: int,
    maxlen: int = 6,
    m: int = 2,
    include_arithmetic_point: bool = False,
):
    """Seeded genericity experiment: sample certified reps, compare the length
    pattern R_g with the minimal pattern R_min on the enumerated classes.

    Yields one JSON-ready dict per trial.  R_min must be a sub-relation of
    R_g in every trial; collapsed means the two partitions agree.  m < 2,
    or the arithmetic point (the rank-2 modular torus) at m != 2, raises
    ValueError before any work.  The classes are compiled once
    (`surface_group.compile_classes`), so each trial only multiplies.  Each
    trial draws once; a failed draw raises SpectrumError naming the trial
    and its seed, for replay.
    """
    pres = sg.Presentation.free(m)
    if include_arithmetic_point and m != 2:
        raise ValueError(f"the arithmetic point is a rank-2 rep, got m = {m}")
    if trials < 1:
        raise SpectrumError("trials must be >= 1")
    classes = tuple(sg.enumerate_classes(pres, maxlen))
    pmin = rmin_pattern(classes, m)
    program = sg.compile_classes(classes)

    def one_trial(index, rep, trial_seed):
        s = spectrum(rep, maxlen, program=program)
        pg = pattern(s)
        sub = subrelation(pmin, pg)
        return {
            "trial": index,
            "seed": trial_seed,
            "rep_digest": s.rep_digest,
            "classes": len(classes),
            "n_blocks_g": pg.n_blocks,
            "n_blocks_min": pmin.n_blocks,
            # R_min refines R_g, so the two agree when their block counts do
            "collapsed": sub["holds"] and pg.n_blocks == pmin.n_blocks,
            "violations": [[str(a), str(b)] for a, b in sub["violations"]],
        }

    start = 0
    if include_arithmetic_point:
        yield one_trial(0, modular_torus_rep(), None)
        start = 1
    for i in range(start, trials + start):
        trial_seed = seed ^ (i * 0x9E3779B1)
        try:
            rep = schottky_sample(trial_seed, m)
        except SamplingFailed as exc:
            raise SpectrumError(f"trial {i} (seed {trial_seed}): {exc}") from None
        yield one_trial(i, rep, trial_seed)


def modular_torus_rep() -> SurfaceRep:
    """The integer punctured-torus point: generators (1 1 / 1 2), (1 -1 / -1 2)."""
    return SurfaceRep.free_rep([Mat2(1, 1, 1, 2), Mat2(1, -1, -1, 2)])
