"""Marked length spectra, length patterns, sub-relation tests, genericity scan."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import characters, surface_group as sg
from .fricke import SamplingFailed, SurfaceRep, schottky_sample
from .mobius import IsometryClass, classify, translation_length


class SpectrumError(Exception):
    pass


class EllipticClassFound(SpectrumError):
    pass


class ClassSetMismatch(SpectrumError):
    pass


@dataclass(frozen=True)
class LengthSpectrum:
    """Class -> (|trace|, length); exact traces kept for rational reps."""

    classes: tuple
    traces: tuple
    lengths: tuple
    rep_digest: str
    maxlen: int
    tolerance: float
    exact: bool

    def as_rows(self):
        return list(zip(self.classes, self.traces, self.lengths))


def spectrum(
    rep: SurfaceRep,
    maxlen: int,
    tol: float = 1e-9,
    classes=None,
) -> LengthSpectrum:
    if classes is None:
        classes = sg.enumerate_classes(rep.presentation, maxlen)
    traces = []
    lengths = []
    exact = all(m.exact() for m in rep.matrices)
    for key, m in zip(classes, sg.evaluate_many((key.word for key in classes), rep)):
        cls = classify(m)
        if cls is IsometryClass.ELLIPTIC:
            raise EllipticClassFound(f"class {key} is elliptic (non-discrete rep?)")
        t = abs(m.tr()) if exact else abs(float(m.tr()))
        traces.append(t)
        lengths.append(translation_length(m))
    return LengthSpectrum(
        tuple(classes),
        tuple(traces),
        tuple(lengths),
        rep.digest(),
        maxlen,
        tol,
        exact,
    )


@dataclass(frozen=True)
class Pattern:
    """Partition of the class set into equal-length blocks."""

    blocks: tuple  # tuple of tuples of ConjClassKey
    tolerance: float

    @property
    def class_set(self):
        return frozenset(k for b in self.blocks for k in b)

    def block_of(self):
        out = {}
        for i, b in enumerate(self.blocks):
            for k in b:
                out[k] = i
        return out


def pattern(s: LengthSpectrum, tol: float | None = None) -> Pattern:
    """Single-linkage clustering at gap tol; exact reps compare |trace| exactly."""
    if tol is None:
        tol = s.tolerance
    if s.exact:
        groups: dict = {}
        for key, t in zip(s.classes, s.traces):
            groups.setdefault(Fraction(t), []).append(key)
        items = sorted(groups.items(), key=lambda kv: kv[0])
        return Pattern(tuple(tuple(v) for _, v in items), 0.0)
    order = sorted(range(len(s.classes)), key=lambda i: s.lengths[i])
    blocks = []
    current = [order[0]] if order else []
    for prev, nxt in zip(order, order[1:]):
        if s.lengths[nxt] - s.lengths[prev] <= tol:
            current.append(nxt)
        else:
            blocks.append(tuple(s.classes[i] for i in current))
            current = [nxt]
    if current:
        blocks.append(tuple(s.classes[i] for i in current))
    return Pattern(tuple(blocks), tol)


def subrelation(p1: Pattern, p2: Pattern):
    """Does every p1 block sit inside a p2 block?  Violations are pairs that
    p1 relates but p2 separates."""
    if p1.class_set != p2.class_set:
        raise ClassSetMismatch("patterns cover different class sets")
    where = p2.block_of()
    violations = []
    for block in p1.blocks:
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                if where[block[i]] != where[block[j]]:
                    violations.append((block[i], block[j]))
    return {"holds": not violations, "violations": violations}


def partition_equal(p1: Pattern, p2: Pattern) -> bool:
    s1 = {frozenset(b) for b in p1.blocks}
    s2 = {frozenset(b) for b in p2.blocks}
    return s1 == s2


def rmin_pattern(classes, m: int) -> Pattern:
    """Partition by provable character-polynomial equality up to sign."""
    blocks = characters.rmin_blocks(classes, m).values()
    return Pattern(tuple(tuple(v) for v in blocks), 0.0)


def scan_generic(
    seed: int,
    trials: int,
    maxlen: int = 6,
    tol: float = 1e-9,
    m: int = 2,
    include_arithmetic_point: bool = False,
):
    """Seeded genericity experiment: sample certified reps, compare the length
    pattern R_g with the minimal pattern R_min on the enumerated classes.

    Yields one JSON-ready dict per trial.  R_min must be a sub-relation of
    R_g in every trial; collapsed means the two partitions agree.
    """
    if trials < 1:
        raise SpectrumError("trials must be >= 1")
    pres = sg.Presentation(genus=1, punctures=m - 1)
    classes = sg.enumerate_classes(pres, maxlen)
    pmin = rmin_pattern(classes, m)

    def one_trial(index, rep, trial_seed):
        s = spectrum(rep, maxlen, tol, classes=classes)
        pg = pattern(s, None if s.exact else tol)
        sub = subrelation(pmin, pg)
        return {
            "trial": index,
            "seed": trial_seed,
            "rep_digest": s.rep_digest,
            "classes": len(classes),
            "n_blocks_g": len(pg.blocks),
            "n_blocks_min": len(pmin.blocks),
            "collapsed": partition_equal(pmin, pg),
            "violations": [[str(a), str(b)] for a, b in sub["violations"]],
        }

    start = 0
    if include_arithmetic_point:
        yield one_trial(0, modular_torus_rep(), None)
        start = 1
    for i in range(start, trials + start):
        trial_seed = seed ^ (i * 0x9E3779B1)
        for retry in range(8):
            try:
                rep = schottky_sample(trial_seed + retry * 7919, m)
                record = one_trial(i, rep, trial_seed)
                break
            except (SpectrumError, SamplingFailed):
                continue
        else:
            raise SpectrumError(f"trial {i} (seed {trial_seed}): all 8 draws failed")
        yield record


def modular_torus_rep() -> SurfaceRep:
    """The integer punctured-torus point: generators (1 1 / 1 2), (1 -1 / -1 2)."""
    from .mobius import Mat2

    return SurfaceRep.free_rep([Mat2(1, 1, 1, 2), Mat2(1, -1, -1, 2)])


def rows_to_csv(rows) -> str:
    lines = ["class,trace,length"]
    for key, t, l in rows:
        lines.append(f"{str(key).replace(' ', '.')},{float(t):.17g},{float(l):.17g}")
    return "\n".join(lines) + "\n"
