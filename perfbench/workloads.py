"""The four benchmark workloads: inputs made from a seed, one timed pass,
and the checks on the pass's outputs.

Each workload is a closed loop with one caller.  `setup` builds the inputs
(this is part of `setup_s`); `run` is the timed pass and returns the raw
outputs; `check` inspects them afterwards, outside the timed region.  Only
the public API of speclab is called.

`run` calls `lap(label)` at the end of each step of the pass (a scan
trial, a cocycle rep, a CLI command).  The labels are the same in every
pass of a seed, so run.py can take each step at its fastest over a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from math import gcd

import speclab
from speclab import boundary, cli

SIZES = {
    "full": {
        "scan_trials": 20,
        "scan_maxlen": 8,
        "rmin": ((2, 9), (3, 6)),
        "cocycle_reps": 4,
        "cocycle_samples": 1000,
        "cli_rank": 3,
        "cli_maxlen": 7,
    },
    # For the self-tests only: the same code paths in well under a second.
    "tiny": {
        "scan_trials": 3,
        "scan_maxlen": 4,
        "rmin": ((2, 4), (3, 3)),
        "cocycle_reps": 1,
        "cocycle_samples": 20,
        "cli_rank": 3,
        "cli_maxlen": 3,
    },
}

COCYCLE_CHECKS = (
    "cocycle_identity",
    "pairing_identity",
    "antisymmetry_at_poles",
    "inverse_class_equality",
    "c_determines_cocycle",
    "step1_coboundary_identity",
    "northsouth_limits",
)


# -- class-count oracle ------------------------------------------------------

def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def class_count(m: int, maxlen: int) -> int:
    """Conjugacy classes of the free group of rank m with cyclic length
    1..maxlen: sum over n of (1/n) sum_{d | n} phi(n/d) c_d, where
    c_d = (2m-1)^d + 1 + (m-1)(1 + (-1)^d) counts cyclically reduced words
    of length d."""
    total = 0
    for n in range(1, maxlen + 1):
        s = 0
        for d in range(1, n + 1):
            if n % d == 0:
                c_d = (2 * m - 1) ** d + 1 + (m - 1) * (1 + (-1) ** d)
                s += _phi(n // d) * c_d
        if s % n:
            raise ArithmeticError(f"necklace sum {s} not divisible by {n}")
        total += s // n
    return total


def check_class_count(m: int, maxlen: int, count: int) -> str | None:
    """None when `count` matches the oracle, else a description of the mismatch."""
    expected = class_count(m, maxlen)
    if count != expected:
        return f"class count {count} != oracle {expected} at m={m}, L={maxlen}"
    return None


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


@dataclass
class Outcome:
    """What one pass produced, after its checks.

    `attempted` / `failed` count the workload's operations; `problems` are
    failures of the benchmark's own independent checks, which make the run
    incorrect; `counts` feed the per-layer metrics."""

    items: int
    attempted: int
    failed: int
    problems: list
    digest: str
    counts: dict = field(default_factory=dict)


# -- scan --------------------------------------------------------------------

class Scan:
    """The paper's genericity experiment: R_g against R_min over seeded reps."""

    def setup(self, seed, size, tmp):
        return {"seed": seed, "trials": size["scan_trials"], "maxlen": size["scan_maxlen"]}

    def run(self, st, lap):
        records = []
        for rec in speclab.scan_generic(
            st["seed"], st["trials"], maxlen=st["maxlen"], m=2, include_arithmetic_point=True
        ):
            # The first step also holds the prelude: enumeration and R_min.
            lap(f"trial {rec['trial']}")
            records.append(rec)
        lap("end")
        return records

    def check(self, st, records):
        expected = st["trials"] + 1  # the arithmetic point comes first
        dropped = expected - len(records)
        problems = []
        bad = 0
        for rec in records:
            mismatch = check_class_count(2, st["maxlen"], rec["classes"])
            if mismatch:
                problems.append(f"trial {rec['trial']}: {mismatch}")
            if mismatch or rec["violations"]:
                bad += 1
        sampled = sum(1 for rec in records if rec["seed"] is not None)
        return Outcome(
            items=len(records),
            attempted=expected,
            failed=dropped + bad,
            problems=problems,
            digest=digest(json.dumps(r, sort_keys=True) for r in records),
            counts={"trials_sampled": sampled, "dropped_trials": dropped},
        )


# -- rmin --------------------------------------------------------------------

class Rmin:
    """Exact R_min partitions from a cold rewriter memo, at rank 2 and 3."""

    def setup(self, seed, size, tmp):
        return {"seed": seed, "configs": size["rmin"]}

    def run(self, st, lap):
        out = []
        for m, maxlen in st["configs"]:
            classes = speclab.enumerate_classes(speclab.Presentation(1, m - 1), maxlen)
            lap(f"enumerate m={m} L={maxlen}")
            partition, flagged = speclab.rmin_pairs(classes, m, st["seed"])
            lap(f"rmin_pairs m={m} L={maxlen}")
            out.append((m, maxlen, classes, partition, flagged))
        return out

    def check(self, st, out):
        problems = []
        failed = 0
        lines = []
        items = blocks = flagged_pairs = 0
        for m, maxlen, classes, partition, flagged in out:
            bad = []
            mismatch = check_class_count(m, maxlen, len(classes))
            if mismatch:
                bad.append(mismatch)
            covered = Counter(k for block in partition for k in block)
            if covered != Counter(classes) or max(covered.values(), default=1) != 1:
                bad.append(f"m={m}, L={maxlen}: partition does not cover each class exactly once")
            failed += bool(bad)
            problems += bad
            items += len(classes)
            blocks += len(partition)
            flagged_pairs += len(flagged)
            lines.append(f"m={m} L={maxlen}")
            lines += (" ".join(str(k) for k in block) for block in partition)
            lines += (f"flagged {a} {b}" for a, b in flagged)
        return Outcome(
            items=items,
            attempted=len(out),
            failed=failed,
            problems=problems,
            digest=digest(lines),
            counts={"blocks": blocks, "flagged_pairs": flagged_pairs},
        )


# -- cocycle -----------------------------------------------------------------

class Cocycle:
    """The Busemann cocycle suite over several reps drawn from the seed."""

    def setup(self, seed, size, tmp):
        rng = random.Random(seed)
        rep_seeds = [rng.randrange(1 << 30) for _ in range(size["cocycle_reps"])]
        return {
            "reps": [(s, speclab.schottky_sample(s, 2)) for s in rep_seeds],
            "samples": size["cocycle_samples"],
        }

    def run(self, st, lap):
        out = []
        for i, (s, rep) in enumerate(st["reps"]):
            out.append(boundary.run_all_checks(rep, seed=s, samples=st["samples"]))
            lap(f"rep {i}")
        return out

    def check(self, st, out):
        problems = []
        reports = [r for per_rep in out for r in per_rep]
        for (s, _), per_rep in zip(st["reps"], out):
            names = tuple(r.check for r in per_rep)
            if names != COCYCLE_CHECKS or any(r.samples != st["samples"] for r in per_rep):
                problems.append(f"rep seed {s}: unexpected report set {names}")
        failed = sum(1 for r in reports if not r.passed)
        return Outcome(
            items=sum(r.samples for r in reports),
            attempted=len(reports),
            failed=failed,
            problems=problems,
            digest=digest(r.to_json() for r in reports),
            counts={"failed_checks": failed},
        )


# -- spectrum_cli ------------------------------------------------------------

class SpectrumCli:
    """`speclab spectrum` then `speclab pattern` on a sampled rank-3 rep,
    through cli.main with stdout captured."""

    def setup(self, seed, size, tmp):
        path = os.path.join(tmp, f"rep-{seed}.json")
        rank = str(size["cli_rank"])
        rc = cli.main(["sample", "--seed", str(seed), "--rank", rank, "--output", path])
        if rc != 0:
            raise RuntimeError(f"speclab sample exited with {rc}")
        argv = ["--rep-file", path, "--rank", rank, "--maxlen", str(size["cli_maxlen"])]
        return {"rank": size["cli_rank"], "maxlen": size["cli_maxlen"], "argv": argv}

    def run(self, st, lap):
        out = []
        for command in ("spectrum", "pattern"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main([command] + st["argv"])
            lap(command)
            out.append((command, rc, buf.getvalue()))
        return out

    def check(self, st, out):
        problems = []
        failed = sum(1 for _, rc, _ in out if rc != 0)
        (_, _, spec_text), (_, _, pat_text) = out
        rows = [json.loads(line)["class"] for line in spec_text.splitlines()]
        members = [k for block in json.loads(pat_text)["blocks"] for k in block] if pat_text else []
        mismatch = check_class_count(st["rank"], st["maxlen"], len(rows))
        if mismatch:
            failed += 1
            problems.append(mismatch)
        if Counter(members) != Counter(rows) or len(set(rows)) != len(rows):
            problems.append("pattern blocks do not cover the spectrum classes exactly once")
        lines = [f"{command} exit {rc}\n{text}" for command, rc, text in out]
        return Outcome(
            items=len(rows) + len(members),
            attempted=len(out),
            failed=failed,
            problems=problems,
            digest=digest(lines),
            counts={"stdout_bytes": sum(len(text.encode()) for _, _, text in out)},
        )


WORKLOADS = {"scan": Scan(), "rmin": Rmin(), "cocycle": Cocycle(), "spectrum_cli": SpectrumCli()}
