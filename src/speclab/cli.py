"""Batch command line front end.

Word syntax: lowercase letters are generators, uppercase their inverses;
`a b A B` and `abAB` are the same word.  Every randomized command takes a
mandatory --seed and is byte-reproducible.  A --config JSON file supplies
defaults; a flag given on the command line wins over it.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import nullcontext
from itertools import chain, islice, repeat
from operator import attrgetter, sub
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from . import boundary, characters, fricke, surface_group as sg
from .fricke import FLOAT_SPEC, float_text
from .mobius import EPS
# NB: `speclab.spectrum` the attribute is the spectrum() function (it shadows
# the submodule), so pull what we need from the submodule directly.
from .spectrum import (
    SpectrumError,
    pattern as length_pattern,
    scan_generic,
    spectrum as length_spectrum,
    subrelation,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_VERIFICATION_FAILED = 2

# parts joined per write by _out: some 50 KB of rows, below malloc's 128 KiB
# mmap threshold, so a chunk reuses heap pages rather than mapping new ones
_CHUNK = 512


def _indented_list(items: list[str], indent: str) -> str:
    """JSON text of a list of already encoded items, laid out as json.dumps
    lays it out with indent=2 at the nesting level whose indent is given."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _word_texts(pres: sg.Presentation, classes):
    """The texts of the classes' words, made as they are taken, with no
    Python-level call per word.  Generator names are letters and digits, so
    a text in double quotes is its JSON string."""
    names = sg.letter_names(pres)
    return map(" ".join, map(map, repeat(names.__getitem__), map(attrgetter("word"), classes)))


def _out(args, text) -> None:
    """Write text, a str or an iterable of str parts, to --output or stdout.

    Parts are written as they come, _CHUNK of them joined per write, so a
    command that yields its lines never holds its whole text.  Over a raw
    stream (stdout under PYTHONUNBUFFERED) the text layer would drop what a
    short write leaves, so there the bytes go until all are taken, and a
    closed pipe raises."""
    if isinstance(text, str):
        text = (text,)
    parts = iter(text)
    with open(args.output, "w") if args.output else nullcontext(sys.stdout) as f:
        raw = getattr(f, "buffer", None)
        while chunk := list(islice(parts, _CHUNK)):
            if not isinstance(raw, io.RawIOBase):
                f.write("".join(chunk))
                continue
            view = memoryview("".join(chunk).encode(f.encoding, f.errors))
            while view:
                view = view[raw.write(view):]


def _load_rep(args) -> fricke.SurfaceRep:
    """The rep of --rep-file or of --seed.  A file's rank is its own, and a
    --rank that differs from it is an input error; a sample's rank is
    --rank, 2 by default."""
    sources = [args.rep_file is not None, args.seed is not None]
    if sum(sources) != 1:
        raise ValueError("exactly one of --rep-file / --seed is required")
    if args.rep_file is None:
        return fricke.schottky_sample(args.seed, 2 if args.rank is None else args.rank)
    rep = fricke.rep_from_json(Path(args.rep_file).read_text())
    rank = rep.presentation.free_rank
    if args.rank not in (None, rank):
        raise ValueError(f"--rank {args.rank} differs from the rep file's free rank {rank}")
    return rep


# -- subcommands -------------------------------------------------------------

def cmd_sample(args) -> int:
    rep = fricke.schottky_sample(args.seed, args.rank)
    _out(args, fricke.rep_to_json(rep) + "\n")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    rep = _load_rep(args)
    s = length_spectrum(rep, args.maxlen)
    # one template per row; a rep file or a sample has float entries, so the
    # numbers are floats and the template formats them as float_text does
    num = "{:" + FLOAT_SPEC + "}"
    if args.format == "csv":
        # the header, then class,trace,length: a key's text with its spaces
        # (the signed-int fallback past 26 generators) made dots
        row = ("{}," + num + "," + num + "\n").format
        keys = map(str.replace, map(str, s.classes), repeat(" "), repeat("."))
        _out(args, chain(("class,trace,length\n",), map(row, keys, s.traces, s.lengths)))
    else:
        # each line is the text of json.dumps({"class", "length", "trace"}, sort_keys=True)
        row = ('{{"class": "{}", "length": "' + num + '", "trace": "' + num + '"}}\n').format
        words = _word_texts(rep.presentation, s.classes)
        _out(args, map(row, words, s.lengths, s.traces))
    return EXIT_OK


def cmd_pattern(args) -> int:
    rep = _load_rep(args)
    s = length_spectrum(rep, args.maxlen)
    p = length_pattern(s)
    words = _word_texts(rep.presentation, map(p.classes.__getitem__, p.order))
    # block k is its words, taken in turn along order, laid out as
    # _indented_list lays them out at indent "    "
    sep = '",\n      "'
    blocks = [
        f'[\n      "{sep.join(islice(words, n))}"\n    ]'
        for n in map(sub, p.ends, chain((0,), p.ends))
    ]
    digest = s.rep_digest
    del s, p, words  # the spectrum is freed before the output text is built
    # the text of json.dumps({"blocks", "rep_digest", "tolerance"}, indent=2, sort_keys=True)
    _out(
        args,
        f'{{\n  "blocks": {_indented_list(blocks, "  ")},\n'
        f'  "rep_digest": {_json_str(digest)},\n'
        f'  "tolerance": {_json_str(float_text(EPS))}\n}}\n',
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    rep1 = fricke.rep_from_json(Path(args.rep_file).read_text())
    rep2 = fricke.rep_from_json(Path(args.other).read_text())
    p1 = length_pattern(length_spectrum(rep1, args.maxlen))
    p2 = length_pattern(length_spectrum(rep2, args.maxlen))
    sub = subrelation(p1, p2)
    doc = {
        "holds": sub["holds"],
        "violations": [[str(a), str(b)] for a, b in sub["violations"]],
    }
    _out(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if sub["holds"] else EXIT_VERIFICATION_FAILED


def _words(texts, rank: int) -> list:
    """The words of rank-m text, each freely reduced; ValueError for a rank
    below 2 or a word that reduces to the identity."""
    pres = sg.Presentation.free(rank)
    words = [sg.parse_word(t, pres) for t in texts]
    if not all(words):
        raise ValueError("empty word")
    return words


def cmd_tracepoly(args) -> int:
    (w,) = _words([args.word], args.rank)
    p = characters.trace_poly(w, args.rank)
    _out(args, p.text() + "\n")
    return EXIT_OK


def cmd_rmin(args) -> int:
    words = _words(args.words, args.rank)
    if len(words) < 2:
        raise ValueError("rmin needs at least two words")
    lines = []
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            verdict = characters.rmin_test(
                words[i], words[j], args.rank, seed=args.seed, n_reps=args.samples
            )
            lines.append(
                json.dumps(
                    {"pair": [args.words[i], args.words[j]], "verdict": verdict.kind},
                    sort_keys=True,
                )
            )
    _out(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_scan(args) -> int:
    records = list(
        scan_generic(
            args.seed,
            args.trials,
            maxlen=args.maxlen,
            m=args.rank,
            include_arithmetic_point=args.arithmetic_point,
        )
    )
    text = "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    _out(args, text)
    hard_fail = any(r["violations"] for r in records)
    return EXIT_VERIFICATION_FAILED if hard_fail else EXIT_OK


def cmd_cocycle_verify(args) -> int:
    rep = fricke.schottky_sample(args.seed, args.rank)
    reports = boundary.run_all_checks(rep, seed=args.seed, samples=args.samples)
    text = "\n".join(r.to_json() for r in reports) + "\n"
    _out(args, text)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFICATION_FAILED


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="speclab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    shared = {
        "rank": dict(type=int, default=2, help="free rank m (default 2)"),
        "maxlen": dict(type=int, default=6),
        "seed": dict(type=int, default=None),
    }

    def command(name, fn, help, options, needs_seed=False):
        """A subcommand with the shared options its fn reads (names joined by
        spaces in `options`), then --output and --config.  A randomized
        command needs_seed: its --seed is mandatory."""
        p = sub.add_parser(name, help=help)
        for option in options.split():
            p.add_argument("--" + option, **shared[option])
        p.add_argument("--output", type=str, default=None)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.set_defaults(fn=fn, parser=p, needs_seed=needs_seed)
        return p

    command("sample", cmd_sample, "emit a certified discrete rep", "rank seed", True)

    # a rep file carries its own rank, so --rank stays None unless given (_load_rep)
    p = command("spectrum", cmd_spectrum, "class / trace / length table", "rank maxlen seed")
    p.add_argument("--rep-file", type=str, default=None)
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.set_defaults(rank=None)

    p = command("pattern", cmd_pattern, "equal-length blocks", "rank maxlen seed")
    p.add_argument("--rep-file", type=str, default=None)
    p.set_defaults(rank=None)

    p = command("compare", cmd_compare, "sub-relation report for two reps", "maxlen")
    p.add_argument("--rep-file", type=str, required=True)
    p.add_argument("--other", type=str, required=True)

    p = command("tracepoly", cmd_tracepoly, "canonical character polynomial of a word", "rank")
    p.add_argument("--word", type=str, required=True)

    p = command("rmin", cmd_rmin, "pairwise minimal-relation verdicts", "rank seed", True)
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("words", nargs="+")

    p = command("scan", cmd_scan, "genericity experiment", "rank maxlen seed", True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--arithmetic-point", action="store_true")

    p = command("cocycle-verify", cmd_cocycle_verify, "run the B-cocycle identity suite",
                "rank seed", True)
    p.add_argument("--samples", type=int, default=1000)

    return ap


def _config_defaults(parser: argparse.ArgumentParser, path: str) -> dict:
    """The --config file as defaults for the command's parser, each value
    checked against the type of its option."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    actions = {a.dest: a for a in parser._actions if a.option_strings}
    out = {}
    for key, value in doc.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config key {key!r} is not an option of this command")
        want = bool if action.nargs == 0 else action.type or str
        if isinstance(value, bool) is not (want is bool) or not isinstance(value, want):
            raise ValueError(f"config key {key!r}: {value!r} has the wrong type")
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config key {key!r}: {value!r} is not one of {action.choices}")
        out[action.dest] = value
    return out


def _parse(ap: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """ap.parse_args, but an option the subcommand does not take is
    reported, with exit code 2, by the subcommand's own parser, so that the
    usage line names the command."""
    args, extras = ap.parse_known_args(argv)
    if extras:
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    ap = build_parser()
    args = _parse(ap, argv)
    try:
        if args.config is not None:
            # config values become the command's defaults, then the command
            # line is parsed again so that an explicit flag wins
            command = args.parser
            command.set_defaults(**_config_defaults(command, args.config))
            args = _parse(ap, argv)
        if args.needs_seed and args.seed is None:
            raise ValueError("--seed is mandatory for randomized commands")
        return args.fn(args)
    except (
        boundary.BoundaryError,
        fricke.FrickeError,
        sg.WordError,
        SpectrumError,
        OSError,
        json.JSONDecodeError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
