"""Command line interface.

Exit codes: 0 on success, 1 on a mathematical failure (non-free input, a
failed verification verdict, a pair without canonical form), 2 on usage or
parse errors.  Output is deterministic: identical invocations produce
byte-identical output.
"""

import argparse
import json
import sys

from .canonical import canonicalize, enumerate_canonical
from .errors import (
    BudgetExceeded,
    CanonicalizationFailed,
    InconsistentDecomposition,
    InvalidBudget,
    InvalidPartition,
    NotCanonical,
    NotFree,
    TriOrbitError,
)
from .field import GF
from .modpairs import enumeration_budget, format_pair, pair_to_dict, parse_pair
from .oracle import verify_classification
from .partitions import SetPartition, bell, pair_to_partition, partition_to_pair

BELL_CLI_CAP = 500


def _print(text=""):
    sys.stdout.write(text + "\n")


def _matrix_lines(M):
    return str(M).splitlines()


def _gl2_text(label, g):
    lines = []
    for name, block in (("X", g.X), ("Y", g.Y), ("W", g.W), ("Z", g.Z)):
        lines.append(f"{label}.{name}:")
        lines.extend(_matrix_lines(block))
    return lines


def cmd_bell(args):
    if args.n < 0 or args.n > BELL_CLI_CAP:
        _print(f"error: --n must lie in [0, {BELL_CLI_CAP}]")
        return 2
    _print(str(bell(args.n)))
    return 0


def cmd_enumerate(args):
    if args.n < 2:
        _print("error: --n must be at least 2")
        return 2
    try:
        pairs = enumerate_canonical(args.n)
    except (BudgetExceeded, InvalidBudget) as exc:
        _print(f"error: {exc}")
        return 2
    if args.format == "structured":
        doc = {"n": args.n, "count": len(pairs), "pairs": []}
        for pair in pairs:
            entry = pair_to_dict(pair)
            if args.with_partitions:
                entry["partition"] = str(pair_to_partition(pair))
            doc["pairs"].append(entry)
        _print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    _print(f"count {len(pairs)}")
    for idx, pair in enumerate(pairs, start=1):
        _print(f"pair {idx}")
        _print(format_pair(pair).rstrip("\n"))
        if args.with_partitions:
            _print(f"partition {pair_to_partition(pair)}")
        _print()
    return 0


def _read_pair(path):
    """The pair in the file at ``path``, or None after printing why not."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_pair(handle.read())
    except OSError as exc:
        _print(f"error: cannot read {path}: {exc}")
    except (ValueError, TriOrbitError) as exc:
        _print(f"error: bad pair file: {exc}")
    return None


def cmd_canonicalize(args):
    pair = _read_pair(args.input)
    if pair is None:
        return 2
    if args.p is not None and args.p != pair.field.p:
        _print(f"error: --p {args.p} disagrees with the pair file (p={pair.field.p})")
        return 2
    try:
        # canonicalize reads no budget, yet a malformed one still exits 2.
        enumeration_budget()
        result, cert, trace = canonicalize(pair)
    except NotFree:
        _print("error: the pair is not free")
        return 1
    except CanonicalizationFailed as exc:
        _print(f"error: {exc}")
        return 1
    except InvalidBudget as exc:
        _print(f"error: {exc}")
        return 2
    if args.format == "structured":
        doc = {"canonical": pair_to_dict(result)}
        if args.certificate:
            doc["certificate"] = {
                "U": cert.U.rows(),
                "Q": {"X": cert.Q.X.rows(), "Y": cert.Q.Y.rows(),
                      "W": cert.Q.W.rows(), "Z": cert.Q.Z.rows()},
            }
        if args.trace:
            doc["trace"] = [
                {"label": s.label, "side": s.side, "pair": pair_to_dict(s.pair)}
                for s in trace
            ]
            doc["pivots"] = trace.pivots
            doc["search_steps"] = trace.search_steps
        _print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    _print(format_pair(result).rstrip("\n"))
    if args.certificate:
        _print()
        _print("U:")
        for line in _matrix_lines(cert.U):
            _print(line)
        for line in _gl2_text("Q", cert.Q):
            _print(line)
    if args.trace:
        _print()
        _print(f"trace ({len(trace)} stages, {trace.search_steps} search steps)")
        for s in trace:
            _print(f"stage {s.label} [{s.side}]")
            _print(format_pair(s.pair).rstrip("\n"))
            _print()
        _print(f"pivots {trace.pivots}")
    return 0


def cmd_convert(args):
    if args.direction == "pair-to-partition":
        if not args.input:
            _print("error: pair-to-partition needs --input")
            return 2
        pair = _read_pair(args.input)
        if pair is None:
            return 2
        try:
            part = pair_to_partition(pair)
        except NotCanonical:
            _print("error: the pair is not canonical")
            return 1
        _print(str(part))
        return 0
    # partition-to-pair
    if args.n is None or args.partition is None:
        _print("error: partition-to-pair needs --n and --partition")
        return 2
    try:
        part = SetPartition.parse(args.partition)
        pair = partition_to_pair(args.n, part)
    except InvalidPartition as exc:
        _print(f"error: {exc}")
        return 2
    _print(format_pair(pair).rstrip("\n"))
    return 0


def cmd_verify(args):
    if args.n < 2:
        _print("error: --n must be at least 2")
        return 2
    try:
        field = GF(args.p)
    except TriOrbitError as exc:
        _print(f"error: {exc}")
        return 2
    del field
    kwargs = {}
    if args.samples is not None:
        if args.samples < 1:
            _print("error: --samples must be at least 1")
            return 2
        kwargs["samples"] = args.samples
        kwargs["exhaustive_check_cap"] = 0
    if args.seed is not None:
        kwargs["seed"] = args.seed
    try:
        report = verify_classification(args.n, args.p, **kwargs)
    except (BudgetExceeded, InvalidBudget, InconsistentDecomposition) as exc:
        _print(f"error: {exc}")
        return 2
    if args.format == "structured":
        _print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        _print(report.format_text())
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="triorbit",
        description="Classify orbits of free cyclic submodules over lower "
                    "triangular matrix rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bell = sub.add_parser("bell", help="print a Bell number")
    p_bell.add_argument("--n", type=int, required=True)
    p_bell.set_defaults(func=cmd_bell)

    p_enum = sub.add_parser("enumerate", help="list all canonical pairs")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--with-partitions", action="store_true")
    p_enum.add_argument("--format", choices=["text", "structured"], default="text")
    p_enum.set_defaults(func=cmd_enumerate)

    p_canon = sub.add_parser("canonicalize", help="reduce a pair to canonical form")
    p_canon.add_argument("--input", required=True)
    p_canon.add_argument("--p", type=int)
    p_canon.add_argument("--certificate", action="store_true")
    p_canon.add_argument("--trace", action="store_true")
    p_canon.add_argument("--format", choices=["text", "structured"], default="text")
    p_canon.set_defaults(func=cmd_canonicalize)

    p_conv = sub.add_parser("convert", help="convert between pairs and partitions")
    p_conv.add_argument("direction",
                        choices=["pair-to-partition", "partition-to-pair"])
    p_conv.add_argument("--input")
    p_conv.add_argument("--n", type=int)
    p_conv.add_argument("--partition")
    p_conv.set_defaults(func=cmd_convert)

    p_verify = sub.add_parser("verify", help="exhaustive orbit verification")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--p", type=int, required=True)
    p_verify.add_argument("--samples", type=int,
                          help="check this many sampled free pairs instead")
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--format", choices=["text", "structured"], default="text")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
