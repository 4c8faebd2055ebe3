"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 bad input or arguments,
3 a configured cap was exceeded.  Results go to stdout; warnings and
errors go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bitops import bits
from .catalog import CATALOG
from .errors import (
    BoolrepError,
    ChainLimitExceeded,
    GroundTooLarge,
    MatrixParseError,
    MatroidParseError,
)
from .extraction import (
    dedupe_reduce,
    extract_representation,
    paper_reduce,
    representation_to_json,
    verified_reduce,
    verify_representation,
)
from .lattice import FlatLattice
from .matroid import Matroid, matroid_from_json, matroid_to_json
from .partitions import DEFAULT_CHAIN_LIMIT, _fold_chains
from .sbool import SbMatrix, _bit_rows

__all__ = ["main", "run"]


def _read_text(path: str, error: type[BoolrepError], newline: str | None = None) -> str:
    """A file's text; bytes that are not UTF-8 raise `error`."""
    try:
        with open(path, encoding="utf-8", newline=newline) as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


def _read_matrix(path: str) -> SbMatrix:
    """A matrix CSV file, read untranslated (`newline=""`, as the csv
    module asks), so that a quoted "\\r" in a label comes back as written."""
    return SbMatrix.from_csv(_read_text(path, MatrixParseError, newline=""))


def _example(name: str) -> Matroid:
    entry = CATALOG.get(name)
    if entry is None:
        known = ", ".join(sorted(CATALOG))
        raise MatroidParseError(f"unknown example {name!r}; available: {known}")
    return entry.matroid


def _load_matroid(source: str | None, file_opt: str | None) -> Matroid:
    if source is not None and file_opt is not None:
        raise MatroidParseError("give either a positional source or --file, not both")
    if source is not None:
        if source.startswith("example:"):
            return _example(source[len("example:"):])
        path = source
    elif file_opt is not None:
        path = file_opt
    else:
        raise MatroidParseError("no matroid given: use example:<name> or --file PATH")
    return matroid_from_json(_read_text(path, MatroidParseError))


def _ensure_simple(matroid: Matroid) -> Matroid:
    """Flats are enumerated for simple matroids only; quotient and warn."""
    if matroid.is_simple:
        return matroid
    simple, mapping = matroid.simplify()
    notes = []
    loops = matroid.loops()
    if loops:
        notes.append("dropped loops " + ",".join(loops))
    merged = [f"{old}->{new}" for old, new in mapping.items() if old != new]
    if merged:
        notes.append("merged " + ", ".join(merged))
    print(
        "warning: input matroid is not simple; simplified (" + "; ".join(notes) + ")",
        file=sys.stderr,
    )
    return simple


def _cmd_lattice(args) -> int:
    matroid = _ensure_simple(_load_matroid(args.source, args.file))
    lattice = FlatLattice.from_matroid(matroid)
    matrix = lattice.representation if args.matrix == "repr" else lattice.structure_matrix
    if args.format == "csv":
        sys.stdout.write(matrix.to_csv())
    elif args.format == "dot":
        sys.stdout.write(lattice.to_dot())
    elif args.format == "json":
        payload = {
            "elements": list(lattice.names),
            "heights": list(lattice.heights),
            "atoms": list(lattice.atoms),
            "matrix": args.matrix,
            "entries": _bit_rows(matrix),
        }
        print(json.dumps(payload))
    else:
        print(f"elements: {lattice.size}")
        print(f"height: {lattice.height}")
        for name in lattice.names:
            print(f"{name} height {lattice.element_height(name)}")
        sys.stdout.write(matrix.text())
    return 0


def _cmd_repr(args) -> int:
    matroid = _ensure_simple(_load_matroid(args.source, args.file))
    rep = extract_representation(matroid)
    if args.reduce == "paper":
        rep = paper_reduce(rep)
    elif args.reduce == "dedupe":
        rep = dedupe_reduce(rep)
    elif args.reduce == "verified":
        rep = verified_reduce(rep)
    if args.format == "csv":
        sys.stdout.write(rep.matrix.to_csv())
    elif args.format == "json":
        print(representation_to_json(rep))
    else:
        sys.stdout.write(rep.matrix.text())
    return 0


def _cmd_verify(args) -> int:
    matroid = _load_matroid(args.source, args.file)
    if args.matrix is not None:
        subject = _read_matrix(args.matrix)
    else:
        matroid = _ensure_simple(matroid)
        subject = extract_representation(matroid)
    report = verify_representation(subject, matroid)
    if report.ok:
        print(f"ok: {report.checked_count} subsets agree")
        return 0
    print(f"FAIL: {len(report.mismatches)} of {report.checked_count} subsets disagree")
    for labels in report.mismatches:
        print("mismatch: {" + ",".join(labels) + "}")
    return 1


def _cmd_partitions(args) -> int:
    """One line per maximal chain, equal to the rendering of
    `partition_of_chain` for that chain.  Each distinct flat or block mask
    is named once; each flat and cover edge gets its piece of text, its
    separator included, once; and the walk folds the line's two halves,
    the flats so far and the blocks so far, so each walk node appends one
    piece to each and a chain costs one concatenation.  JSON quotes each
    ground label once: `json.dumps` of a list of strings is its items'
    dumps joined by ", " inside brackets."""
    matroid = _ensure_simple(_load_matroid(args.source, args.file))
    lattice = FlatLattice.from_matroid(matroid)
    ground = lattice.ground
    if args.format == "json":
        quoted = [json.dumps(label) for label in ground.labels]

        def name(mask: int) -> str:
            return "[" + ", ".join([quoted[i] for i in bits(mask)]) + "]"

        head, flat_sep, middle, block_sep, tail = (
            '{"chain": [', ", ", '], "blocks": [', ", ", "]}\n"
        )
    else:
        name = ground.subset_name
        head, flat_sep, middle, block_sep, tail = "", " < ", "  |  ", " / ", "\n"
    flats, edges, bottom = lattice.flat_masks, lattice.cover_blocks, lattice.bottom_index
    named = {m: name(m) for m in {*flats, *(m for row in edges for m in row.values())}}
    flat_pieces = [flat_sep + named[m] for m in flats]
    block_pieces = [
        {j: (block_sep if i != bottom else "") + named[m] for j, m in row.items()}
        for i, row in enumerate(edges)
    ]

    def step(halves, i, j):
        return halves[0] + flat_pieces[j], halves[1] + block_pieces[i][j]

    start = (head + named[flats[bottom]], middle)
    write = sys.stdout.write
    count = 0
    for chain_flats, chain_blocks in _fold_chains(lattice, start, step, args.limit):
        count += 1
        write(chain_flats + chain_blocks + tail)
    if args.format != "json":
        print(f"chains: {count}")
    return 0


def _cmd_rank(args) -> int:
    matrix = _read_matrix(args.matrix_file)
    print(matrix.rank())
    return 0


def _cmd_example(args) -> int:
    print(matroid_to_json(_example(args.name)))
    return 0


def _add_source(sub) -> None:
    sub.add_argument("source", nargs="?", help="matroid JSON path or example:<name>")
    sub.add_argument("--file", help="matroid JSON path")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="boolrep",
        description="Boolean representations of matroids via their lattice of flats.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    lat = subs.add_parser("lattice", help="flats, heights, and the lattice matrices")
    _add_source(lat)
    lat.add_argument("--format", choices=("csv", "dot", "pretty", "json"), default="pretty")
    lat.add_argument(
        "--matrix",
        choices=("repr", "structure"),
        default="repr",
        help="emit the representation (complement) or the containment table",
    )
    lat.set_defaults(handler=_cmd_lattice)

    rep = subs.add_parser("repr", help="extract a boolean representation")
    _add_source(rep)
    rep.add_argument(
        "--reduce",
        choices=("full", "none", "paper", "dedupe", "verified"),
        default="full",
        help="row reduction; none is an alias of full, one row per flat",
    )
    rep.add_argument("--format", choices=("csv", "pretty", "json"), default="pretty")
    rep.set_defaults(handler=_cmd_repr)

    ver = subs.add_parser("verify", help="exhaustively verify a representation")
    _add_source(ver)
    ver.add_argument("--matrix", help="CSV matrix to verify instead of extracting")
    ver.set_defaults(handler=_cmd_verify)

    par = subs.add_parser("partitions", help="maximal chains and their partitions")
    _add_source(par)
    par.add_argument("--limit", type=int, default=DEFAULT_CHAIN_LIMIT)
    par.add_argument("--format", choices=("pretty", "json"), default="pretty")
    par.set_defaults(handler=_cmd_partitions)

    rnk = subs.add_parser("rank", help="superboolean rank of a CSV matrix")
    rnk.add_argument("matrix_file")
    rnk.set_defaults(handler=_cmd_rank)

    exa = subs.add_parser("example", help="print a catalog matroid as JSON")
    exa.add_argument("name")
    exa.set_defaults(handler=_cmd_example)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except (ChainLimitExceeded, GroundTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (BoolrepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
