"""The three workloads as lists of jobs, each with the check its output must pass.

A job is one call a user makes: a CLI command run through
`boolrep.cli.main(argv)`, or one `SbMatrix` method on a matrix read from a
CSV file.  Every job starts from an input file written here; none names a
built-in example, because those reuse a module-level matroid whose cached
flats would carry over from one pass to the next.

A check returns None when the output is right and a reason otherwise.  The
expected outputs come from `inputs`, which works them out from the
definitions without the library.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs

WORKLOADS = ("pipeline", "reduce", "kernels")

# Exhaustive verification stops at this many elements (exit 3 above it).
VERIFY_CAP = 12


@dataclass
class Job:
    """One call and its check.  `fixed` jobs do not depend on the seed, so
    the digest recorded in expected.json applies to them."""

    id: str
    kind: str
    args: list
    check: Callable
    fixed: bool = True
    warm: bool = False
    sets: list = field(default_factory=list)

    def spec(self) -> dict:
        return {"id": self.id, "kind": self.kind, "args": self.args, "sets": self.sets,
                "warm": self.warm}


def build(workload: str, seed: int, work: Path, root: Path, smoke: bool) -> list[Job]:
    """Write the workload's input files under `work` and return its jobs,
    in an order shuffled by the seed (the same order on every pass)."""
    make = {"pipeline": _pipeline, "reduce": _reduce, "kernels": _kernels}[workload]
    jobs = make(seed, work, root, smoke)
    random.Random(seed).shuffle(jobs)
    return jobs


def _rungs(smoke: bool) -> list[inputs.Rung]:
    rungs = inputs.catalog() if smoke else inputs.ladder()
    for rung in rungs:
        inputs.check_counts(rung)
    return rungs


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _exact(rc: int, out: str):
    def check(got_rc, got_out, _cert):
        if got_rc != rc:
            return f"exit {got_rc}, expected {rc}"
        if got_out != out:
            return "output differs from the reference"
        return None

    return check


def _golden(root: Path, rung: inputs.Rung, kind: str, text: str) -> str:
    """The stored golden file where one exists; it must equal the reference."""
    path = root / "tests" / "golden" / f"{rung.name}_{kind}.csv"
    if path.is_file():
        golden = path.read_text()
        if golden != text:
            raise ValueError(f"reference disagrees with {path.name}")
        return golden
    return text


# -- pipeline ------------------------------------------------------------------


def _pipeline(seed, work, root, smoke):
    jobs = []
    for rung in _rungs(smoke):
        src = _write(work / f"{rung.name}.json", rung.to_json())
        warm = rung.name in inputs.CATALOG_NAMES
        small = rung.n <= VERIFY_CAP
        paper_csv = rung.repr_csv(rung.paper_rows())
        if not small:
            paper_check = _exact(3, "")
        elif _represents(paper_csv, rung):
            paper_check = _exact(0, _golden(root, rung, "repr_paper", paper_csv))
        else:
            paper_check = _exact(2, "")
        jobs += [
            Job(f"{rung.name}:repr-paper",
                "cli", ["repr", src, "--reduce", "paper", "--format", "csv"],
                paper_check, warm=warm),
            Job(f"{rung.name}:verify", "cli", ["verify", src],
                _exact(0, f"ok: {1 << rung.n} subsets agree\n") if small else _exact(3, ""),
                warm=warm),
            Job(f"{rung.name}:lattice", "cli", ["lattice", src, "--format", "csv"],
                _exact(0, _golden(root, rung, "lattice", rung.lattice_csv())), warm=warm),
            Job(f"{rung.name}:partitions", "cli", ["partitions", src, "--format", "json"],
                _partitions_check(rung), warm=warm),
        ]
    return jobs


def _represents(csv_text: str, rung: inputs.Rung) -> bool:
    """Does the paper reduction keep the representation?  The library
    re-verifies it and fails with exit 2 when it does not."""
    grid, _, cols = inputs.parse_grid(csv_text)
    return inputs.mismatch_count(grid, cols, rung) == 0


def _partitions_check(rung: inputs.Rung):
    def check(rc, out, _cert):
        if rc != 0:
            return f"exit {rc}"
        lines = out.splitlines()
        if len(lines) != rung.chain_count:
            return f"{len(lines)} chains, expected {rung.chain_count}"
        for line in lines:
            blocks = json.loads(line)["blocks"]
            flat = sorted(x for block in blocks for x in block)
            if len(blocks) != rung.rank or flat != sorted(rung.labels):
                return "a chain's blocks do not partition the ground set"
        return None

    return check


# -- reduce --------------------------------------------------------------------

# Ways to break a correct representation.  Each turns some independent sets
# dependent, so the kernel must answer "dependent" where the intact matrix
# answers "independent".
BREAKS = ("flip", "parallel", "ghostcol", "zerocol")


def _breakable(rung: inputs.Rung) -> bool:
    """Rungs whose broken copies are verified: 8 to 10 elements and at least
    50 flats.  Verifying the smaller ones takes under 20 ms, and with them
    the median job would sit on the edge between those and the mid-sized
    jobs (twice as slow), so it would jump from run to run."""
    return 8 <= rung.n <= 10 and len(rung.flats) >= 50


def _reduce(seed, work, root, smoke):
    jobs = []
    rungs = [r for r in _rungs(smoke) if (r.n <= VERIFY_CAP if smoke else 7 <= r.n <= VERIFY_CAP)]
    for rung in rungs:
        src = _write(work / f"{rung.name}.json", rung.to_json())
        warm = rung.name in inputs.CATALOG_NAMES or rung.name == "fano"
        jobs.append(
            Job(f"{rung.name}:repr-verified", "cli",
                ["repr", src, "--reduce", "verified", "--format", "csv"],
                _represents_check(rung), warm=warm)
        )
        if not (smoke or _breakable(rung)):
            continue
        grid, rows, cols = inputs.parse_grid(rung.repr_csv(rung.paper_rows()))
        for kind in BREAKS:
            broken = _break(grid, kind, rung, cols)
            count = inputs.mismatch_count(broken, cols, rung)
            matrix = _write(work / f"{rung.name}-{kind}.csv", inputs.grid_csv(broken, rows, cols))
            jobs.append(
                Job(f"{rung.name}:verify-{kind}", "cli", ["verify", src, "--matrix", matrix],
                    _mismatch_check(count, 1 << rung.n), warm=warm)
            )
    return jobs


def _break(grid, kind: str, rung: inputs.Rung, cols):
    """A copy of the grid that no longer represents the matroid."""
    out = [list(row) for row in grid]
    if kind == "parallel":  # column 1 becomes a copy of column 2
        for row in out:
            row[0] = row[1]
    elif kind == "ghostcol":  # every 1 of column 1 becomes 1v
        for row in out:
            row[0] = 2 if row[0] else 0
    elif kind == "zerocol":  # column 1 becomes a loop
        for row in out:
            row[0] = 0
    else:  # the last single 1 whose loss changes some answer
        for i in reversed(range(len(out))):
            for j in range(len(out[i])):
                if out[i][j] == 1:
                    out[i][j] = 0
                    if inputs.mismatch_count(out, cols, rung):
                        return out
                    out[i][j] = 1
        raise ValueError(f"{rung.name}: no single flip breaks the representation")
    if not inputs.mismatch_count(out, cols, rung):
        raise ValueError(f"{rung.name}: break {kind} changes nothing")
    return out


def _represents_check(rung: inputs.Rung):
    flat_names = {rung.flat_name(f) for f in rung.flats}

    def check(rc, out, _cert):
        if rc != 0:
            return f"exit {rc}"
        grid, rows, cols = inputs.parse_grid(out)
        if list(cols) != list(rung.labels) or not set(rows) <= flat_names:
            return "rows or columns are not the rung's flats and elements"
        count = inputs.mismatch_count(grid, cols, rung)
        return f"{count} subsets disagree with the matroid" if count else None

    return check


def _mismatch_check(count: int, subsets: int):
    def check(rc, out, _cert):
        lines = out.splitlines()
        if rc != 1 or not lines:
            return f"exit {rc}, expected 1"
        if lines[0] != f"FAIL: {count} of {subsets} subsets disagree":
            return f"reported {lines[0]!r}, expected {count} mismatches"
        if sum(line.startswith("mismatch: ") for line in lines) != count:
            return "mismatch lines do not match the count"
        return None

    return check


# -- kernels -------------------------------------------------------------------

# Strata of the seeded rank matrices: row counts from 12 to 20, crossed with
# two densities and two ghost shares, two matrices each.  Within a stratum
# the rank search still costs anywhere in a threefold range, most of it set
# by the rank, so each matrix is drawn until its rank is the stratum's usual
# one.  That keeps one seed's total close to another's without fixing the
# matrices.
RANK_STRATA = [
    (rows, 8, density, ghost)
    for rows in (12, 14, 16, 18, 20)
    for density in (0.6, 0.7)
    for ghost in (0.1, 0.3)
]
DRAWS_PER_STRATUM = 2
RANDOM_SQUARES = 8


def _kernels(seed, work, root, smoke):
    rng = random.Random(seed)
    jobs = []
    lattice_rungs = inputs.catalog()[1:3] if smoke else [
        inputs.fano(), inputs.uniform(3, 8), inputs.uniform(3, 10)
    ]
    for rung in lattice_rungs:
        inputs.check_counts(rung)
        for name, text in (
            ("lattice", rung.lattice_csv()),
            ("full", rung.repr_csv(rung.flats)),
            ("paper", rung.repr_csv(rung.paper_rows())),
        ):
            path = _write(work / f"{rung.name}-{name}.csv", text)
            jobs.append(
                Job(f"rank:{rung.name}-{name}", "cli", ["rank", path],
                    _exact(0, f"{rung.rank}\n"), warm=rung.name == "fano")
            )

    def matrix_file(stem, grid):
        rows = [f"r{i + 1}" for i in range(len(grid))]
        cols = [f"c{j + 1}" for j in range(len(grid[0]))]
        return _write(work / f"{stem}.csv", inputs.grid_csv(grid, rows, cols))

    strata = RANK_STRATA[:2] if smoke else RANK_STRATA
    for i, stratum in enumerate(s for s in strata for _ in range(DRAWS_PER_STRATUM)):
        grid = _draw_with_usual_rank(rng, stratum)
        jobs.append(
            Job(f"rank:random-{i}", "cli", ["rank", matrix_file(f"rank-{i}", grid)],
                _exact(0, f"{inputs.column_rank(grid)}\n"), fixed=False)
        )

    sizes = (6,) if smoke else (6, 7, 8)
    for n in sizes:
        ones = [(1,) * n] * n
        jobs.append(Job(f"permanent:ones-{n}", "permanent", [matrix_file(f"ones-{n}", ones)],
                        _exact(0, inputs.permanent(ones) + "\n")))
    for i in range(1 if smoke else RANDOM_SQUARES):
        n = 6 + i % 2
        grid = inputs.random_grid(rng, n, n, rng.uniform(0.5, 0.8), rng.uniform(0.0, 0.2))
        path = matrix_file(f"square-{i}", grid)
        jobs.append(Job(f"permanent:random-{i}", "permanent", [path],
                        _exact(0, inputs.permanent(grid) + "\n"), fixed=False))
        jobs.append(Job(f"nonsingular:random-{i}", "nonsingular", [path],
                        _nonsingular_check(grid), fixed=False))
        planted = _planted_nonsingular(rng, n)
        jobs.append(Job(f"nonsingular:planted-{i}", "nonsingular",
                        [matrix_file(f"planted-{i}", planted)],
                        _nonsingular_check(planted), fixed=False))

    witness_rungs = inputs.catalog()[2:4] if smoke else (
        [inputs.fano()] + inputs.catalog()[2:4] + [inputs.ag32(), inputs.vamos()]
    )
    for rung in witness_rungs:
        inputs.check_counts(rung)
        sets = sorted(rung.bases, key=inputs.sort_key)
        if rung.n <= 7:  # a dependent set makes witness() try every row subset
            sets += _circuits(rung)
        grid, rows, cols = inputs.parse_grid(rung.repr_csv(rung.flats))
        path = _write(work / f"{rung.name}-full.csv", rung.repr_csv(rung.flats))
        for i, mask in enumerate(sets):
            labels = [rung.labels[b] for b in inputs.bits(mask)]
            jobs.append(Job(f"witness:{rung.name}-{i}", "witness", [path],
                            _witness_check(rung, grid, rows, cols, mask), sets=[labels],
                            warm=rung.name == "k4"))
    return jobs


def _draw_with_usual_rank(rng: random.Random, stratum):
    """A random matrix of the stratum whose rank is the stratum's mode,
    found from a sample drawn with a fixed generator, not the seed."""
    fixed = random.Random(repr(stratum))
    usual = statistics.mode(
        inputs.column_rank(inputs.random_grid(fixed, *stratum)) for _ in range(25)
    )
    while True:
        grid = inputs.random_grid(rng, *stratum)
        if inputs.column_rank(grid) == usual:
            return grid


def _planted_nonsingular(rng: random.Random, n: int):
    """1s on the diagonal, 0s above, random entries below, then rows and
    columns shuffled: nonsingular by construction."""
    tri = [
        [1 if i == j else (rng.choice((0, 1, 2)) if j < i else 0) for j in range(n)]
        for i in range(n)
    ]
    rows = rng.sample(range(n), n)
    cols = rng.sample(range(n), n)
    return [tuple(tri[rows[i]][cols[j]] for j in range(n)) for i in range(n)]


def _nonsingular_check(grid):
    nonsingular = inputs.permanent(grid) == "1"

    def check(rc, out, cert):
        if rc != 0:
            return f"exit {rc}"
        if out != ("nonsingular\n" if nonsingular else "singular\n"):
            return f"answered {out.strip()!r}"
        if nonsingular != (cert is not None):
            return "triangular_form disagrees with is_nonsingular"
        if cert is not None and not inputs.is_triangular(grid, cert[0], cert[1]):
            return "triangular_form orders do not triangulate the matrix"
        return None

    return check


def _circuits(rung: inputs.Rung) -> list[int]:
    ind = rung.independent
    found = [
        mask for mask in range(1, 1 << rung.n)
        if mask not in ind and all(mask & ~(1 << i) in ind for i in inputs.bits(mask))
    ]
    return sorted(found, key=inputs.sort_key)


def _witness_check(rung, grid, rows, cols, mask):
    independent = mask in rung.independent

    def check(rc, out, cert):
        if rc != 0:
            return f"exit {rc}"
        if out != ("1\n" if independent else "0\n"):
            return "independent and dependent sets told apart wrongly"
        if independent:
            picked = [cols.index(rung.labels[i]) for i in inputs.bits(mask)]
            found = cert[0]
            sub = [tuple(grid[rows.index(r)][j] for j in picked) for r in found]
            if len(found) != len(picked) or inputs.permanent(sub) != "1":
                return "the witness is not a nonsingular square submatrix"
        return None

    return check
