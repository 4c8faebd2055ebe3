"""End-to-end runs of the command line through main(argv)."""

import ast
import contextlib
import io
import json
import os
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from boolrep import (
    CATALOG,
    FlatLattice,
    GroundSet,
    Matroid,
    extract_representation,
    matroid_to_json,
    maximal_chains,
    partition_of_chain,
    uniform,
)
from boolrep.cli import main, run

from conftest import ladder_sized, read_golden, vamos
from oracles import flats_scan


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- lattice ---------------------------------------------------------------


def test_lattice_csv_matches_golden(capsys):
    code, out, err = run_cli(capsys, "lattice", "example:fivept", "--format", "csv")
    assert code == 0
    assert out == read_golden("fivept_lattice.csv")
    assert err == ""


def test_lattice_structure_is_the_complement(capsys):
    _, repr_out, _ = run_cli(capsys, "lattice", "example:u34", "--format", "csv")
    code, structure, _ = run_cli(
        capsys, "lattice", "example:u34", "--format", "csv", "--matrix", "structure"
    )
    assert code == 0
    assert structure != repr_out
    import csv
    import io

    flip = {"0": "1", "1": "0"}
    rows = list(csv.reader(io.StringIO(repr_out)))
    flipped = [rows[0]] + [[r[0]] + [flip[v] for v in r[1:]] for r in rows[1:]]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(flipped)
    assert structure == out.getvalue()


def test_lattice_pretty_lists_heights(capsys):
    code, out, _ = run_cli(capsys, "lattice", "example:u34")
    assert code == 0
    assert "elements: 12" in out
    assert "height: 3" in out
    assert "{1,2} height 2" in out


def test_lattice_dot(capsys):
    code, out, _ = run_cli(capsys, "lattice", "example:u34", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph flats {")
    assert '"{}" -> "{1}";' in out


def _flats_by_name(matroid):
    """Each flat's mask from the power-set scan, keyed by its subset name."""
    ground = matroid.ground
    return {ground.subset_name(f): f for f in flats_scan(matroid.bases, ground.size)}


def _sources(pool, tmp_path):
    """(source argument, matroid) for every catalog entry and pool matroid."""
    out = [(f"example:{name}", entry.matroid) for name, entry in CATALOG.items()]
    for k, matroid in enumerate(pool):
        path = tmp_path / f"pool{k}.json"
        path.write_text(matroid_to_json(matroid), encoding="utf-8")
        out.append((str(path), matroid))
    return out


def test_lattice_json_entries_follow_the_order(capsys, pool, tmp_path):
    """repr entry (i, j) is 1 exactly when flat i is not inside flat j, and
    the structure entry exactly when it is."""
    for source, matroid in _sources(pool, tmp_path):
        flats = _flats_by_name(matroid)
        for kind in ("repr", "structure"):
            code, out, _ = run_cli(
                capsys, "lattice", source, "--format", "json", "--matrix", kind
            )
            assert code == 0
            payload = json.loads(out)
            assert sorted(payload["elements"]) == sorted(flats)
            masks = [flats[name] for name in payload["elements"]]
            inside = kind == "structure"
            assert payload["entries"] == [
                [int((a & ~b == 0) == inside) for b in masks] for a in masks
            ]


def test_lattice_json(capsys):
    code, out, _ = run_cli(capsys, "lattice", "example:w3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == "repr"
    assert len(payload["elements"]) == 17
    assert payload["heights"][0] == 0
    assert len(payload["entries"]) == 17
    assert payload["atoms"] == ["{1}", "{2}", "{3}", "{4}", "{5}", "{6}"]


# -- repr ---------------------------------------------------------------------


def test_repr_reduced_csv_matches_golden(capsys):
    code, out, err = run_cli(
        capsys, "repr", "example:k4", "--reduce", "paper", "--format", "csv"
    )
    assert code == 0
    assert out == read_golden("k4_repr_paper.csv")
    assert err == ""


def test_repr_is_deterministic(capsys):
    first = run_cli(capsys, "repr", "example:w3", "--reduce", "verified", "--format", "csv")
    second = run_cli(capsys, "repr", "example:w3", "--reduce", "verified", "--format", "csv")
    assert first == second
    assert first[0] == 0


def test_repr_full_and_its_alias_none_print_the_same_csv(capsys):
    full = run_cli(capsys, "repr", "example:k4", "--reduce", "full", "--format", "csv")
    none = run_cli(capsys, "repr", "example:k4", "--reduce", "none", "--format", "csv")
    default = run_cli(capsys, "repr", "example:k4", "--format", "csv")
    assert full == none == default
    assert full[0] == 0
    assert len(full[1].splitlines()) == 1 + 15


def test_repr_json(capsys):
    code, out, _ = run_cli(capsys, "repr", "example:u34", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cols"] == ["1", "2", "3", "4"]
    assert len(payload["rows"]) == 12
    assert payload["entries"][0] == [1, 1, 1, 1]


def test_repr_json_entries_follow_the_flats(capsys, pool, tmp_path):
    """Entry (F, x) is 1 exactly when x lies outside the flat F, in every
    reduction mode.  The paper reduction may refuse a matroid of rank
    below 3, whose independent pairs the bottom row cannot separate."""
    for source, matroid in _sources(pool, tmp_path):
        flats = _flats_by_name(matroid)
        n = matroid.ground.size
        for mode in ("full", "none", "paper", "dedupe", "verified"):
            code, out, err = run_cli(
                capsys, "repr", source, "--reduce", mode, "--format", "json"
            )
            if mode == "paper" and matroid.rank < 3 and code == 2:
                assert "broke a certificate" in err
                continue
            assert code == 0, (source, mode, err)
            payload = json.loads(out)
            assert payload["cols"] == list(matroid.ground.labels)
            if mode in ("full", "none"):
                assert sorted(payload["rows"]) == sorted(flats)
            assert payload["entries"] == [
                [0 if flats[name] >> x & 1 else 1 for x in range(n)]
                for name in payload["rows"]
            ]


def test_repr_default_pretty(capsys):
    code, out, _ = run_cli(capsys, "repr", "example:u34", "--reduce", "paper")
    assert code == 0
    assert out.splitlines()[0].split() == ["1", "2", "3", "4"]


# -- verify ---------------------------------------------------------------------


def test_verify_catalog_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "example:k4")
    assert code == 0
    assert out == "ok: 64 subsets agree\n"


def test_verify_golden_matrix_file(capsys, tmp_path):
    path = tmp_path / "w3.csv"
    path.write_text(read_golden("w3_repr_paper.csv"))
    code, out, _ = run_cli(capsys, "verify", "example:w3", "--matrix", str(path))
    assert code == 0
    assert out == "ok: 64 subsets agree\n"


def test_verify_corrupted_matrix_fails(capsys, tmp_path):
    import csv
    import io

    rows = list(csv.reader(io.StringIO(read_golden("k4_repr_paper.csv"))))
    assert rows[6][0] == "{1,3,5}" and rows[6][1] == "0"
    rows[6][1] = "1"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path = tmp_path / "broken.csv"
    path.write_text(buf.getvalue())
    code, out, _ = run_cli(capsys, "verify", "example:k4", "--matrix", str(path))
    assert code == 1
    assert out.startswith("FAIL: ")
    assert "mismatch: {" in out
    n_claimed = int(out.split()[1])
    assert n_claimed == sum(1 for line in out.splitlines() if line.startswith("mismatch:"))


def test_verify_matrix_checks_a_non_simple_matroid_as_given(capsys, tmp_path):
    # a and b are parallel and l is a loop; the matrix has a column for
    # each of them, so the matroid must not be simplified first
    mpath = tmp_path / "parallel.json"
    mpath.write_text(
        json.dumps({"ground": ["a", "b", "c", "l"], "bases": [["a", "c"], ["b", "c"]]})
    )
    good = tmp_path / "good.csv"
    good.write_text(",a,b,c,l\nr1,1,1,0,0\nr2,0,0,1,0\n")
    code, out, err = run_cli(capsys, "verify", str(mpath), "--matrix", str(good))
    assert (code, out, err) == (0, "ok: 16 subsets agree\n", "")
    broken = tmp_path / "broken.csv"
    broken.write_text(",a,b,c,l\nr1,1,1,0,0\nr2,0,0,1,1\n")
    code, out, err = run_cli(capsys, "verify", str(mpath), "--matrix", str(broken))
    assert code == 1 and err == ""
    assert out.startswith("FAIL: ") and "mismatch: {l}" in out


# -- partitions ------------------------------------------------------------------


def test_partitions_pretty(capsys):
    code, out, _ = run_cli(capsys, "partitions", "example:u34")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "chains: 12"
    assert len(lines) == 13
    assert lines[0] == "{} < {1} < {1,2} < {1,2,3,4}  |  {1} / {2} / {3,4}"


def test_partitions_json(capsys):
    code, out, _ = run_cli(capsys, "partitions", "example:u34", "--format", "json")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    first = json.loads(lines[0])
    assert first["blocks"] == [["1"], ["2"], ["3", "4"]]
    assert all("chain" in json.loads(line) for line in lines)


def _partition_lines(lat, fmt):
    """Each chain's line rendered from `partition_of_chain`, in
    `maximal_chains` order, plus the pretty count line."""
    parts = [partition_of_chain(lat, c) for c in maximal_chains(lat)]
    if fmt == "json":
        return [json.dumps(p.to_json_dict()) for p in parts]
    lines = [
        " < ".join(p.chain) + "  |  " + " / ".join("{" + ",".join(b) + "}" for b in p.blocks)
        for p in parts
    ]
    return lines + [f"chains: {len(parts)}"]


def test_partitions_lines_match_partition_of_chain(capsys, tmp_path, pool, pool_lattices):
    for i, (matroid, lat) in enumerate(zip(pool, pool_lattices)):
        path = tmp_path / f"pool{i}.json"
        path.write_text(matroid_to_json(matroid))
        for fmt in ("json", "pretty"):
            code, out, err = run_cli(capsys, "partitions", str(path), "--format", fmt)
            assert (code, err) == (0, "")
            assert out == "".join(line + "\n" for line in _partition_lines(lat, fmt))


def test_partitions_lines_match_partition_of_chain_on_labels_json_escapes(capsys, tmp_path):
    """Labels JSON must escape or that are not ASCII: the JSON lines join
    each label's quoted form once, and still equal `json.dumps` of the
    partition, as the pretty lines equal its rendering."""
    labels = ('a"b', "back\\slash", "é", "☃", "sp ace")
    ground = GroundSet.of(labels)
    matroid = Matroid(ground, uniform(3, 5).bases)
    lat = FlatLattice.from_matroid(matroid)
    path = tmp_path / "escaped.json"
    path.write_text(matroid_to_json(matroid), encoding="utf-8")
    outs = {}
    for fmt in ("json", "pretty"):
        code, outs[fmt], err = run_cli(capsys, "partitions", str(path), "--format", fmt)
        assert (code, err) == (0, "")
        assert outs[fmt] == "".join(line + "\n" for line in _partition_lines(lat, fmt))
    for quoted in ('"a\\"b"', '"back\\\\slash"', '"\\u00e9"', '"\\u2603"', '"sp ace"'):
        assert quoted in outs["json"]


@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_partitions_lines_match_partition_of_chain_on_the_ladder(capsys, tmp_path, fmt):
    for i, matroid in enumerate(ladder_sized()):
        path = tmp_path / f"rung{i}.json"
        path.write_text(matroid_to_json(matroid))
        code, out, err = run_cli(capsys, "partitions", str(path), "--format", fmt)
        assert (code, err) == (0, "")
        lines = _partition_lines(FlatLattice.from_matroid(matroid), fmt)
        assert out == "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ["json", "pretty"])
@pytest.mark.parametrize("matroid", [CATALOG["k4"].matroid, uniform(3, 5)], ids=["k4", "u35"])
def test_partitions_write_every_line_before_any_cap(capsys, tmp_path, matroid, fmt):
    """Under every limit below the chain count, the lines of the chains
    before the cap are written, then the command exits 3."""
    path = tmp_path / "m.json"
    path.write_text(matroid_to_json(matroid))
    lines = _partition_lines(FlatLattice.from_matroid(matroid), fmt)
    chains = len(lines) - (fmt == "pretty")
    for limit in range(chains):
        code, out, err = run_cli(capsys, "partitions", str(path), "--limit", str(limit), "--format", fmt)
        assert (code, err) == (3, f"error: more than {limit} maximal chains\n")
        assert out == "".join(line + "\n" for line in lines[:limit])


@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_partitions_write_the_chains_found_before_the_cap(capsys, catalog_lattices, fmt):
    code, out, err = run_cli(capsys, "partitions", "example:k4", "--limit", "3", "--format", fmt)
    assert code == 3
    assert err == "error: more than 3 maximal chains\n"
    assert out.splitlines() == _partition_lines(catalog_lattices["k4"], fmt)[:3]


@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_partitions_label_each_flat_and_cover_edge_once(capsys, monkeypatch, catalog_lattices, fmt):
    """Labels are made once per flat and once per cover edge, not once
    per chain step."""
    calls = []
    labels_of = GroundSet.labels_of

    def counted(self, mask):
        calls.append(mask)
        return labels_of(self, mask)

    monkeypatch.setattr(GroundSet, "labels_of", counted)
    code, out, _ = run_cli(capsys, "partitions", "example:k4", "--format", fmt)
    assert code == 0
    lat = catalog_lattices["k4"]
    edges = sum(len(covers) for covers in lat.upper_covers)
    chain_steps = (2 * lat.height + 1) * len(list(maximal_chains(lat)))
    assert len(calls) <= lat.size + edges < chain_steps


def test_partitions_limit_exceeded(capsys):
    code, out, err = run_cli(capsys, "partitions", "example:u34", "--limit", "1")
    assert code == 3
    assert err.startswith("error:")


def test_partitions_negative_limit_is_a_bad_argument(capsys):
    code, out, err = run_cli(capsys, "partitions", "example:u34", "--limit", "-5")
    assert code == 2
    assert out == ""
    assert err == "error: chain limit must be nonnegative, got -5\n"
    code, _, err = run_cli(capsys, "partitions", "example:u34", "--limit", "0")
    assert code == 3
    assert err == "error: more than 0 maximal chains\n"


# -- rank and example --------------------------------------------------------------


def test_rank_of_csv(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(",x,y\na,1,0\nb,0,1\n")
    code, out, _ = run_cli(capsys, "rank", str(path))
    assert code == 0
    assert out == "2\n"


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_matrix_csv_reads_with_any_line_ending(capsys, tmp_path, ending):
    """Matrix CSV is read untranslated, and the csv module ends a record at
    any of the three line endings."""
    path = tmp_path / "m.csv"
    path.write_bytes(ending.join([",x,y", "a,1,0", "b,0,1", ""]).encode())
    assert run_cli(capsys, "rank", str(path)) == (0, "2\n", "")


def test_rank_sees_ghost_entries(capsys, tmp_path):
    path = tmp_path / "g.csv"
    path.write_text(",x,y\na,1v,1v\nb,1v,1v\n")
    code, out, _ = run_cli(capsys, "rank", str(path))
    assert code == 0
    assert out == "0\n"


def test_rank_of_the_vamos_lattice_matrix(capsys, tmp_path):
    mpath = tmp_path / "vamos.json"
    mpath.write_text(matroid_to_json(vamos()))
    code, lattice_csv, _ = run_cli(capsys, "lattice", str(mpath), "--format", "csv")
    assert code == 0
    path = tmp_path / "vamos-lattice.csv"
    path.write_text(lattice_csv)
    code, out, _ = run_cli(capsys, "rank", str(path))
    assert code == 0
    assert out == "4\n"


def test_example_round_trips(capsys):
    code, out, _ = run_cli(capsys, "example", "fivept")
    assert code == 0
    payload = json.loads(out)
    assert payload["ground"] == ["1", "2", "3", "4", "5"]
    assert len(payload["bases"]) == 8
    assert ["1", "2", "3"] not in payload["bases"]


def test_example_unknown_name(capsys):
    code, out, err = run_cli(capsys, "example", "zork")
    assert code == 2
    assert "available:" in err


# -- input handling ------------------------------------------------------------------


def test_loads_matroid_from_json_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(matroid_to_json(uniform(2, 3)))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert out == "ok: 8 subsets agree\n"
    code2, out2, _ = run_cli(capsys, "verify", "--file", str(path))
    assert (code2, out2) == (code, out)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["repr", "--format", "csv"], '""\n{}\n'),
        (["repr", "--reduce", "verified", "--format", "csv"], '""\n'),
        (["lattice", "--format", "csv"], ",{}\n{},0\n"),
        (["verify"], "ok: 1 subsets agree\n"),
        (["partitions", "--format", "json"], '{"chain": [[]], "blocks": []}\n'),
        (["partitions"], "{}  |  \nchains: 1\n"),
    ],
    ids=["repr", "repr-verified", "lattice", "verify", "partitions", "partitions-pretty"],
)
def test_empty_ground_set(capsys, tmp_path, argv, expected):
    """The rank-0 matroid on no elements: one flat, the empty set; its
    matrix rows have no entries."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"ground": [], "bases": [[]]}))
    assert run_cli(capsys, *argv, str(path)) == (0, expected, "")


def test_csv_output_reads_back_through_the_cli(capsys, tmp_path):
    """Labels holding a quote, a newline, a carriage return, a space or a
    non-ASCII character survive the CLI's own CSV: `repr` output verifies,
    and `lattice` output has the lattice's rank."""
    labels = ['q"t', "n\nl", "a\rb", "c\r", "sp ace", "é☃"]
    matroid = Matroid(GroundSet.of(labels), uniform(3, 6).bases)
    path = tmp_path / "m.json"
    path.write_text(matroid_to_json(matroid), encoding="utf-8")
    lattice = FlatLattice.from_matroid(matroid)
    for argv, check, expected in (
        (["repr", "--format", "csv"], "verify", f"ok: {2 ** len(labels)} subsets agree\n"),
        (["lattice", "--format", "csv"], "rank", f"{lattice.height}\n"),
    ):
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert (code, err) == (0, "")
        csv_path = tmp_path / f"{argv[0]}.csv"
        csv_path.write_bytes(out.encode())
        check_argv = [check, str(path), "--matrix", str(csv_path)] if check == "verify" else [check, str(csv_path)]
        assert run_cli(capsys, *check_argv) == (0, expected, "")
        assert "a\rb" in out


def test_repeated_label_in_a_basis_exits_2(capsys, tmp_path):
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps({"ground": ["1", "2"], "bases": [["1", "1"]]}))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert "repeated label" in err


@pytest.mark.parametrize(
    "ground, rank, reason",
    [(["a", "b", "c", "a,b"], 3, "contains a comma"), (["", "b"], 2, "is empty")],
)
def test_labels_that_make_flat_names_equal_exit_2(capsys, tmp_path, ground, rank, reason):
    matroid = uniform(rank, len(ground))
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps(
            {
                "ground": ground,
                "bases": [
                    [ground[int(x) - 1] for x in basis] for basis in matroid.basis_sets()
                ],
            }
        )
    )
    for command in ("lattice", "repr", "verify", "partitions"):
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert reason in err and "repeated lattice element name" not in err
    matrix = tmp_path / "rep.csv"
    matrix.write_text(
        extract_representation(matroid).matrix.relabeled(col_labels=ground).to_csv()
    )
    code, out, _ = run_cli(capsys, "verify", str(path), "--matrix", str(matrix))
    assert code == 0
    assert out == f"ok: {1 << len(ground)} subsets agree\n"


def test_non_simple_input_is_simplified_with_a_warning(capsys, tmp_path):
    path = tmp_path / "parallel.json"
    path.write_text(matroid_to_json(uniform(1, 2)))
    code, out, err = run_cli(capsys, "lattice", str(path), "--format", "csv")
    assert code == 0
    assert err.startswith("warning: input matroid is not simple; simplified (")
    assert out.splitlines()[0] == ",{},{1}"
    path = tmp_path / "loops.json"
    path.write_text(json.dumps({"ground": ["a", "b", "c", "d"], "bases": [["a", "b"], ["a", "c"]]}))
    code, out, err = run_cli(capsys, "lattice", str(path), "--format", "csv")
    assert code == 0
    assert err == "warning: input matroid is not simple; simplified (dropped loops d; merged c->b)\n"


def test_verify_rejects_oversized_ground(capsys, tmp_path):
    free13 = uniform(13, 13)
    mpath = tmp_path / "free13.json"
    mpath.write_text(matroid_to_json(free13))
    cpath = tmp_path / "id13.csv"
    labels = free13.ground.labels
    rows = [",".join([""] + list(labels))]
    for i, name in enumerate(labels):
        rows.append(",".join([name] + ["1" if i == j else "0" for j in range(13)]))
    cpath.write_text("\n".join(rows) + "\n")
    code, out, err = run_cli(capsys, "verify", str(mpath), "--matrix", str(cpath))
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize("mode", ["paper", "verified"])
def test_reductions_past_the_verify_cap_exit_3(capsys, tmp_path, mode):
    path = tmp_path / "u3_13.json"
    path.write_text(matroid_to_json(uniform(3, 13)))
    code, out, err = run_cli(capsys, "repr", str(path), "--reduce", mode, "--format", "csv")
    assert (code, out) == (3, "")
    assert err == "error: exhaustive verification is capped at 12 elements\n"


def test_source_argument_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", "example:nope")
    assert code == 2 and "available:" in err
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2
    path = tmp_path / "m.json"
    path.write_text(matroid_to_json(uniform(2, 3)))
    code, _, err = run_cli(capsys, "verify", str(path), "--file", str(path))
    assert code == 2 and "not both" in err
    code, _, err = run_cli(capsys, "verify")
    assert code == 2 and "no matroid given" in err


def test_malformed_json_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_help_and_bad_subcommand(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "lattice", "example:u34", "--format", "yaml")[0] == 2


def test_module_runs_as_a_script():
    src = str(Path(__file__).parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def script(*argv):
        return subprocess.run(
            [sys.executable, "-m", "boolrep.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )

    done = script("example", "u34")
    assert (done.returncode, done.stdout) == (0, matroid_to_json(CATALOG["u34"].matroid) + "\n")
    assert script("frobnicate").returncode == 2


def test_the_console_entry_points_run_in_process(capsys, monkeypatch):
    """`run()`, the `boolrep` script, and the module's `__main__` guard,
    here in process rather than as a subprocess."""
    expected = matroid_to_json(CATALOG["u34"].matroid) + "\n"
    monkeypatch.setattr(sys, "argv", ["boolrep", "example", "u34"])
    with pytest.raises(SystemExit) as done:
        run()
    assert (done.value.code, capsys.readouterr().out) == (0, expected)
    # the module is already imported, so runpy warns before running it again
    with pytest.warns(RuntimeWarning, match="'boolrep.cli' found in sys.modules"):
        with pytest.raises(SystemExit) as done:
            runpy.run_module("boolrep.cli", run_name="__main__")
    assert (done.value.code, capsys.readouterr().out) == (0, expected)


# Malformed input files, each of which once ended in a traceback.
NOT_UTF8 = b"\xff\xfe,\x80\n"
BAD_FILES = {
    "huge-field": (",x\na," + "1" * 131_073 + "\n").encode(),
    "not-utf8": NOT_UTF8,
    "deep-json": ("[" * 100_000 + "]" * 100_000).encode(),
    "huge-int": ('{"ground": ' + "9" * 5000 + "}").encode(),
}


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["rank", "{f}"], "huge-field"),
        (["rank", "{f}"], "not-utf8"),
        (["verify", "example:u34", "--matrix", "{f}"], "huge-field"),
        (["verify", "example:u34", "--matrix", "{f}"], "not-utf8"),
        (["verify", "{f}"], "not-utf8"),
        (["repr", "{f}"], "not-utf8"),
        (["verify", "{f}"], "deep-json"),
        (["verify", "{f}"], "huge-int"),
    ],
)
def test_malformed_input_files_exit_2(capsys, tmp_path, argv, bad):
    path = tmp_path / "input"
    path.write_bytes(BAD_FILES[bad])
    code, out, err = run_cli(capsys, *[a.format(f=path) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


# -- the README ---------------------------------------------------------------


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The argument lists of the `boolrep` lines in README's command block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["boolrep"]:
            yield argv[1:]


README_STDOUT = Path(__file__).parent / "readme_stdout.txt"


def test_readme_commands_exit_0(capsys, tmp_path, monkeypatch):
    """Every self-contained command README shows exits 0 and prints, byte
    for byte, the output recorded in tests/readme_stdout.txt: "$ " and the
    command, then its stdout.  The one piped to `dot` runs up to the pipe;
    the ones reading `my_matrix.csv` are left out."""
    monkeypatch.chdir(tmp_path)
    transcript = []
    ran = set()
    for argv in readme_commands():
        if "my_matrix.csv" in argv:
            continue
        target = None
        if "|" in argv:
            argv = argv[: argv.index("|")]
        elif ">" in argv:
            argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        if target is not None:
            (tmp_path / target).write_text(out)
        transcript.append("$ " + shlex.join(["boolrep", *argv]) + "\n" + out)
        ran.add(argv[0])
    assert ran == {"lattice", "repr", "verify", "partitions", "example"}
    assert "".join(transcript) == README_STDOUT.read_text(encoding="utf-8")


_PROSE = object()


def _commented_value(comment: str):
    """The Python literal a `# value, remark` comment opens with, or
    _PROSE when it opens with none."""
    parts = comment.split(", ")
    for end in range(len(parts), 0, -1):
        try:
            return ast.literal_eval(", ".join(parts[:end]))
        except (ValueError, SyntaxError):
            continue
    return _PROSE


def test_readme_library_block_runs_as_commented():
    """README's Python block runs, and each expression line whose comment
    opens with a value evaluates to that value."""
    text = README.read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(compile(block, "README.md", "exec"), namespace)
    claims = {}
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        value = _commented_value(comment.strip())
        if value is not _PROSE:
            claims[code.strip()] = value
    assert claims == {
        "lat.height": 3,
        "lat.representation_rank()": 3,
        "rep.matrix.shape": (7, 5),
        "verify_representation(rep, m).ok": True,
    }
    for expression, value in claims.items():
        assert eval(expression, namespace) == value, expression
    chains = list(maximal_chains(namespace["lat"]))
    assert printed.getvalue().count("\n") == len(chains)
