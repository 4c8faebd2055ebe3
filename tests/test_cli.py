"""End-to-end runs of the command line through main(argv)."""

import json

import pytest

from boolrep import CATALOG, matroid_to_json, uniform
from boolrep.cli import main

from conftest import read_golden


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


def test_repr_json(capsys):
    code, out, _ = run_cli(capsys, "repr", "example:u34", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cols"] == ["1", "2", "3", "4"]
    assert len(payload["rows"]) == 12
    assert payload["entries"][0] == [1, 1, 1, 1]


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


def test_partitions_limit_exceeded(capsys):
    code, out, err = run_cli(capsys, "partitions", "example:u34", "--limit", "1")
    assert code == 3
    assert err.startswith("error:")


# -- rank and example --------------------------------------------------------------


def test_rank_of_csv(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(",x,y\na,1,0\nb,0,1\n")
    code, out, _ = run_cli(capsys, "rank", str(path))
    assert code == 0
    assert out == "2\n"


def test_rank_sees_ghost_entries(capsys, tmp_path):
    path = tmp_path / "g.csv"
    path.write_text(",x,y\na,1v,1v\nb,1v,1v\n")
    code, out, _ = run_cli(capsys, "rank", str(path))
    assert code == 0
    assert out == "0\n"


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


def test_repeated_label_in_a_basis_exits_2(capsys, tmp_path):
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps({"ground": ["1", "2"], "bases": [["1", "1"]]}))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert "repeated label" in err


def test_non_simple_input_is_simplified_with_a_warning(capsys, tmp_path):
    path = tmp_path / "parallel.json"
    path.write_text(matroid_to_json(uniform(1, 2)))
    code, out, err = run_cli(capsys, "lattice", str(path), "--format", "csv")
    assert code == 0
    assert err.startswith("warning: input matroid is not simple; simplified (")
    assert out.splitlines()[0] == ",{},{1}"


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
