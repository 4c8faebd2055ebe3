"""Random input to the parsers and the command line.

The only allowed outcomes are a result, or a BoolrepError; from the command
line that is exit code 0 or 1 with a result, or 2 or 3 with an error line.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from boolrep import BoolrepError, Matroid, SbMatrix, matroid_from_json
from boolrep.cli import main

# The malformed inputs that once ended in a traceback.
HUGE_FIELD = ",x\na," + "1" * 131_073 + "\n"
NOT_UTF8 = b"\xff\xfe,\x80\n"
DEEP_JSON = "[" * 100_000 + "]" * 100_000
HUGE_INT = '{"ground": ' + "9" * 5000 + "}"

# Text near the two formats, so that examples get past the first check.
csv_text = st.text(alphabet=st.sampled_from(list(',\n"01v rc\r')), max_size=80)
json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from(["a", "b", "c", "", ","]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["ground", "bases", "independent"]), inner, max_size=3),
    max_leaves=12,
)
matroid_like = st.fixed_dictionaries(
    {"ground": st.lists(st.sampled_from(["a", "b", "c", "d", ""]), max_size=5)},
    optional={
        "bases": st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=3), max_size=5),
        "independent": st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=3), max_size=6),
    },
).map(json.dumps)

fuzz = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@fuzz
@given(st.one_of(st.text(), csv_text, st.binary().map(lambda b: b.decode("latin-1"))))
@example(HUGE_FIELD)
@example(NOT_UTF8.decode("latin-1"))
def test_from_csv_returns_a_matrix_or_raises_a_library_error(text):
    try:
        matrix = SbMatrix.from_csv(text)
    except BoolrepError:
        return
    assert isinstance(matrix, SbMatrix)


@fuzz
@given(st.one_of(st.text(), st.binary(), json_value.map(json.dumps), matroid_like))
@example(DEEP_JSON)
@example(HUGE_INT)
@example(NOT_UTF8)
def test_matroid_from_json_returns_a_matroid_or_raises_a_library_error(text):
    try:
        matroid = matroid_from_json(text)
    except BoolrepError:
        return
    assert isinstance(matroid, Matroid)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(code, out, err):
    assert code in (0, 1, 2, 3)
    if code >= 2:
        assert out == "" and err.splitlines()[-1].startswith("error:")


@fuzz
@given(st.one_of(st.binary(), csv_text.map(str.encode)))
@example(HUGE_FIELD.encode())
@example(NOT_UTF8)
def test_rank_command_on_random_files(input_path, data):
    input_path.write_bytes(data)
    _check(*_run(["rank", str(input_path)]))


@fuzz
@given(st.one_of(st.binary(), json_value.map(json.dumps).map(str.encode),
                 matroid_like.map(str.encode)))
@example(DEEP_JSON.encode())
@example(HUGE_INT.encode())
@example(NOT_UTF8)
def test_verify_command_on_random_files(input_path, data):
    input_path.write_bytes(data)
    _check(*_run(["verify", str(input_path)]))
