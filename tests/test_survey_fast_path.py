"""The survey loaders' np.loadtxt fast path against their row path.

``load_household_survey`` and ``load_income_survey`` parse a plain file
with ``np.loadtxt`` and hand any other file, or any file with a fault, to
the ``read_table`` row path. Whatever the file, the two must agree: the
same columns bit for bit, or the same message.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import priceshock.data as data_module
from priceshock.data import CategorySet, load_household_survey, load_income_survey
from priceshock.errors import DataValidationError

CATS = CategorySet(("food", "fuel", "rest"))

# float() spellings that np.loadtxt reads too, and some that only float() reads
LOADTXT_TEXTS = (repr, "{:.6g}".format, "{:E}".format, " {!r} ".format)
FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
ROW_PATH_TEXTS = ("{:_}".format, lambda v: repr(v).translate(FULL_WIDTH))
TERMINATORS = ("\n", "\r\n")
PERTURBATIONS = ("quote", "blank line", "cr line ends", "row path number", "empty cell",
                 "nan", "inf", "1e400", "longer row", "shorter row", "negative weight",
                 "size below 1", "negative expenditure", "duplicate id", "tab", "control")


@st.composite
def survey_files(draw, income: bool):
    """(header, rows, terminator) of a plain survey file: shuffled columns,
    ids with spaces and #, numbers in loadtxt-readable spellings."""
    if income:
        columns = ["id", "weight", "size", "inc", "demo_urban"]
        columns += [c for c in ("demo_age", "exp_food") if draw(st.booleans())]
    else:
        columns = ["id", "weight", "size", "exp_food", "exp_fuel", "exp_rest"]
        columns += [c for c in ("inc", "demo_urban") if draw(st.booleans())]
    columns = draw(st.permutations(columns))
    n = draw(st.integers(1, 8))
    ids = draw(st.lists(st.from_regex(r"[a-z0-9 #._-]{0,5}", fullmatch=True), min_size=n,
                        max_size=n, unique=True))

    def number(lo, hi):
        return draw(st.sampled_from(LOADTXT_TEXTS))(draw(st.floats(lo, hi)))

    rows = []
    for hid in ids:
        zero = not income and draw(st.booleans()) and draw(st.booleans())
        cells = {"id": hid, "weight": number(0.0, 1e6), "size": number(1.0, 12.0),
                 "inc": number(-1e6, 1e6), "demo_urban": number(0.0, 1.0),
                 "demo_age": number(16.0, 99.0)}
        for c in ("exp_food", "exp_fuel", "exp_rest"):
            cells[c] = "0" if zero else number(0.0, 1e7)
        rows.append([cells[c] for c in columns])
    return columns, rows, draw(st.sampled_from(TERMINATORS))


def perturb(data, header, rows):
    """Apply 1-3 PERTURBATIONS to ``rows`` in place; return the blank-line
    positions and whether line ends became a bare CR."""
    blanks, bare_cr = [], False
    numeric = [j for j, c in enumerate(header) if c != "id"]
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(PERTURBATIONS))
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.sampled_from(numeric))
        if j >= len(rows[i]):
            continue  # a row made shorter has lost that cell
        if kind == "quote":
            k = data.draw(st.integers(0, len(rows[i]) - 1))
            rows[i][k] = '"' + rows[i][k].replace('"', '""') + '"'
        elif kind == "blank line":
            blanks.append(data.draw(st.integers(1, len(rows) + 1)))
        elif kind == "cr line ends":
            bare_cr = True
        elif kind == "row path number":
            rows[i][j] = data.draw(st.sampled_from(ROW_PATH_TEXTS))(data.draw(st.floats(0.0, 1e4)))
        elif kind == "empty cell":
            rows[i][j] = ""
        elif kind in ("nan", "inf", "1e400"):
            rows[i][j] = kind
        elif kind == "longer row":
            rows[i].append("1")
        elif kind == "shorter row":
            rows[i].pop()
        elif kind == "tab":
            rows[i][j] = "\t" + rows[i][j]
        elif kind == "control":
            rows[i][j] += data.draw(st.sampled_from(["\x0b", "\x0c", "\x1c", "\x1f", "\x7f"]))
        else:  # a row fault the loaders name
            exp_cols = [c for c in header if c.startswith("exp_")] or ["weight"]
            column = {"negative weight": "weight", "size below 1": "size", "duplicate id": "id",
                      "negative expenditure": data.draw(st.sampled_from(exp_cols))}[kind]
            c = header.index(column)
            if c < min(len(rows[i]), len(rows[0])):
                bad = {"negative weight": "-0.5", "size below 1": "0.75",
                       "negative expenditure": "-3"}
                rows[i][c] = bad.get(kind, rows[0][c])  # a duplicate id repeats the first
    return blanks, bare_cr


def write_file(path, header, rows, terminator, blanks=()):
    lines = [",".join(r) for r in [header, *rows]]
    for pos in sorted(blanks, reverse=True):
        lines.insert(pos, "")
    with open(path, "w", newline="") as fh:
        fh.write(terminator.join(lines) + terminator)
    return path


def outcome(loader, *args):
    try:
        return loader(*args)
    except DataValidationError as exc:
        return str(exc)


def bits(a):
    return None if a is None else (a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes())


def assert_same_frame(fast, rows):
    if isinstance(rows, str) or isinstance(fast, str):
        assert fast == rows
        return
    assert fast.ids.dtype == rows.ids.dtype
    assert fast.ids.tolist() == rows.ids.tolist()
    for name in ("weight", "size", "income", "demographics", "expenditure"):
        assert bits(getattr(fast, name, None)) == bits(getattr(rows, name, None)), name
    assert fast.demographic_names == rows.demographic_names
    assert vars(fast.report) == vars(rows.report)


# the reader's own block size, and one that puts block edges inside lines
# and between the \r and \n of a line end
BLOCK_SIZES = (data_module.CHUNK_BYTES, 3)


def blocks_of(size):
    return mock.patch.object(data_module, "CHUNK_BYTES", size)


def no_row_path():
    return mock.patch.object(data_module, "read_table",
                             side_effect=AssertionError("a plain file went to the row path"))


def row_path(loader):
    """``loader`` with the np.loadtxt parse declined, so that every file
    takes the row path."""
    def load(*args):
        with mock.patch.object(data_module, "_loadtxt_table", return_value=None):
            return loader(*args)
    return load


@pytest.fixture(scope="module")
def new_file(tmp_path_factory):
    """A path in a new directory on each call, one per Hypothesis example."""
    root = tmp_path_factory.mktemp("fast")
    counter = iter(range(10**9))
    return lambda: root / f"s{next(counter)}.csv"


LOADERS = {
    False: (lambda p: load_household_survey(p, CATS),
            row_path(lambda p: load_household_survey(p, CATS))),
    True: (load_income_survey, row_path(load_income_survey)),
}


class TestFastPathEqualsRowPath:
    @pytest.mark.parametrize("income", [False, True], ids=["households", "income"])
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_plain_files_take_the_fast_path_bit_for_bit(self, new_file, income, data):
        header, rows, terminator = data.draw(survey_files(income))
        path = write_file(new_file(), header, rows, terminator)
        fast_loader, row_loader = LOADERS[income]
        expected = outcome(row_loader, path)
        with no_row_path(), blocks_of(data.draw(st.sampled_from(BLOCK_SIZES))):
            got = outcome(fast_loader, path)
        if isinstance(expected, str):  # every row has zero total: no usable household rows
            assert not income and "no usable household rows" in expected
        assert_same_frame(got, expected)

    @pytest.mark.parametrize("income", [False, True], ids=["households", "income"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_file_gives_the_row_path_result_or_message(self, new_file, income, data):
        header, rows, terminator = data.draw(survey_files(income))
        blanks, bare_cr = perturb(data, header, rows)
        path = write_file(new_file(), header, rows, "\r" if bare_cr else terminator, blanks)
        fast_loader, row_loader = LOADERS[income]
        with blocks_of(data.draw(st.sampled_from(BLOCK_SIZES))):
            got = outcome(fast_loader, path)
        assert_same_frame(got, outcome(row_loader, path))


class TestLoaderWarnings:
    @pytest.mark.parametrize("body", [
        "", "\n", "\n\n", "   \n", "h0,2,3,4,5,6\n", "h0,2,3,4,5,6\n\nh1,2,3,4,5,6\n",
        "h0,2,3,4,5,6\n  \n", "h0,2,3,nan,5,6\n",
    ], ids=["header only", "blank", "blanks", "spaces", "plain", "blank inside",
            "spaces inside", "nan"])
    def test_loaders_emit_no_warning(self, tmp_path, body):
        path = tmp_path / "s.csv"
        path.write_text("id,weight,size,exp_food,exp_fuel,exp_rest\n" + body)
        inc = tmp_path / "i.csv"
        inc.write_text("id,weight,size,inc,demo_a,demo_b\n" + body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome(load_household_survey, path, CATS)
            outcome(load_income_survey, inc)
        assert [str(w.message) for w in caught] == []


def test_a_long_and_a_short_row_fail_as_on_the_row_path(tmp_path):
    """Their commas add up to the header's count twice over, and the columns
    the income loader reads are all there: only the ignored last column is
    missing from the short row."""
    path = tmp_path / "i.csv"
    path.write_text("id,weight,size,inc,exp_food\na,1,1,5,2,7\nb,1,1,5\n")
    expected = outcome(row_path(load_income_survey), path)
    assert "row 2 has 6 cells, header has 5" in expected
    assert outcome(load_income_survey, path) == expected


def test_fast_path_reads_the_benchmark_like_file_without_rows(tmp_path):
    """A tiled survey in the households.csv schema loads without read_table
    and equals the row path."""
    rng = np.random.default_rng(3)
    n = 500
    exp = np.round(rng.lognormal(6.0, 1.0, (n, 3)) * (rng.random((n, 3)) > 0.2), 6)
    lines = ["id,weight,size,inc,demo_urban,exp_food,exp_fuel,exp_rest"]
    lines += [f"hh{i:04d},{w!r},{s},{inc!r},{u},{e[0]!r},{e[1]!r},{e[2]!r}"
              for i, (w, s, inc, u, e) in enumerate(zip(
                  (rng.random(n) * 20).tolist(), rng.integers(1, 8, n).tolist(),
                  (rng.random(n) * 5e4).tolist(), rng.integers(0, 2, n).tolist(), exp.tolist()))]
    path = tmp_path / "hh.csv"
    path.write_text("\r\n".join(lines) + "\r\n")
    with no_row_path():
        fast = load_household_survey(path, CATS)
    assert_same_frame(fast, row_path(load_household_survey)(path, CATS))
    assert fast.report.n_rows == n
