"""CSV schemas and run manifests for the batch CLI.

Every table, a matrix included, goes through one writer, ``write_table``,
which takes whole columns. Rows go out in blocks of ``_BLOCK_ROWS``, one
``%``-format per block, and ``%s`` is ``str``. A column from a numeric
ndarray stays an array, and each block of it becomes Python scalars
(``tolist()``) as it is written, so the table is never held as Python
objects whole: a float is its shortest round-trip ``repr``, an integer its
digits. Any other cell, and every header cell, is ``str`` of the value,
quoted by ``csv``'s minimal rule: a cell holding ``,``, ``"``, ``\r`` or
``\n`` is wrapped in ``"`` with ``"`` doubled, and the one cell of a
one-column row is written ``""`` when empty. Every file therefore reads
back bit-exactly, identical runs produce identical bytes, and the bytes
are those that the ``csv`` module's writer makes of the same cells.
Manifests carry the full configuration, the seed, and the library versions
of a run; they contain no timestamps on purpose.
"""

import contextlib
import csv
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np

from .errors import InputDataError
from .forecast import ShareSeries
from .network import Network, _growing, _pad_processes

__all__ = [
    "write_table",
    "read_table",
    "write_manifest",
    "read_populations",
    "write_rank_table",
    "write_snapshot",
    "write_edges",
    "read_edges",
    "write_processes",
    "read_processes",
    "read_share_csv",
    "write_share_series",
    "read_matrix",
    "write_matrix",
    "month_shift",
]

# rows per %-format, and per tolist() of a numeric column: the Python objects of
# one block at a time, not of the whole table, are held
_BLOCK_ROWS = 512
# inputs are UTF-8 text; a leading byte-order mark, as spreadsheets export it, is dropped
_ENCODING = "utf-8-sig"


def _text(value, alone):
    """``str(value)`` quoted as csv quotes it; ``alone``: the only cell of its row."""
    text = str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return '""' if alone and not text else text


def _cells(column, alone):
    """A numeric ndarray column as it is, any other column as quoted text cells."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind in "biuf":
            return column  # str of a Python number never needs quotes
        column = column.tolist()
    return [_text(v, alone) for v in column]


def write_table(path, header, columns):
    """Write ``header`` (None: no header line) and one row per index of ``columns``.

    Raises ValueError, before the file is opened, if the columns differ in length.
    """
    alone = len(columns) == 1
    columns = [_cells(c, alone) for c in columns]
    lengths = sorted({len(c) for c in columns})
    if len(lengths) > 1:
        raise ValueError(f"{path}: columns of unequal lengths {lengths}")
    n_rows = lengths[0] if lengths else 0
    width = len(columns)
    row = ",".join(["%s"] * width) + "\r\n"
    with Path(path).open("w", newline="") as fh:
        if header is not None:
            fh.write(",".join([_text(h, len(header) == 1) for h in header]) + "\r\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            block = min(_BLOCK_ROWS, n_rows - start)
            cells = [None] * (block * width)
            for j, column in enumerate(columns):
                part = column[start:start + block]
                # cell j of each row; a numeric block becomes Python numbers here
                cells[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
            fh.write((row * block) % tuple(cells))


def read_table(path):
    rows = [row for _, row in _numbered_rows(path)]
    return rows[0], rows[1:]


@contextlib.contextmanager
def _decoding(path):
    """Text of ``path`` that does not decode becomes an InputDataError naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{path}: not {exc.encoding} text ({exc.reason})") from exc


def _numbered_rows(path):
    """(line number, row) of every csv row of ``path``, the header included.

    A row's number is the file line it starts on: a quoted cell may span
    lines, so rows and lines need not match one to one.
    """
    with _decoding(path), open(path, newline="", encoding=_ENCODING) as fh:
        reader = csv.reader(fh)
        rows = []
        start = 1
        for row in reader:
            rows.append((start, row))
            start = reader.line_num + 1
    if not rows:
        raise InputDataError(f"{path}: empty file")
    return rows


def write_manifest(path, command, config):
    import scipy

    from . import __version__

    payload = {
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "versions": {
            "multilogistic": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# population / rank tables
# ---------------------------------------------------------------------------


def read_populations(path) -> np.ndarray:
    """Read a population CSV: a ``population`` column (name optional extras).

    Accepts a header naming the column, or headerless single-column numeric
    data. Malformed rows and populations that are not finite (nan, inf) are
    reported with their line number.
    """
    (_, header), *rows = _numbered_rows(path)
    names = [h.strip().lower() for h in header]
    if "population" in names:
        col = names.index("population")
    else:
        # no header: every column must be numeric, population is the last
        try:
            [float(v) for v in header]
        except ValueError as exc:
            raise InputDataError(
                f"{path}: line 1: no 'population' column and header is not numeric"
            ) from exc
        col = len(header) - 1
        rows.insert(0, (1, header))
    out = []
    for line, row in rows:
        if not row or all(not c.strip() for c in row):
            continue
        try:
            value = float(row[col])
        except (ValueError, IndexError) as exc:
            raise InputDataError(f"{path}: line {line}: bad value {row!r}") from exc
        if not math.isfinite(value):
            raise InputDataError(f"{path}: line {line}: population {row[col]!r} is not finite")
        out.append(value)
    if not out:
        raise InputDataError(f"{path}: no population rows")
    return np.asarray(out, dtype=float)


def write_rank_table(path, rank_table, analytic):
    write_table(path, ["rank", "population", "analytic"],
                [rank_table.ranks, rank_table.populations, analytic])


def write_snapshot(path, populations):
    pops = np.asarray(populations, dtype=float)
    write_table(path, ["walker_index", "population"], [np.arange(pops.size), pops])


# ---------------------------------------------------------------------------
# networks and growth processes
# ---------------------------------------------------------------------------


def _read_rows(path, header, dtype=np.int64) -> np.ndarray:
    """The rows under ``header`` (None: a file without one) as an (N, W) array, N >= 1."""
    if header:
        with _decoding(path), open(path, newline="", encoding=_ENCODING) as fh:
            if [h.strip().lower() for h in next(csv.reader(fh), [])] != header:
                raise InputDataError(f"{path}: expected header '{','.join(header)}'")
    with warnings.catch_warnings():
        # loadtxt warns on a file without data rows; that is reported below instead
        warnings.simplefilter("ignore", UserWarning)
        try:
            rows = np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1 if header else 0,
                              ndmin=2, encoding=_ENCODING)
        except ValueError as exc:  # a UnicodeDecodeError included
            with _decoding(path):
                for _ in _loadtxt_lines(path, header, dtype):  # raises at the first bad line
                    pass
            raise InputDataError(f"{path}: {exc}") from exc
    if rows.size == 0 or header and rows.shape[1] != len(header):
        width = f"{len(header)} " if header else ""
        raise InputDataError(f"{path}: expected one or more rows of {width}{dtype.__name__} values")
    return rows


def _loadtxt_lines(path, header, dtype):
    """(line number, row) of each data line below the header, in file order.

    ``row`` is np.loadtxt's reading of the line on its own; comment and
    blank lines yield nothing. Raises InputDataError, 'line N: bad row ...',
    at the first line that loadtxt rejects or whose width differs from the
    header's (without a header, from the first data row's).
    """
    width = len(header) if header else None
    with Path(path).open(encoding=_ENCODING) as fh:
        for number, line in enumerate(fh, start=1):
            if number == 1 and header:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a line without data
                try:
                    row = np.loadtxt([line], dtype=dtype, delimiter=",", ndmin=1)
                except ValueError:
                    row = None
            if row is not None:
                width = width or row.size  # comments and blank lines are empty
            if row is None or row.size not in (0, width):
                raise InputDataError(f"{path}: line {number}: bad row {line.rstrip()!r}")
            if row.size:
                yield number, row


def write_edges(path, net: Network):
    write_table(path, ["u", "v"], net.edge_array().T)


def read_edges(path) -> Network:
    """The graph on nodes 0 .. max id of an edge CSV."""
    edges = _read_rows(path, ["u", "v"])
    return Network.from_edges(int(edges.max()) + 1, edges)


def write_processes(path, sizes):
    """One row per point of a (k, L) sizes array: the first, and each larger than the last."""
    sizes = np.asarray(sizes)
    pid, iteration = np.nonzero(np.pad(_growing(sizes), ((0, 0), (1, 0)), constant_values=True))
    write_table(path, ["process_id", "iteration", "size"],
                [pid, iteration, sizes[pid, iteration]])


def read_processes(path) -> np.ndarray:
    """The (k, L) sizes array of the processes in process-id order, rows in file order.

    A process's rows must hold its iterations 0, 1, 2, ... in file order.
    """
    header = ["process_id", "iteration", "size"]
    rows = _read_rows(path, header)
    order = np.argsort(rows[:, 0], kind="stable")
    rows = rows[order]
    lengths = np.unique(rows[:, 0], return_counts=True)[1]
    expected = np.arange(rows.shape[0]) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    wrong = np.flatnonzero(rows[:, 1] != expected)
    if wrong.size:
        pid, iteration, _ = rows[wrong[0]].tolist()
        line, _ = next(itertools.islice(_loadtxt_lines(path, header, np.int64),
                                        int(order[wrong[0]]), None))
        raise InputDataError(
            f"{path}: line {line}: process {pid} has iteration {iteration} where "
            f"{expected[wrong[0]]} was expected (each process's iterations run 0, 1, 2, ... "
            "in file order)"
        )
    return _pad_processes(rows[:, 2], lengths)


# ---------------------------------------------------------------------------
# share series (ISO month dates)
# ---------------------------------------------------------------------------

_SHARE_TOTAL = 100.0  # share rows are percentages


def _month_index(text: str) -> int:
    """Months since year 0 of a 'YYYY-MM' month; ValueError if it is not one."""
    parts = text.strip().split("-")
    if len(parts) < 2:
        raise ValueError(text)
    year, month = int(parts[0]), int(parts[1])
    if not 1 <= month <= 12:
        raise ValueError(text)
    return year * 12 + month - 1


def month_shift(epoch: str, months: int) -> str:
    total = _month_index(epoch) + int(months)
    return f"{total // 12:04d}-{total % 12 + 1:02d}"


def read_share_csv(path, epoch: str, renormalize: bool = False) -> ShareSeries:
    """Read 'date,<component>,...' percentage rows into a ShareSeries.

    Dates are ISO months; times are month offsets from ``epoch``. Shares
    are percentages; ``renormalize`` rescales every row to sum to 100.
    """
    try:
        epoch_index = _month_index(epoch)
    except ValueError as exc:
        raise InputDataError(f"bad --epoch {epoch!r}: expected a 'YYYY-MM' month") from exc
    (_, header), *rows = _numbered_rows(path)
    names = [h.strip() for h in header]
    if len(names) < 3 or names[0].lower() != "date":
        raise InputDataError(f"{path}: expected header 'date,<comp>,<comp>,...'")
    # tolerate an auxiliary 't' column (month offsets), as written by emitters
    comp_cols = [j for j in range(1, len(names)) if names[j].lower() != "t"]
    if len(comp_cols) < 2:
        raise InputDataError(f"{path}: need at least two component columns")
    components = tuple(names[j] for j in comp_cols)
    parsed = []  # (line, row) of each data row read, in file order
    times = []
    shares = []
    malformed = None
    for line, row in rows:
        if not row or all(not c.strip() for c in row):
            continue
        try:
            times.append(float(_month_index(row[0]) - epoch_index))
            shares.append([float(row[j]) for j in comp_cols])
        except (ValueError, IndexError) as exc:
            malformed = line, row, exc
            break
        parsed.append((line, row))
    # the first bad line in file order is named: a bad share above a malformed row wins
    shares = np.asarray(shares, dtype=float).reshape(len(parsed), len(comp_cols))
    bad = np.flatnonzero(~np.all((shares > 0.0) & (shares < np.inf), axis=1))
    if bad.size:
        line, row = parsed[bad[0]]
        raise InputDataError(f"{path}: line {line}: shares must be positive and finite, "
                             f"got {row!r}")
    if malformed is not None:
        line, row, exc = malformed
        raise InputDataError(f"{path}: line {line}: bad row {row!r}") from exc
    if not parsed:
        raise InputDataError(f"{path}: no data rows")
    order = np.argsort(times)
    times = np.asarray(times, dtype=float)[order]
    shares = shares[order]
    if renormalize:
        shares = shares * (_SHARE_TOTAL / shares.sum(axis=1, keepdims=True))
    return ShareSeries(components, times, shares, total=_SHARE_TOTAL)


def write_share_series(path, series: ShareSeries, epoch: str):
    """Emit a share table readable by :func:`read_share_csv` (date first)."""
    dates = [month_shift(epoch, round(t)) for t in series.times.tolist()]
    write_table(path, ["date", "t", *series.components],
                [dates, series.times, *series.shares.T])


# ---------------------------------------------------------------------------
# dense matrices and trajectories
# ---------------------------------------------------------------------------


def read_matrix(path) -> np.ndarray:
    return _read_rows(path, None, float)


def write_matrix(path, mat):
    write_table(path, None, np.atleast_2d(np.asarray(mat, dtype=float)).T)
