"""CSV schemas and run manifests for the batch CLI.

Tables are written column by column: each cell is ``str`` of a Python
scalar (an ndarray column goes through ``tolist()`` first), so a float is
its shortest round-trip ``repr``, an integer its digits, and text is quoted
by ``csv`` where it holds a comma or quote. Every file therefore reads back
bit-exactly and identical runs produce identical bytes. Manifests carry the
full configuration, the seed, and the library versions of a run; they
contain no timestamps on purpose.
"""

import csv
import json
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
    "month_offset",
    "month_shift",
]


def write_table(path, header, columns):
    """Write ``header`` and then one row per index of the equal-length ``columns``."""
    cells = [map(str, c.tolist() if isinstance(c, np.ndarray) else c) for c in columns]
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*cells, strict=True))


def read_table(path):
    path = Path(path)
    if not path.exists():
        raise InputDataError(f"no such file: {path}")
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise InputDataError(f"{path}: empty file")
    return rows[0], rows[1:]


def write_manifest(path, command, config, seed=None):
    import scipy

    from . import __version__

    payload = {
        "command": command,
        "config": config,
        "seed": seed,
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
    data. Malformed rows are reported with their line number.
    """
    header, rows = read_table(path)
    names = [h.strip().lower() for h in header]
    if "population" in names:
        col = names.index("population")
        data_rows = rows
        first_line = 2
    else:
        # no header: every column must be numeric, population is the last
        try:
            [float(v) for v in header]
        except ValueError as exc:
            raise InputDataError(
                f"{path}: line 1: no 'population' column and header is not numeric"
            ) from exc
        col = len(header) - 1
        data_rows = [header] + rows
        first_line = 1
    out = []
    for i, row in enumerate(data_rows):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            out.append(float(row[col]))
        except (ValueError, IndexError) as exc:
            raise InputDataError(f"{path}: line {first_line + i}: bad value {row!r}") from exc
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
    path = Path(path)
    if not path.exists():
        raise InputDataError(f"no such file: {path}")
    if header:
        with path.open(newline="") as fh:
            if [h.strip().lower() for h in next(csv.reader(fh), [])] != header:
                raise InputDataError(f"{path}: expected header '{','.join(header)}'")
    with warnings.catch_warnings():
        # loadtxt warns on a file without data rows; that is reported below instead
        warnings.simplefilter("ignore", UserWarning)
        try:
            rows = np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1 if header else 0,
                              ndmin=2)
        except ValueError as exc:
            raise InputDataError(f"{path}: {_first_bad_row(path, header, dtype) or exc}") from exc
    if rows.size == 0 or header and rows.shape[1] != len(header):
        width = f"{len(header)} " if header else ""
        raise InputDataError(f"{path}: expected one or more rows of {width}{dtype.__name__} values")
    return rows


def _first_bad_row(path, header, dtype):
    """'line N: bad row ...' for the first data row that np.loadtxt cannot read on its own.

    A row is bad if loadtxt rejects it, or if its width differs from the
    header's (without a header, from the first data row's).
    """
    width = len(header) if header else None
    with Path(path).open() as fh:
        for number, line in enumerate(fh, start=1):
            if number == 1 and header:
                continue
            try:
                row = np.loadtxt([line], dtype=dtype, delimiter=",", ndmin=1)
            except ValueError:
                return f"line {number}: bad row {line.rstrip()!r}"
            width = width or row.size  # comments and blank lines are empty
            if row.size not in (0, width):
                return f"line {number}: bad row {line.rstrip()!r}"
    return None


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
    """The (k, L) sizes array of the processes in process-id order, rows in file order."""
    rows = _read_rows(path, ["process_id", "iteration", "size"])
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    return _pad_processes(rows[:, 2], np.unique(rows[:, 0], return_counts=True)[1])


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


def month_offset(date: str, epoch: str) -> int:
    """Whole months from ``epoch`` to ``date`` (both 'YYYY-MM')."""
    return _month_index(date) - _month_index(epoch)


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
    header, rows = read_table(path)
    names = [h.strip() for h in header]
    if len(names) < 3 or names[0].lower() != "date":
        raise InputDataError(f"{path}: expected header 'date,<comp>,<comp>,...'")
    # tolerate an auxiliary 't' column (month offsets), as written by emitters
    comp_cols = [j for j in range(1, len(names)) if names[j].lower() != "t"]
    if len(comp_cols) < 2:
        raise InputDataError(f"{path}: need at least two component columns")
    components = tuple(names[j] for j in comp_cols)
    times = []
    shares = []
    for i, row in enumerate(rows):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            times.append(float(_month_index(row[0]) - epoch_index))
            shares.append([float(row[j]) for j in comp_cols])
        except (ValueError, IndexError) as exc:
            raise InputDataError(f"{path}: line {i + 2}: bad row {row!r}") from exc
    if not times:
        raise InputDataError(f"{path}: no data rows")
    order = np.argsort(times)
    times = np.asarray(times, dtype=float)[order]
    shares = np.asarray(shares, dtype=float)[order]
    if np.any(shares <= 0.0):
        j = int(np.argwhere(shares <= 0.0)[0][0])
        raise InputDataError(f"{path}: non-positive share in row at t={times[j]:g}")
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
    mat = np.asarray(mat, dtype=float)
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerows(map(str, row) for row in np.atleast_2d(mat).tolist())
