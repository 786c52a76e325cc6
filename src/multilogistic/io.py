"""CSV schemas and run manifests for the batch CLI.

All emitters format floats with ``repr`` (shortest round-trip), so every
file reads back bit-exactly and identical runs produce identical bytes.
Manifests carry the full configuration, the seed, and the library versions
of a run; they contain no timestamps on purpose.
"""

import csv
import json
from pathlib import Path

import numpy as np

from .errors import InputDataError
from .forecast import ShareSeries
from .network import GrowthProcess, Network

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


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_table(path, header, rows):
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


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
                zip(rank_table.ranks, rank_table.populations, analytic))


def write_snapshot(path, populations):
    pops = np.asarray(populations, dtype=float)
    write_table(path, ["walker_index", "population"], enumerate(pops))


# ---------------------------------------------------------------------------
# networks and growth processes
# ---------------------------------------------------------------------------


def write_edges(path, net: Network):
    write_table(path, ["u", "v"], net.edge_array())


def read_edges(path, node_count=None) -> Network:
    header, rows = read_table(path)
    if [h.strip().lower() for h in header] != ["u", "v"]:
        raise InputDataError(f"{path}: expected header 'u,v'")
    try:
        edges = np.asarray([[int(a), int(b)] for a, b in rows], dtype=np.int64)
    except ValueError as exc:
        raise InputDataError(f"{path}: non-integer edge endpoint") from exc
    if node_count is None:
        node_count = int(edges.max()) + 1 if edges.size else 0
    return Network.from_edges(node_count, edges)


def write_processes(path, processes):
    def rows():
        for pid, proc in enumerate(processes):
            for it, size in enumerate(proc.sizes):
                yield pid, it, size

    write_table(path, ["process_id", "iteration", "size"], rows())


def read_processes(path) -> list:
    header, rows = read_table(path)
    if [h.strip().lower() for h in header] != ["process_id", "iteration", "size"]:
        raise InputDataError(f"{path}: expected header 'process_id,iteration,size'")
    by_pid: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        try:
            pid, it, size = int(row[0]), int(row[1]), int(row[2])
        except (ValueError, IndexError) as exc:
            raise InputDataError(f"{path}: line {i + 2}: bad row {row!r}") from exc
        by_pid.setdefault(pid, []).append(size)
    return [GrowthProcess(0, np.asarray(sizes, dtype=np.int64))
            for _, sizes in sorted(by_pid.items())]


# ---------------------------------------------------------------------------
# share series (ISO month dates)
# ---------------------------------------------------------------------------


def _parse_month(text: str) -> tuple[int, int]:
    parts = text.strip().split("-")
    if len(parts) < 2:
        raise ValueError(text)
    year, month = int(parts[0]), int(parts[1])
    if not 1 <= month <= 12:
        raise ValueError(text)
    return year, month


def month_offset(date: str, epoch: str) -> int:
    """Whole months from ``epoch`` to ``date`` (both 'YYYY-MM')."""
    y, m = _parse_month(date)
    ey, em = _parse_month(epoch)
    return (y - ey) * 12 + (m - em)


def month_shift(epoch: str, months: int) -> str:
    ey, em = _parse_month(epoch)
    total = ey * 12 + (em - 1) + int(months)
    return f"{total // 12:04d}-{total % 12 + 1:02d}"


def read_share_csv(path, epoch: str, total: float = 100.0,
                   renormalize: bool = False, sum_rtol: float = 0.05) -> ShareSeries:
    """Read 'date,<component>,...' percentage rows into a ShareSeries.

    Dates are ISO months; times are month offsets from ``epoch``.
    """
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
            times.append(float(month_offset(row[0], epoch)))
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
    series = ShareSeries(components, times, shares, total=total,
                         sum_rtol=1.0 if renormalize else sum_rtol)
    return series.renormalized() if renormalize else series


def write_share_series(path, series: ShareSeries, epoch: str):
    """Emit a share table readable by :func:`read_share_csv` (date first)."""
    header = ["date", "t"] + list(series.components)

    def rows():
        for j, t in enumerate(series.times):
            yield [month_shift(epoch, int(round(t))), t] + list(series.shares[j])

    write_table(path, header, rows())


# ---------------------------------------------------------------------------
# dense matrices and trajectories
# ---------------------------------------------------------------------------


def read_matrix(path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise InputDataError(f"no such file: {path}")
    try:
        mat = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InputDataError(f"{path}: not a dense numeric CSV: {exc}") from exc
    return mat


def write_matrix(path, mat):
    mat = np.asarray(mat, dtype=float)
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        for row in np.atleast_2d(mat):
            w.writerow([repr(float(v)) for v in row])
