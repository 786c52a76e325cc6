"""A component name holding a comma survives ``multilogistic forecast``.

Writes a share CSV whose components include ``fire,fox``, runs the installed
console script on it and reads ``forecast.csv`` and ``fit_report.csv`` back
with ``csv.reader``.

    python .github/scripts/forecast_comma_name.py <work dir>
"""

import csv
import subprocess
import sys
from pathlib import Path

import numpy as np

from multilogistic.core import closed_form
from multilogistic.io import month_shift

NAMES = ["explorer", "fire,fox", "chrome"]
EPOCH = "2012-03"

work = Path(sys.argv[1])
work.mkdir(parents=True, exist_ok=True)
times = np.arange(-24.0, 1.0)
shares = closed_form(np.array([50.0, 30.0, 20.0]), np.array([0.0, 0.1, 0.3]), 100.0, times)
with (work / "shares.csv").open("w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["date", *NAMES])
    w.writerows([month_shift(EPOCH, round(t)), *map(repr, row)]
                for t, row in zip(times.tolist(), shares.tolist()))
subprocess.run(["multilogistic", "forecast", "--input", str(work / "shares.csv"),
                "--reference", "explorer", "--epoch", EPOCH, "--horizon", "12",
                "--out", str(work / "fc")], check=True)


def read(name):
    with (work / "fc" / name).open(newline="") as fh:
        return list(csv.reader(fh))


forecast_header = read("forecast.csv")[0]
if forecast_header != ["date", "t", *NAMES]:
    sys.exit(f"forecast.csv header {forecast_header} does not name {NAMES}")
reported = [row[0] for row in read("fit_report.csv")[1:]]
if reported != NAMES:
    sys.exit(f"fit_report.csv names {reported}, not {NAMES}")
print("forecast.csv and fit_report.csv name", NAMES)
