"""Every cold-run budget of the command line, one row per command line.

    python tests/cold_budgets.py

runs each row as a fresh `python -m circulant.cli` child with `src` on its
path and prints its exit code, time and peak RSS. A row passes when the
child exits with the row's code, its stdout matches the row's pattern whole
(a row without one sends stdout to /dev/null), a child that exits 2 writes
exactly one stderr line, and the child ends within the row's seconds (it is
killed at the bound) and peaks within its MB. The script exits 1 naming
every row that broke its budget. A new budget or a raised cap is one row.
"""

import math
import os
import re
import subprocess
import sys
import threading
import time
from collections import namedtuple
from itertools import groupby

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

Row = namedtuple("Row", "argv code stdout seconds mb")


def _indices(*runs):
    """The index argument of (value, count) runs: _indices((0, 2), (5, 1)) is 0,0,5."""
    return ",".join(str(v) for v, count in runs for _ in range(count))


def _distinct(n):
    """The index argument with every index of N distinct: 0,1,...,N-1."""
    return ",".join(map(str, range(n)))


ROWS = [
    # every verify suite over its whole window; the identities and
    # determinant suites evaluate the orbit table orbit by orbit
    Row(["verify", "2..12"], 0, None, 10, 24),
    # each orbit command at its cap: only the rows are held
    Row(["multiplets", "12", "--format", "json"], 0, None, 5, 48),
    Row(["zeros", "12", "--format", "json"], 0, None, 2, 24),
    # the one command that builds the sorted term list
    Row(["expand", "12", "--format", "json"], 0, None, 10, 72),
    # every index distinct leaves 16 labels: 2^16 labeled subsets
    Row(["coeff", "19", _distinct(19)], 0, r"142901109\n", 3, 32),
    # 18 labels: 3^18 = MAX_PARTITION_STEPS pairs of a subset and a
    # submask, the largest all-distinct tail coeff accepts
    Row(["coeff", "21", _distinct(21)], 0, r"4548104883\n", 6, 32),
    # every index distinct at N = 1001 is refused by the step limit before
    # the reduction ties all N phi(N) group elements
    Row(["coeff", "1001", _distinct(1001)], 2, "", 2, 32),
    # 24 equal labels: 25 sub-multisets, where 2^24 labeled subsets would
    # take about 0.7 GB
    Row(["coeff", "50", _indices((0, 25), (2, 25))], 0, r"2\n", 10, 32),
    # seven values three times and one once: 4^7 * 2 sub-multisets
    Row(["coeff", "29", _indices(*((v, 3) for v in range(9)), (9, 1), (28, 1))], 0,
        r"-23865716460\n", 5, 32),
    # eleven values twice at M0 = 4, M1 = 2: 6^11 pairs of a content and a
    # sub-content, under MAX_PARTITION_STEPS
    Row(["coeff", "29", _indices((0, 4), *((v, 2) for v in range(1, 13)), (18, 1))], 0,
        r"-181910218176\n", 10, 32),
    # an empty partition sum: the reduction ranks the lines starting on the
    # three support positions only, not all N phi(N)
    Row(["coeff", "3840", _indices((0, 3838), (1, 1), (3839, 1))], 0, r"-3840\n", 2, 32),
    # no two support positions differ by a unit, so about phi(N) group
    # elements tie for the top rank; only the winner's image is built
    Row(["coeff", "3840", _indices((0, 3838), (2, 1), (3838, 1))], 0, r"-3840\n", 2, 32),
    # one value: all phi(N) lines tie on the same one-entry sparse image,
    # so the smallest shift breaks the tie
    Row(["coeff", "10000", _indices((5, 10000))], 0, r"-1\n", 2, 32),
    # 2,048 lines tie, each compared by the entries of its two support
    # points, then a content DP runs over 1,919 copies of one value;
    # (y0^2 - y1^2)^1920 gives the value
    Row(["coeff", "3840", _indices((0, 1920), (1920, 1920))], 0,
        r"%d\n" % math.comb(1920, 960), 10, 32),
    # 4,096 lines tie on one image, which agrees with the input through
    # entry 7680: a tie must not be compared entry by entry
    Row(["coeff", "15360", _indices((0, 15358), (7680, 2))], 0, r"-7680\n", 1, 32),
    # 0,0,2,2,...: on the gate, and every tail an image can leave is above
    # MAX_PARTITION_STEPS, so it is refused before its 480 phi(N) tied lines
    # are compared
    Row(["coeff", "960", _indices(*((v, 2) for v in range(0, 960, 2)))], 2, "", 2, 32),
    # exit codes of the real process, through run() and sys.exit: a usage
    # error prints one stderr line and no stdout, help goes to stdout
    Row([], 2, "", 2, 24),
    Row(["--help"], 0, r"usage: .*", 2, 24),
    Row(["coeff", "--help"], 0, r"usage: .*", 2, 24),
    Row(["coeff", "5"], 2, "", 2, 24),
    Row(["coeff", "5", "0,0,1,2,2"], 0, r"5\n", 2, 24),
]


def label(argv):
    """The command line as printed: a run of one index as value^count, and
    an argument still longer than 40 characters cut in the middle."""
    args = []
    for a in argv:
        runs = [(v, len(list(run))) for v, run in groupby(a.split(","))]
        args.append(",".join(v if n == 1 else "%s^%d" % (v, n) for v, n in runs))
    return " ".join(a if len(a) <= 40 else "%s...%s" % (a[:18], a[-18:]) for a in args) or "(none)"


def run(row):
    """(exit code, seconds, peak MB, [broken checks]) of one cold child.

    os.wait4 gives this child's own peak; getrusage of all children would
    report the largest peak of every child run so far.
    """
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "circulant.cli", *row.argv],
                          env=dict(os.environ, PYTHONPATH=SRC), text=True,
                          stdout=subprocess.DEVNULL if row.stdout is None else subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        timer = threading.Timer(row.seconds, child.kill)
        timer.start()
        try:
            out = child.stdout.read() if child.stdout else None
            err = child.stderr.read()
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        child.returncode = code = os.waitstatus_to_exitcode(status)
    seconds, mb = time.perf_counter() - start, usage.ru_maxrss / 1024  # KiB on Linux
    broken = []
    if code != row.code:
        broken.append("exit %d, want %d" % (code, row.code))
    if row.stdout is not None and not re.fullmatch(row.stdout, out, re.S):
        broken.append("stdout %.60r, want %r" % (out, row.stdout))
    if code == 2 and len(err.splitlines()) != 1:
        broken.append("stderr %.200r, want one line" % err)
    if seconds > row.seconds:
        broken.append("%.2f s, over %g s" % (seconds, row.seconds))
    if mb > row.mb:
        broken.append("%.1f MB, over %g MB" % (mb, row.mb))
    return code, seconds, mb, broken


def main():
    over = []
    for row in ROWS:
        code, seconds, mb, broken = run(row)
        print("%-48s exit %3d %7.2f s %6.1f MB  %s" % (
            label(row.argv), code, seconds, mb, "; ".join(broken) or "ok"), flush=True)
        if broken:
            over.append(label(row.argv))
    if over:
        sys.exit("over budget: " + ", ".join(over))


if __name__ == "__main__":
    main()
