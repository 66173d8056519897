#!/usr/bin/env python3
"""Bound the peak RSS a bench_all run reports.

Usage: check_peak_rss.py FOOTER

FOOTER is a file holding bench_all's stdout (or just its timings
footer); its `peak rss: X MiB` line is the getrusage high-water mark
at the end of the report phase. The bound holds for Release builds
only: sanitizer builds read several times higher. The default suite
peaks near 44 MiB at 4 jobs and near 58 MiB at 16 on a 4-core box;
64 MiB leaves room for those and fails if the engine keeps its
inputs resident again (72 MiB at 4 jobs when it did).

Exit status:
  0  the peak is at most 64 MiB
  1  the peak is above the bound, or the file has no `peak rss` line
"""

import re
import sys

BOUND_MIB = 64

text = open(sys.argv[1]).read()
match = re.search(r"^peak rss: +([0-9.]+) MiB$", text, re.M)
if not match:
    sys.exit("no 'peak rss' line in the bench_all footer")
peak = float(match.group(1))
if peak > BOUND_MIB:
    sys.exit(f"peak rss {peak} MiB is above the {BOUND_MIB} MiB bound")
print(f"peak rss {peak} MiB: within the {BOUND_MIB} MiB bound")
