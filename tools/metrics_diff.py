#!/usr/bin/env python3
"""Compare two metric dumps and gate on regressions.

Usage: metrics_diff.py BASE CANDIDATE [options]

Inputs are Prometheus text files, the .prom that bench_all writes
beside its results file (<stem>.prom for <stem>.json). Each sample line is one
scalar, keyed by its name and sorted labels (a histogram's buckets,
_sum and _count are separate samples), and the two files are compared
sample by sample.

A sample regresses when its relative change exceeds the allowed
delta (default 0%: the simulation is deterministic, so any change in
a deterministic metric is a finding). Wall-clock and cache-
effectiveness families are machine- and run-dependent and ignored by
default; see --ignore.

--fold LABEL first sums, in file order, the samples of each input
that differ only in LABEL, the way bench_all rolls `app` up unless run
with --metrics-detail. Integer samples (counters, histogram buckets
and counts, timer laps) must then still match exactly; non-integer
ones (gauges, histogram sums, timer seconds) may differ by 1e-9
relative, since the writer prints 12 significant digits and a sum of
printed parts can round differently from the printed sum.

Exit status:
  0  no regressions
  1  regressions found (changed samples, or metric families present
     in the baseline but missing from the candidate)
  2  bad input (unreadable file, a malformed or repeated sample
     line, or no samples), naming the file and line

Examples:
  metrics_diff.py run1.prom run2.prom
  metrics_diff.py old.prom new.prom --max-delta-pct 5
  metrics_diff.py old.prom new.prom --rule 'pcap_energy_joules=0.5'
  metrics_diff.py detail.prom rolled-up.prom --fold app
"""

import argparse
import math
import re
import sys

DEFAULT_IGNORE = (
    # Wall-clock timers and pool scheduling differ run to run. The
    # pcap_workload_generated_* families are compared: traces are
    # generated once per app, under the engine's own config label.
    r"wall|thread_pool"
    # Span-tracer volume depends on scheduling (pool-task spans, ring
    # drops); timelines are opt-in artifacts checked by
    # compare_bench.py --timeline-dir, not a metrics family to diff.
    r"|pcap_trace_profile|pcap_timeline"
    # Hardware-counter readings (--perf) are machine- and
    # scheduling-dependent by nature; compare_bench.py --check-perf
    # gates their schema instead.
    r"|pcap_perf"
)

# Relative tolerance of non-integer samples under --fold: the writer
# keeps 12 significant digits.
FOLD_REL_TOLERANCE = 1e-9


def die(message):
    """Input error: print a diagnostic and exit with status 2."""
    print(f"metrics_diff: error: {message}", file=sys.stderr)
    sys.exit(2)


def family(key):
    """Family of a sample key: the metric name before '{'."""
    return key.partition("{")[0]


SAMPLE = re.compile(r"([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)")
LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(?:,|$)')
ESCAPE = re.compile(r"\\(.)")


def parse_sample(line):
    """(name, [(label, value), ...], value) of a sample line, or None
    when the line is malformed."""
    match = SAMPLE.fullmatch(line)
    if not match:
        return None
    labels, body, pos = [], match[2] or "", 0
    while pos < len(body):
        label = LABEL.match(body, pos)
        if not label:
            return None
        labels.append((label[1], ESCAPE.sub(
            lambda m: "\n" if m[1] == "n" else m[1], label[2])))
        pos = label.end()
    try:
        return match[1], labels, float(match[3])
    except ValueError:
        return None


def load_prom(path, fold=None):
    """Map each sample of a Prometheus text file to its value.

    The key is 'name{label=value,...}' with the labels sorted. With
    @fold, samples that differ only in that label are summed, in file
    order. Returns (samples, floating) where floating is the set of
    keys with a non-integer value in some sample. An unreadable file,
    a malformed or (without @fold) repeated sample line, or a file
    without samples exits 2.
    """
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        die(f"{path}: {err}")
    samples = {}
    floating = set()
    for number, line in enumerate(lines, 1):
        if not line or line.startswith("#"):
            continue
        sample = parse_sample(line)
        if sample is None:
            die(f"{path}:{number}: malformed sample line {line!r}")
        name, labels, value = sample
        kept = ",".join(f"{k}={v}" for k, v in sorted(labels)
                        if k != fold)
        key = f"{name}{{{kept}}}"
        if fold is None and key in samples:
            die(f"{path}:{number}: duplicate sample {key}")
        samples[key] = samples.get(key, 0.0) + value
        if not value.is_integer():
            floating.add(key)
    if not samples:
        die(f"{path}: no samples, not a Prometheus text file")
    return samples, floating


def delta_pct(base, cand):
    if base == cand:
        return 0.0
    scale = max(abs(base), abs(cand))
    if scale == 0.0:
        return 0.0
    return 100.0 * abs(cand - base) / scale


def parse_rule(text):
    name, sep, pct = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"rule must look like REGEX=PCT, got {text!r}")
    try:
        return re.compile(name), float(pct)
    except (re.error, ValueError) as err:
        raise argparse.ArgumentTypeError(f"bad rule {text!r}: {err}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="baseline .prom file")
    parser.add_argument("candidate", help="candidate .prom file")
    parser.add_argument("--max-delta-pct", type=float, default=0.0,
                        help="allowed relative change in percent "
                             "(default: 0, exact)")
    parser.add_argument("--rule", type=parse_rule, action="append",
                        default=[], metavar="REGEX=PCT",
                        help="per-metric override of the allowed "
                             "delta; first matching rule wins")
    parser.add_argument("--ignore", default=DEFAULT_IGNORE,
                        help="regex of sample keys to skip entirely "
                             f"(default: {DEFAULT_IGNORE!r}; '' "
                             "disables)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="don't fail when a baseline sample is "
                             "missing from the candidate")
    parser.add_argument("--fold", metavar="LABEL",
                        help="sum each input's samples over LABEL "
                             "before comparing; non-integer "
                             "samples then allow "
                             f"{FOLD_REL_TOLERANCE:g} relative")
    args = parser.parse_args()

    base, floating = load_prom(args.base, args.fold)
    cand, cand_floating = load_prom(args.candidate, args.fold)
    floating |= cand_floating
    ignore = re.compile(args.ignore) if args.ignore else None

    cand_families = {family(k) for k in cand}
    regressions = []
    missing = []
    compared = ignored = 0
    for key in sorted(base):
        if ignore and ignore.search(key):
            ignored += 1
            continue
        if key not in cand:
            if not args.allow_missing:
                missing.append(key)
            continue
        compared += 1
        limit = args.max_delta_pct
        for pattern, pct in args.rule:
            if pattern.search(key):
                limit = pct
                break
        if args.fold and key in floating:
            limit = max(limit, 100.0 * FOLD_REL_TOLERANCE)
        pct = delta_pct(base[key], cand[key])
        if pct > limit or math.isnan(pct):
            regressions.append(
                f"CHANGED  {key}: {base[key]:g} -> {cand[key]:g} "
                f"({pct:.3f}% > {limit:g}%)")

    # Group missing samples by metric family so a family that
    # vanished wholesale (a subsystem stopped reporting) reads as one
    # clear line instead of a wall of per-series noise.
    by_family = {}
    for key in missing:
        by_family.setdefault(family(key), []).append(key)
    for name in sorted(by_family):
        keys = by_family[name]
        if name not in cand_families:
            regressions.append(
                f"MISSING FAMILY  {name}: {len(keys)} series in "
                f"{args.base} but the family is absent from "
                f"{args.candidate}")
        else:
            for key in keys:
                regressions.append(
                    f"MISSING  {key}: present in {args.base}, "
                    f"absent from {args.candidate}")

    new = sorted(k for k in cand if k not in base
                 and not (ignore and ignore.search(k)))

    print(f"compared {compared} samples "
          f"({ignored} ignored, {len(new)} only in candidate)")
    for key in new[:10]:
        print(f"NEW      {key}")
    if len(new) > 10:
        print(f"... and {len(new) - 10} more new samples")

    if regressions:
        print(f"REGRESSIONS: {len(regressions)}")
        for line in regressions[:50]:
            print(line)
        if len(regressions) > 50:
            print(f"... and {len(regressions) - 50} more")
        return 1
    print("OK: zero regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
