#!/usr/bin/env python3
"""Compare two metric dumps and gate on regressions.

Usage: metrics_diff.py BASE CANDIDATE [options]

Inputs may be full BENCH_RESULTS.json files (the metrics live under
the top-level "metrics" key) or bare pcap-metrics-v1 documents.
Every series is flattened to scalar samples -- counters and gauges to
their value, histograms to count/sum plus one sample per bucket,
timers to seconds/laps -- and compared pairwise.

A sample regresses when its relative change exceeds the allowed
delta (default 0%: the simulation is deterministic, so any change in
a deterministic metric is a finding). Wall-clock and cache-
effectiveness families are machine- and run-dependent and ignored by
default; see --ignore.

--fold LABEL first sums, in file order, the series of each input that
differ only in LABEL, the way bench_all rolls `app` up unless run with
--metrics-detail. Integer samples (counter values, histogram counts
and buckets, timer laps) must then still match exactly; floating-point
ones (gauge values, histogram sums, timer seconds) may differ by
1e-9 relative, since the JSON writer prints 12 significant digits and
a sum of printed parts can round differently from the printed sum.

Exit status:
  0  no regressions
  1  regressions found (changed samples, or metric families present
     in the baseline but missing from the candidate)
  2  bad input (unreadable file, not a metrics document, wrong
     schema, or a malformed series missing required fields)

Examples:
  metrics_diff.py run1.json run2.json
  metrics_diff.py old.json new.json --max-delta-pct 5
  metrics_diff.py old.json new.json --rule 'pcap_energy_joules=0.5'
  metrics_diff.py detail.json rolled-up.json --fold app
"""

import argparse
import json
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

# Relative tolerance of floating-point samples under --fold: the
# JSON writer keeps 12 significant digits.
FOLD_REL_TOLERANCE = 1e-9


def die(message):
    """Input error: print a diagnostic and exit with status 2."""
    print(f"metrics_diff: error: {message}", file=sys.stderr)
    sys.exit(2)


def family(key):
    """Family of a sample key: the metric name before '{'."""
    return key.partition("{")[0]


def load_series(path):
    """Return the series list of a metrics document or bench file."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as err:
        die(f"{path}: {err.strerror or err}")
    except json.JSONDecodeError as err:
        die(f"{path}: not valid JSON ({err})")
    if not isinstance(doc, dict):
        die(f"{path}: top level is {type(doc).__name__}, "
            f"expected an object")
    if "metrics" in doc:  # full BENCH_RESULTS.json
        doc = doc["metrics"]
    if "series" not in doc:
        die(f"{path}: no 'series' key (and no 'metrics' block) "
            f"-- not a metrics document")
    schema = doc.get("schema")
    if schema != "pcap-metrics-v1":
        die(f"{path}: unexpected metrics schema {schema!r}")
    return doc["series"]


def flatten(series_list, path, fold=None):
    """Map 'name{label=value,...}[/part]' -> scalar sample.

    With @fold, series that differ only in that label are summed into
    one sample set, in file order. Returns (samples, floating) where
    floating is the set of keys whose samples are floating-point
    (gauge values, histogram sums, timer seconds).

    Malformed series (missing name/labels/type or the fields their
    type requires) are an input error: exit 2 naming the series and
    the missing field rather than tracing back with a KeyError.
    """
    samples = {}
    floating = set()

    def add(key, value, is_float=False):
        value = float(value)
        if fold is not None:
            value += samples.get(key, 0.0)
        samples[key] = value
        if is_float:
            floating.add(key)

    for i, s in enumerate(series_list):
        name = s.get("name", f"series #{i}")
        try:
            labels = ",".join(f"{k}={v}"
                              for k, v in sorted(s["labels"].items())
                              if k != fold)
            key = f"{s['name']}{{{labels}}}"
            kind = s["type"]
            if kind == "counter":
                add(key, s["value"])
            elif kind == "gauge":
                add(key, s["value"], is_float=True)
            elif kind == "histogram":
                add(f"{key}/count", s["count"])
                add(f"{key}/sum", s["sum"], is_float=True)
                for bucket in s["buckets"]:
                    add(f"{key}/le={bucket['le']}", bucket["count"])
            elif kind == "timer":
                add(f"{key}/seconds", s["seconds"], is_float=True)
                add(f"{key}/laps", s["laps"])
            else:
                die(f"{path}: {name}: unknown series type {kind!r}")
        except KeyError as err:
            die(f"{path}: {name}: malformed series, missing field "
                f"{err.args[0]!r}")
        except (TypeError, ValueError) as err:
            die(f"{path}: {name}: malformed series ({err})")
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
    parser.add_argument("base", help="baseline metrics/bench file")
    parser.add_argument("candidate", help="candidate metrics/bench file")
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
                        help="sum each input's series over LABEL "
                             "before comparing; floating-point "
                             "samples then allow "
                             f"{FOLD_REL_TOLERANCE:g} relative")
    args = parser.parse_args()

    base, floating = flatten(load_series(args.base), args.base,
                             args.fold)
    cand, cand_floating = flatten(load_series(args.candidate),
                                  args.candidate, args.fold)
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
