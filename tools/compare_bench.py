#!/usr/bin/env python3
"""Compare two BENCH_RESULTS.json files for scientific equality.

Usage: compare_bench.py REFERENCE CANDIDATE [options]

Report lines must match byte for byte -- the engine is
deterministic, so every figure number is expected to be identical.

Timings, job counts and perf counters are machine- and
run-dependent, so they are ignored here. The metric series live
in the .prom bench_all writes beside the results file (<stem>.prom
for <stem>.json), and tools/metrics_diff.py compares those; the
candidate's .prom must exist and hold pcap_ samples, so an
instrumentation regression cannot slip through.

--max-report-seconds NAME=SECONDS (repeatable) additionally budgets
the candidate's wall time for one report (timings_ms.reports.NAME).
--max-any-report-seconds SECONDS applies one (generous) budget to
every report in the candidate. A blown budget is an error.

When both files carry a top-level "fleet" block (bench_all --report
fleet) the generic key comparison requires it to be identical, and
the candidate's block is schema-checked (pcap-fleet-v1).

--timeline-dir DIR schema-checks every *.timeline.json the
candidate run wrote with bench_all --timeline-dir: pcap-timeline-v1
schema, positive bucket width, series lengths equal to the bucket
count, per-bucket state residency bounded by the bucket width, and
non-negative counts and energies (so cumulative energy is
non-decreasing over simulated time). An empty directory is an
error -- a timeline-instrumentation regression must not pass.

--check-perf requires and schema-checks the candidate's pcap-perf-v1
block (bench_all --perf): a known backend, non-empty regions with
the full counter field set, hardware backends showing real cycle and
instruction counts, software backends showing all-zero hardware
counters (the honest-fallback contract). Derived statistics -- IPC,
cache/branch miss rates, and cycles per simulated idle period when
the .prom carries pcap_sim_idle_periods_total -- are printed,
and bounded only by warn-level budgets (PERF_MIN_IPC,
PERF_MAX_MISS_RATE): counter values are machine-dependent, so they
advise rather than gate.
"""

import argparse
import glob
import json
import os
import sys

from metrics_diff import family, load_prom

IGNORED_TOP_KEYS = {"jobs", "timings_ms", "perf"}

# Advisory bounds for hardware perf regions (warn only).
PERF_MIN_IPC = 0.05
PERF_MAX_MISS_RATE = 0.95


def load_metrics(results_path, errors):
    """Samples of the .prom beside the candidate results file (an
    error when it holds no pcap_ sample), or None and an error when
    that file is missing."""
    stem = results_path
    if stem.endswith(".json") and len(stem) > len(".json"):
        stem = stem[:-len(".json")]
    path = stem + ".prom"
    if not os.path.isfile(path):
        errors.append(f"candidate has no metrics file {path}")
        return None
    samples, _ = load_prom(path)
    if not any(key.startswith("pcap_") for key in samples):
        errors.append(f"{path} holds no pcap_ sample")
    return samples


def check_fleet(got, errors):
    """Schema of the candidate's fleet block, when present."""
    fleet = got.get("fleet")
    if fleet is None:
        return
    if not isinstance(fleet, dict):
        errors.append("fleet block is not an object")
        return
    if fleet.get("schema") != "pcap-fleet-v1":
        errors.append(f"fleet schema {fleet.get('schema')!r} "
                      f"!= 'pcap-fleet-v1'")
        return
    hosts = fleet.get("hosts")
    if not isinstance(hosts, (int, float)) or hosts < 1:
        errors.append(f"fleet hosts {hosts!r} is not >= 1")
    policies = fleet.get("policies")
    if not isinstance(policies, list) or not policies:
        errors.append("fleet block has no policies")
        return
    for policy in policies:
        label = policy.get("policy", "<unnamed>")
        for field in ("energy_j", "saved_fraction",
                      "hit_fraction", "miss_fraction"):
            percentiles = policy.get(field)
            if not isinstance(percentiles, dict) or not all(
                    q in percentiles for q in ("p50", "p90", "p99")):
                errors.append(f"fleet policy {label}: {field} lacks "
                              f"p50/p90/p99")
        outliers = policy.get("outliers")
        if not isinstance(outliers, list):
            errors.append(f"fleet policy {label}: no outliers list")
            continue
        for outlier in outliers:
            if not all(field in outlier
                       for field in ("host", "metric", "value",
                                     "median", "score")):
                errors.append(f"fleet policy {label}: outlier entry "
                              f"lacks host/metric/value/median/score")
                break


def check_alerts(got, errors):
    """Schema of the candidate's pcap-alerts-v1 block (--check-alerts).

    The block must exist (the run was started with --alerts), every
    rule must carry a settled verdict, and the summary counters and
    exit code must be consistent with the per-rule statuses -- an
    alert-evaluation regression must not pass as "no alerts".
    """
    checked_before = len(errors)
    alerts = got.get("alerts")
    if not isinstance(alerts, dict):
        errors.append("candidate has no 'alerts' block "
                      "(run with --alerts RULES.json)")
        return
    if alerts.get("schema") != "pcap-alerts-v1":
        errors.append(f"alerts schema {alerts.get('schema')!r} "
                      f"!= 'pcap-alerts-v1'")
        return
    rules = alerts.get("rules")
    if not isinstance(rules, list) or not rules:
        errors.append("alerts block has no rules")
        return
    statuses = {"ok", "skipped", "pending", "fired"}
    severities = {"warn", "critical"}
    fired = {"warn": 0, "critical": 0}
    names = set()
    for rule in rules:
        name = rule.get("name", "<unnamed>")
        if name in names:
            errors.append(f"alerts: duplicate rule name {name!r}")
        names.add(name)
        for field in ("name", "severity", "kind", "op",
                      "threshold", "status"):
            if field not in rule:
                errors.append(f"alerts rule {name}: missing "
                              f"'{field}'")
        if rule.get("status") not in statuses:
            errors.append(f"alerts rule {name}: status "
                          f"{rule.get('status')!r} not in "
                          f"{sorted(statuses)}")
            continue
        if rule.get("severity") not in severities:
            errors.append(f"alerts rule {name}: severity "
                          f"{rule.get('severity')!r} not in "
                          f"{sorted(severities)}")
            continue
        if rule["status"] == "fired":
            fired[rule["severity"]] += 1
        if rule["status"] in ("ok", "fired") and "value" not in rule:
            errors.append(f"alerts rule {name}: settled without an "
                          f"observed value")
    for severity, key in (("warn", "warn_fired"),
                          ("critical", "critical_fired")):
        if alerts.get(key) != fired[severity]:
            errors.append(f"alerts: {key} {alerts.get(key)!r} != "
                          f"{fired[severity]} fired rules")
    expected_exit = (4 if fired["critical"] else
                     3 if fired["warn"] else 0)
    if alerts.get("exit_code") != expected_exit:
        errors.append(f"alerts: exit_code {alerts.get('exit_code')!r}"
                      f" != {expected_exit}")
    if len(errors) == checked_before:
        print(f"alerts ok: {len(rules)} rules "
              f"({fired['warn']} warn, {fired['critical']} "
              f"critical fired)")


PERF_COUNT_FIELDS = ("cycles", "instructions", "cache_references",
                     "cache_misses", "branch_misses",
                     "task_clock_ns", "time_enabled_ns",
                     "time_running_ns")
PERF_DERIVED_FIELDS = ("ipc", "cache_miss_rate", "branch_miss_rate")


def total_idle_periods(metrics):
    """Sum of pcap_sim_idle_periods_total across the candidate's
    .prom samples, or None when the family (or the file) is absent."""
    values = [value for key, value in (metrics or {}).items()
              if family(key) == "pcap_sim_idle_periods_total"]
    return sum(values) if values else None


def check_perf(got, metrics, errors):
    """Schema of the candidate's pcap-perf-v1 block (--check-perf).

    Counter *presence and shape* gate hard; counter *values* are
    machine-dependent and only drive warn-level advisories.
    """
    checked_before = len(errors)
    perf = got.get("perf")
    if not isinstance(perf, dict):
        errors.append("candidate has no 'perf' block "
                      "(run with --perf)")
        return
    if perf.get("schema") != "pcap-perf-v1":
        errors.append(f"perf schema {perf.get('schema')!r} "
                      f"!= 'pcap-perf-v1'")
        return
    backend = perf.get("backend")
    if backend not in ("hardware", "software"):
        errors.append(f"perf backend {backend!r} not in "
                      f"('hardware', 'software')")
        return
    regions = perf.get("regions")
    if not isinstance(regions, list) or not regions:
        errors.append("perf block has no regions")
        return
    for region in regions:
        name = region.get("region", "<unnamed>")
        for field in PERF_COUNT_FIELDS:
            value = region.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                errors.append(f"perf region {name}: {field} "
                              f"{value!r} is not a non-negative "
                              f"number")
        for field in PERF_DERIVED_FIELDS:
            if field not in region:
                errors.append(f"perf region {name}: missing "
                              f"derived '{field}'")
    if errors[checked_before:]:
        return

    # The fallback contract: a software backend must not fake
    # hardware numbers, a hardware backend must deliver them.
    if backend == "software":
        faked = [r["region"] for r in regions if r["cycles"] > 0]
        if faked:
            errors.append(f"perf: software backend reports nonzero "
                          f"cycles in {faked[:3]}")
    else:
        live = [r for r in regions
                if r["cycles"] > 0 and r["instructions"] > 0]
        if not live:
            errors.append("perf: hardware backend but no region "
                          "has nonzero cycles and instructions")

    if errors[checked_before:]:
        return

    # Derived statistics: printed always, budget-checked (warn-only)
    # on hardware backends where the counters are real.
    idle_periods = total_idle_periods(metrics)
    for region in regions:
        name = region["region"]
        line = (f"perf region {name}: ipc {region['ipc']:.3f}, "
                f"cache miss rate {region['cache_miss_rate']:.3f}, "
                f"branch miss rate "
                f"{region['branch_miss_rate']:.4f}")
        if idle_periods and name in ("phase:simulation",
                                     "cells:replay"):
            line += (f", {region['cycles'] / idle_periods:.0f} "
                     f"cycles/idle-period")
        print(line)
        if backend != "hardware":
            continue
        if region["cycles"] == 0:
            continue
        if region["ipc"] < PERF_MIN_IPC:
            print(f"WARNING: perf region {name}: ipc "
                  f"{region['ipc']:.3f} below advisory floor "
                  f"{PERF_MIN_IPC:g}")
        if region["cache_miss_rate"] > PERF_MAX_MISS_RATE:
            print(f"WARNING: perf region {name}: cache miss rate "
                  f"{region['cache_miss_rate']:.3f} above advisory "
                  f"ceiling {PERF_MAX_MISS_RATE:g}")
    print(f"perf ok: {backend} backend, {len(regions)} regions")


def check_timeline_doc(path, doc, errors):
    """Invariants of one pcap-timeline-v1 document."""
    name = os.path.basename(path)
    if doc.get("schema") != "pcap-timeline-v1":
        errors.append(f"{name}: schema {doc.get('schema')!r} "
                      f"!= 'pcap-timeline-v1'")
        return
    buckets = doc.get("buckets")
    width = doc.get("bucket_width_us")
    if not isinstance(buckets, int) or buckets < 2:
        errors.append(f"{name}: buckets {buckets!r} is not >= 2")
        return
    if not isinstance(width, (int, float)) or width <= 0:
        errors.append(f"{name}: bucket_width_us {width!r} "
                      f"is not > 0")
        return
    used = doc.get("used_buckets")
    if not isinstance(used, int) or not 0 <= used <= buckets:
        errors.append(f"{name}: used_buckets {used!r} outside "
                      f"[0, {buckets}]")
    series = doc.get("series")
    if not isinstance(series, dict):
        errors.append(f"{name}: no series object")
        return
    flat = {}
    for group in ("state_us", "outcomes", "energy_j"):
        members = series.get(group)
        if not isinstance(members, dict) or not members:
            errors.append(f"{name}: series.{group} missing or empty")
            return
        for key, values in members.items():
            flat[f"{group}.{key}"] = values
    for key in ("shutdowns", "spin_ups", "table_entries"):
        flat[key] = series.get(key)
    for key, values in flat.items():
        if not isinstance(values, list) or len(values) != buckets:
            errors.append(f"{name}: series {key} is not a list of "
                          f"{buckets} buckets")
            return
    for key, values in flat.items():
        # Every series is non-negative (table_entries uses -1 for
        # "not sampled"), so each cumulative sum -- energy over
        # simulated time in particular -- is non-decreasing.
        floor = -1 if key == "table_entries" else 0
        bad = [v for v in values if v < floor]
        if bad:
            errors.append(f"{name}: series {key} has value "
                          f"{bad[0]!r} < {floor}")
    for i in range(buckets):
        residency = sum(series["state_us"][state][i]
                        for state in series["state_us"])
        if residency > width:
            errors.append(f"{name}: bucket {i} residency "
                          f"{residency} us exceeds bucket width "
                          f"{width} us")
            break


def check_timeline(timeline_dir, errors):
    """Every timeline dump in the directory, at least one."""
    paths = sorted(glob.glob(
        os.path.join(timeline_dir, "*.timeline.json")))
    if not paths:
        errors.append(f"no *.timeline.json files in {timeline_dir}")
        return
    checked_before = len(errors)
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            errors.append(f"{path}: {err}")
            continue
        check_timeline_doc(path, doc, errors)
    if len(errors) == checked_before:
        print(f"timeline ok: {len(paths)} dumps in {timeline_dir}")


def parse_budget(text):
    name, sep, seconds = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"budget must look like NAME=SECONDS, got {text!r}")
    try:
        value = float(seconds)
    except ValueError as err:
        raise argparse.ArgumentTypeError(
            f"bad budget {text!r}: {err}")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"budget {text!r} must be positive")
    return name, value


def check_budgets(got, budgets, any_budget, errors):
    """Candidate report wall times against their budgets."""
    timings = got.get("timings_ms", {}).get("reports", {})
    if any_budget is not None:
        named = {name for name, _ in budgets}
        budgets = list(budgets) + [(name, any_budget)
                                   for name in sorted(timings)
                                   if name not in named]
    for name, seconds in budgets:
        if name not in timings:
            errors.append(f"timing budget for '{name}': report has "
                          f"no timing in candidate")
            continue
        spent = timings[name] / 1000.0
        if spent <= seconds:
            print(f"timing ok: {name} {spent:.3f}s "
                  f"<= budget {seconds:g}s")
            continue
        errors.append(f"timing budget blown: {name} took "
                      f"{spent:.3f}s > budget {seconds:g}s")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("reference")
    parser.add_argument("candidate")
    parser.add_argument("--max-report-seconds", type=parse_budget,
                        action="append", default=[],
                        metavar="NAME=SECONDS",
                        help="wall-time budget for one candidate "
                             "report (repeatable)")
    parser.add_argument("--max-any-report-seconds", type=float,
                        default=None, metavar="SECONDS",
                        help="wall-time budget applied to every "
                             "candidate report not covered by a "
                             "named budget")
    parser.add_argument("--timeline-dir", metavar="DIR",
                        help="schema-check the candidate run's "
                             "*.timeline.json dumps in DIR")
    parser.add_argument("--check-alerts", action="store_true",
                        help="require and schema-check the "
                             "candidate's pcap-alerts-v1 block")
    parser.add_argument("--check-perf", action="store_true",
                        help="require and schema-check the "
                             "candidate's pcap-perf-v1 block")
    args = parser.parse_args()
    if (args.max_any_report_seconds is not None
            and args.max_any_report_seconds <= 0):
        parser.error("--max-any-report-seconds must be positive")

    with open(args.reference) as f:
        ref = json.load(f)
    with open(args.candidate) as f:
        got = json.load(f)

    errors = []
    for key in ref:
        if key in IGNORED_TOP_KEYS or key == "reports":
            continue
        if got.get(key) != ref[key]:
            errors.append(f"{key}: {got.get(key)!r} != {ref[key]!r}")

    metrics = load_metrics(args.candidate, errors)
    check_fleet(got, errors)
    if args.check_alerts:
        check_alerts(got, errors)
    if args.check_perf:
        check_perf(got, metrics, errors)
    if args.timeline_dir:
        check_timeline(args.timeline_dir, errors)
    check_budgets(got, args.max_report_seconds,
                  args.max_any_report_seconds, errors)

    ref_reports = ref.get("reports", {})
    got_reports = got.get("reports", {})
    for name in sorted(set(ref_reports) | set(got_reports)):
        if name not in got_reports:
            errors.append(f"report '{name}' missing from candidate")
            continue
        if name not in ref_reports:
            errors.append(f"report '{name}' not in reference")
            continue
        ref_lines = ref_reports[name]["lines"]
        got_lines = got_reports[name]["lines"]
        if len(ref_lines) != len(got_lines):
            errors.append(f"{name}: {len(got_lines)} lines != "
                          f"{len(ref_lines)}")
            continue
        for i, (a, b) in enumerate(zip(ref_lines, got_lines)):
            if a != b:
                errors.append(f"{name} line {i + 1} differs\n"
                              f"  ref: {a}\n  got: {b}")

    if errors:
        print(f"MISMATCH: {len(errors)} difference(s)")
        for error in errors[:20]:
            print(error)
        if len(errors) > 20:
            print(f"... and {len(errors) - 20} more")
        return 1
    print(f"OK: {len(ref_reports)} reports match (byte-identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
