#!/usr/bin/env sh
# Build Release, run the test suite, run bench_all, and check the
# results against the committed reference.
#
# Gates, in order:
#   1. every report byte-identical to bench/reference (compare_bench),
#      at the requested job count and at --jobs 1
#   2. runs 1 and 2 produce identical deterministic metrics in their
#      .prom files (metrics_diff, zero regressions allowed);
#      --metrics-detail runs at one and four jobs agree exactly, and
#      summed over app (metrics_diff --fold app) they equal run 1's
#      rolled-up export
#   3. every report is checked against an enforced wall-time budget
#      (generous — the gate catches order-of-magnitude regressions,
#      not scheduler noise)
#   4. run 2 records per-cell timelines and a span
#      profile; the timeline dumps are schema-gated and rendered to
#      HTML, the profile must load as JSON with well-formed
#      cell-replay spans, proving the instrumentation does not
#      perturb reports
#   5. a further run evaluates bench/alerts/default_rules.json; a
#      fired warn rule is tolerated (exit 3), critical (4) fails
#   6. the fleet smoke drills its outlier hosts at two thread counts
#      and the drill-down bundles must be byte-identical
#   7. a hardware-counter run (--perf) must either deliver real
#      counters or fall back cleanly to the software backend — never
#      crash; its pcap-perf-v1 block is schema-gated (--check-perf)
#      and a PCAP_PERF_BACKEND=software run must mark the forced
#      fallback honestly
#   8. run 1's timings footer reports a peak RSS of at most
#      32 MiB (the suite peaks near 21 MiB at 4 jobs; Release
#      builds only, so the check stays out of ctest, whose suite
#      also runs under the sanitizers)
#   9. a timestamped BENCH_<tag>.json (+ .prom + manifest) lands at
#      the repo root as the artifact of record for this revision;
#      the published run carries the perf block.
#
# Usage: tools/run_benchmarks.sh [jobs] [tag]
#   jobs  worker threads for bench_all (default: hardware)
#   tag   artifact basename suffix: BENCH_<tag>.json; defaults to
#         $PCAP_BENCH_TAG, then the git short hash, then "local"
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build="$root/build"
jobs="${1:-0}"
tag="${2:-${PCAP_BENCH_TAG:-}}"
if [ -z "$tag" ]; then
    tag=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo local)
fi

echo "== configure + build (Release) =="
cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" -j "$(nproc 2>/dev/null || echo 2)"

echo
echo "== tests =="
ctest --test-dir "$build" --output-on-failure

echo
echo "== bench_all (run 1, run 2) =="
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
"$build/bench/bench_all" --jobs "$jobs" \
    --json "$scratch/run1.json" > "$scratch/run1.txt"
"$build/bench/bench_all" --jobs "$jobs" \
    --json "$scratch/run2.json" \
    --timeline-dir "$scratch/timeline" \
    --trace-profile "$scratch/trace-profile.json" > /dev/null

for run in run1 run2; do
    python3 - "$scratch/$run.json" "$run" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    results = json.load(f)
t = results["timings_ms"]
print(f"{sys.argv[2]}: inputs {t['inputs']} ms, "
      f"simulation {t['simulation']} ms, total {t['total']} ms")
EOF
done

echo
echo "== peak RSS (run 1 footer, bound 32 MiB) =="
python3 "$root/tools/check_peak_rss.py" "$scratch/run1.txt"

echo
echo "== compare against bench/reference/BENCH_RESULTS.ref.json =="
python3 "$root/tools/compare_bench.py" \
    "$root/bench/reference/BENCH_RESULTS.ref.json" \
    "$scratch/run1.json" \
    --max-report-seconds ablation_cache=20 \
    --max-any-report-seconds 60

echo
echo "== metrics determinism (run 1 vs run 2) =="
python3 "$root/tools/metrics_diff.py" \
    "$scratch/run1.prom" "$scratch/run2.prom"

echo
echo "== detail metrics (--metrics-detail at 1 and 4 jobs, app rollup) =="
"$build/bench/bench_all" --jobs 1 --metrics-detail \
    --json "$scratch/detail-j1.json" > /dev/null
"$build/bench/bench_all" --jobs 4 --metrics-detail \
    --json "$scratch/detail-j4.json" > /dev/null
python3 "$root/tools/metrics_diff.py" \
    "$scratch/detail-j1.prom" "$scratch/detail-j4.prom"
# The single-thread run is the serial path: its reports must match
# the reference too, not only agree with the four-job run's metrics.
python3 "$root/tools/compare_bench.py" \
    "$root/bench/reference/BENCH_RESULTS.ref.json" \
    "$scratch/detail-j1.json" \
    --max-report-seconds ablation_cache=20 \
    --max-any-report-seconds 60
python3 "$root/tools/metrics_diff.py" --fold app \
    "$scratch/detail-j4.prom" "$scratch/run1.prom"

echo
echo "== timeline schema, HTML render, span profile (instrumented run 2) =="
python3 "$root/tools/compare_bench.py" \
    "$root/bench/reference/BENCH_RESULTS.ref.json" \
    "$scratch/run2.json" \
    --timeline-dir "$scratch/timeline" \
    --max-report-seconds ablation_cache=20 \
    --max-any-report-seconds 60
python3 "$root/tools/pcap_timeline.py" "$scratch/timeline" \
    -o "$scratch/timeline/timeline.html"
python3 - "$scratch/trace-profile.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
assert spans, "no complete spans recorded"
for event in spans:
    assert event["ts"] >= 0 and event["dur"] >= 0, event
names = {e["name"] for e in spans}
assert "cell-replay" in names, sorted(names)
print(f"trace profile ok: {len(spans)} spans")
EOF

echo
echo "== alert rules (bench/alerts/default_rules.json) =="
alert_status=0
"$build/bench/bench_all" --jobs "$jobs" \
    --json "$scratch/alerts.json" \
    --alerts "$root/bench/alerts/default_rules.json" > /dev/null \
    || alert_status=$?
case "$alert_status" in
    0) echo "alerts: clean" ;;
    3) echo "alerts: warn rule(s) fired (tolerated)" ;;
    *) echo "alerts: failed with exit $alert_status" >&2
       exit "$alert_status" ;;
esac
python3 "$root/tools/compare_bench.py" \
    "$root/bench/reference/BENCH_RESULTS.ref.json" \
    "$scratch/alerts.json" \
    --check-alerts \
    --max-report-seconds ablation_cache=20 \
    --max-any-report-seconds 60

echo
echo "== hardware counters (--perf) =="
"$build/bench/bench_all" --jobs "$jobs" \
    --json "$scratch/perf.json" \
    --perf > /dev/null
python3 "$root/tools/compare_bench.py" \
    "$root/bench/reference/BENCH_RESULTS.ref.json" \
    "$scratch/perf.json" \
    --check-perf \
    --max-report-seconds ablation_cache=20 \
    --max-any-report-seconds 60
PCAP_PERF_BACKEND=software "$build/bench/bench_all" --jobs "$jobs" \
    --json "$scratch/perf-sw.json" \
    --perf > /dev/null
python3 - "$scratch/perf-sw.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
perf = doc["perf"]
assert perf["backend"] == "software", perf["backend"]
assert "PCAP_PERF_BACKEND" in perf["detail"], perf["detail"]
print("forced software fallback: marked honestly")
EOF

echo
echo "== fleet smoke (128 hosts, two thread counts, drill-down) =="
"$build/bench/bench_all" --report fleet --hosts 128 --jobs 1 \
    --json "$scratch/fleet-a.json" \
    --drilldown-dir "$scratch/drill-a" > /dev/null
"$build/bench/bench_all" --report fleet --hosts 128 --jobs 4 \
    --json "$scratch/fleet-b.json" \
    --drilldown-dir "$scratch/drill-b" > /dev/null
python3 "$root/tools/compare_bench.py" \
    "$scratch/fleet-a.json" "$scratch/fleet-b.json" \
    --max-any-report-seconds 300
diff -r "$scratch/drill-a" "$scratch/drill-b"
echo "drill-down bundles byte-identical across thread counts"
python3 "$root/tools/pcap_fleet_report.py" "$scratch/drill-a" \
    --fleet-json "$scratch/fleet-a.json" \
    -o "$scratch/drill-a/fleet_report.html"

echo
echo "== publish BENCH_$tag.json =="
# The perf run is the artifact of record: identical reports (gated
# above), plus the pcap-perf-v1 block and the capability record in
# its manifest.
cp "$scratch/perf.json" "$root/BENCH_$tag.json"
cp "$scratch/perf.prom" "$root/BENCH_$tag.prom"
cp "$scratch/perf.manifest.json" "$root/BENCH_$tag.manifest.json"
echo "wrote $root/BENCH_$tag.json (+ .prom, .manifest.json)"
