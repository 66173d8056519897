#!/usr/bin/env python3
"""The repository benchmark: end-to-end runs and a per-layer ledger.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper|fleet|observed \\
        --seed N --seconds S --trace 0|1

The first call builds perfbench/ (which pulls in the repository's own
CMake build, Release) into .bench_build/perfbench; later calls only
re-check that build.

--trace 0 measures the workload end to end. Each repetition is one
process of perfbench_workload (see workload.cpp), run at 4 jobs;
repetitions run back to back until S seconds have passed (at least
MIN_REPS of them), and every metric is the median over them:

    wall_s        launch to exit
    cpu_s         user + system CPU time of the process
    peak_rss_mib  maximum resident set size
    setup_s       launch to the "setup done" line the process prints
                  before its first policy replay (median of at least
                  SETUP_SAMPLES launches: extra ones stop there)
    output_mib    bytes the process wrote (results, .prom, manifest;
                  timelines and span profile for observed)

Every repetition runs the same work, the workload of --seed: the
spread across seeds comes from the caller varying --seed between runs.

--trace 1 runs perfbench_ledger instead, which times calls into each
layer's public functions with the thread CPU clock and reports each
layer's work count, busy ns and ns per unit (see ledger.cpp). The
ledger covers every layer, so it is the same for every workload.

Correctness is checked on every run and counted as failed operations
(one operation = one report of the paper suite, or one fleet block):

  - at seed 42 every report must equal bench/reference's text, and
    the fleet block must hash to expected.json's digest;
  - every repetition must reproduce the first one;
  - fleet: the block must also be identical when re-run at one job;
  - a nonzero exit fails all of the repetition's operations;
  - traced runs: the ledger's global TP and PCAP results per app must
    equal the experiment engine's (one operation each).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 when every
operation passed, 1 when one failed (the JSON is still printed) and 2
when the benchmark could not run (no result printed).

Everything the runs write goes to a private directory under
.bench_build, removed at exit; the shared workload cache is never
used.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BIN_DIR = os.path.join(BUILD_DIR, "bin")
REFERENCE = os.path.join(ROOT, "bench", "reference",
                         "BENCH_RESULTS.ref.json")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("paper", "fleet", "observed")
REFERENCE_SEED = 42
JOBS = 4
MIN_REPS = 3
SETUP_SAMPLES = 25
# Every process is killed once the run has lasted --seconds plus this
# long (the warm-up launch, the last repetition, the one-job fleet
# check and the set-up launches), so a hang becomes a failed
# operation instead of a stuck benchmark.
RUN_MARGIN_S = 120.0
SETUP_MARKER = b"perfbench: setup done"


class BenchError(Exception):
    """The benchmark itself could not run (exit 2, no result)."""


def log(message):
    print(message, flush=True)


def run_quiet(cmd, log_path):
    """Run a build step; raise with the log tail when it fails."""
    with open(log_path, "ab") as out:
        status = subprocess.call(cmd, stdout=out,
                                 stderr=subprocess.STDOUT)
    if status != 0:
        with open(log_path, "rb") as src:
            sys.stderr.write(src.read()[-4000:].decode(errors="replace"))
        raise BenchError(f"command failed ({status}): {' '.join(cmd)}")


def build():
    """Configure once, then (re)build the two benchmark binaries."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        # A checkout moved to another path keeps a stale cache.
        with open(cache, errors="replace") as src:
            home = [line for line in src
                    if line.startswith("CMAKE_HOME_DIRECTORY")]
        if home != [f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n"]:
            shutil.rmtree(BUILD_DIR)
            os.makedirs(BUILD_DIR)
    if not os.path.exists(cache):
        try:
            run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                       "-DCMAKE_BUILD_TYPE=Release"], log_path)
        except BenchError:
            # A half-configured tree would skip configuring next time.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", str(JOBS),
               "--target", "perfbench_workload", "perfbench_ledger"],
              log_path)


def git_describe():
    """`git describe` of the checkout, never of a parent directory."""
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, env=env, capture_output=True,
                             timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    text = out.stdout.decode(errors="replace").strip()
    return text if out.returncode == 0 and text else "unknown"


def dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def program_facts(document):
    """Build and perf-backend facts the program reports about itself
    (a run manifest or the ledger output)."""
    build_info = document["build"]
    perf = document["perf"]
    return {"compiler": f"{build_info['compiler']} "
                        f"{build_info['compiler_version']}",
            "build_type": build_info["build_type"],
            "perf_backend": perf["backend"],
            "perf_detail": perf["detail"]}


class Rep:
    """One measured process of perfbench_workload."""

    def __init__(self, run, extra=()):
        out_dir = os.path.join(run.scratch, "rep")
        cmd = [os.path.join(BIN_DIR, "perfbench_workload"),
               "--workload", run.workload, "--seed", str(run.seed),
               "--out", out_dir, "--jobs", str(JOBS),
               "--git-describe", run.git_describe]
        cmd += list(extra)
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        self.stderr_path = out_dir + ".stderr"
        self.setup_s = None
        self.facts = None
        with open(self.stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                    stderr=err, env=run.env)
            self._watch(proc, start, run.deadline)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.status = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mib = usage.ru_maxrss / 1024.0
        self.output_mib = dir_bytes(out_dir) / (1024.0 * 1024.0)
        self.outputs = self._read_outputs(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)

    def _watch(self, proc, start, deadline):
        """Read stdout to EOF, timestamping the set-up line; kill the
        process when the run's budget runs out."""
        fd = proc.stdout.fileno()
        seen = b""
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                break
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            if self.setup_s is None:
                seen += chunk
                if SETUP_MARKER in seen:
                    self.setup_s = time.perf_counter() - start
        proc.stdout.close()

    def _read_outputs(self, out_dir):
        """Per-operation digests: {report name or "fleet": sha256}."""
        if self.status != 0:
            return {}
        try:
            with open(os.path.join(out_dir, "results.json")) as src:
                results = json.load(src)
            with open(os.path.join(out_dir,
                                   "results.manifest.json")) as src:
                self.facts = program_facts(json.load(src))
        except (OSError, ValueError, KeyError):
            return {}
        outputs = {name: digest(entry.get("lines"))
                   for name, entry in results.get("reports", {}).items()}
        if "fleet" in results:
            outputs["fleet"] = digest(results["fleet"])
        return outputs

    def failure_note(self):
        try:
            with open(self.stderr_path, "rb") as src:
                tail = src.read()[-2000:].decode(errors="replace")
        except OSError:
            tail = ""
        return f"exit {self.status}: {tail.strip()}"


def expected_outputs(workload, seed):
    """Digest per operation that a seed-42 run must reproduce."""
    if seed != REFERENCE_SEED:
        return None
    if workload == "fleet":
        with open(EXPECTED) as src:
            return {"fleet": json.load(src)["fleet_seed42_sha256"]}
    with open(REFERENCE) as src:
        reference = json.load(src)
    return {name: digest(entry["lines"])
            for name, entry in reference["reports"].items()}


def check_rep(rep, want, problems):
    """Compare a repetition's outputs with @p want (digest per
    operation); return (attempted, failed)."""
    if not want:
        problems.append(f"run: no output ({rep.failure_note()})")
        return 1, 1
    failed = 0
    for name, expected in sorted(want.items()):
        got = rep.outputs.get(name)
        if got != expected:
            failed += 1
            problems.append(f"{name}: output differs" if got else
                            f"{name}: missing ({rep.failure_note()})")
    return len(want), failed


class Run:
    """Settings shared by every process of one benchmark run."""

    def __init__(self, args, scratch):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.scratch = scratch
        self.deadline = (time.perf_counter() + args.seconds +
                         RUN_MARGIN_S)
        self.git_describe = git_describe()
        # Nothing the program writes may leave the checkout.
        self.env = dict(os.environ, TMPDIR=scratch,
                        PCAP_WORKLOAD_CACHE=os.path.join(scratch,
                                                         "cache"))


def run_end_to_end(run):
    # An unmeasured launch pages the binary in.
    Rep(run, extra=("--setup-only",))

    # Seed 42 has recorded answers; any other seed must reproduce
    # the first successful repetition.
    want = expected_outputs(run.workload, run.seed)
    reps = []
    problems = []
    attempted = failed = 0

    def check(rep):
        nonlocal want, attempted, failed
        want = want or rep.outputs
        a, f = check_rep(rep, want, problems)
        attempted += a
        failed += f

    measure_until = time.perf_counter() + run.seconds
    while len(reps) < MIN_REPS or time.perf_counter() < measure_until:
        reps.append(Rep(run))
        check(reps[-1])
    if run.workload == "fleet":
        # Thread-count independence: the same block at one job.
        check(Rep(run, extra=("--jobs", "1")))
    for problem in problems[:10]:
        log(f"FAILED {problem}")

    ok = [rep for rep in reps if rep.status == 0 and
          rep.setup_s is not None]
    if not ok:
        raise BenchError("no repetition completed")
    # Set-up is short next to a repetition, so it gets more samples:
    # extra launches that exit once set-up is done.
    setups = [rep.setup_s for rep in ok]
    while len(setups) < SETUP_SAMPLES:
        rep = Rep(run, extra=("--setup-only",))
        if rep.status != 0 or rep.setup_s is None:
            raise BenchError("set-up launch failed: " +
                             rep.failure_note())
        setups.append(rep.setup_s)

    samples = {
        "wall_s": ([r.wall_s for r in ok], "s"),
        "cpu_s": ([r.cpu_s for r in ok], "s"),
        "peak_rss_mib": ([r.peak_rss_mib for r in ok], "MiB"),
        "setup_s": (setups, "s"),
        "output_mib": ([r.output_mib for r in ok], "MiB"),
    }
    log(f"{run.workload}: {len(ok)} of {len(reps)} repetitions "
        f"measured, seed {run.seed}, {JOBS} jobs")
    for name, (values, unit) in samples.items():
        log(f"  {name:12s} n={len(values):3d}  min {min(values):.6g}  "
            f"max {max(values):.6g} {unit}")
    metrics = {name: (statistics.median(values), unit)
               for name, (values, unit) in samples.items()}
    return metrics, attempted, failed, ok[0].facts


def run_ledger(run):
    out_path = os.path.join(run.scratch, "ledger.json")
    err_path = os.path.join(run.scratch, "ledger.stderr")
    cmd = [os.path.join(BIN_DIR, "perfbench_ledger"), "--seed",
           str(run.seed), "--seconds", str(run.seconds), "--out",
           out_path]
    try:
        with open(err_path, "wb") as err:
            status = subprocess.run(
                cmd, stdout=err, stderr=err, env=run.env,
                timeout=max(1.0, run.deadline - time.perf_counter())
            ).returncode
    except subprocess.TimeoutExpired:
        status = "timeout"
    if status != 0 or not os.path.exists(out_path):
        with open(err_path, "rb") as src:
            sys.stderr.write(src.read()[-4000:].decode(errors="replace"))
        raise BenchError(f"perfbench_ledger failed ({status})")
    with open(out_path) as src:
        ledger = json.load(src)
    for problem in ledger["problems"]:
        log(f"FAILED {problem}")
    log(f"ledger: median of {ledger['passes']} passes, seed {run.seed}")
    metrics = {name: (entry["value"], entry["unit"])
               for name, entry in ledger["metrics"].items()}
    return (metrics, ledger["attempted"], ledger["failed"],
            program_facts(ledger))


def main():
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see module doc).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    scratch = os.path.join(ROOT, ".bench_build",
                           f"perfbench-run-{os.getpid()}")
    try:
        build()
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        run = Run(args, scratch)
        measure = run_ledger if args.trace else run_end_to_end
        metrics, attempted, failed, facts = measure(run)
    except (BenchError, OSError, KeyError, ValueError) as problem:
        sys.stderr.write(f"perfbench: {problem}\n")
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    facts = dict(facts or {}, nproc=os.cpu_count(),
                 git_describe=run.git_describe)
    log("machine: " + json.dumps(facts, sort_keys=True))
    for name, (value, unit) in metrics.items():
        log(f"  {name} = {value:.6g} {unit}")
    log(f"failed_ops = {failed} of {attempted}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
