#!/usr/bin/env python3
"""The repository's benchmark: the synthesis path users run, end to end and
layer by layer.

    python3 perfbench/run.py --workload scc-b4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. Every workload is one cold query with a
single input, so the seed changes nothing. Builds perfbench/ (the
repository's libraries, ltsd and perfbench-measure) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; runs the
workload in fresh perfbench-measure processes; checks every result against
the references in perfbench/workloads.json; and prints each metric of
BENCHMARK.json. The last stdout line is one JSON object: {"correct",
"attempted", "failed", "metrics"}. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a traced replay, whose spans are
kept under .bench_build/perfbench/traces/.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Set-up is timed once per fresh process, the cold cost a user's run pays.
# It takes about 0.1 ms, and on a shared virtual machine the speed of such
# short work shifts by a third within seconds, so a run samples it in this
# many processes before every query and after the last. setup_s is the
# median.
SETUP_PROCS = 15
# A perfbench-measure process that outlives this is killed; the run fails.
MEASURE_TIMEOUT_S = 170
# The traced replay's encode + simplify + SBP split must sum to the engine's
# base-encoding time within this share (the setup_s bound), plus an absolute
# slack that covers timer noise on tiny encodings.
SPLIT_TOLERANCE = 0.25
SPLIT_SLACK_S = 0.02

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures and builds perfbench-measure and ltsd; returns their paths."""
    cmake_dir = os.path.join(build_dir(), "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for step in (["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "perfbench_measure", "ltsd"]):
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if done.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(step))
    return (os.path.join(cmake_dir, "perfbench-measure"),
            os.path.join(cmake_dir, "ltsd"))


def spawn(measure, args, cwd):
    """Runs perfbench-measure in a fresh process; returns (last JSON line,
    peak RSS MB)."""
    # Its own process group, so a timeout also stops the ltsd it spawned.
    proc = subprocess.Popen([measure] + args, cwd=cwd, stdout=subprocess.PIPE,
                            start_new_session=True)
    timer = threading.Timer(MEASURE_TIMEOUT_S,
                            lambda: os.killpg(proc.pid, signal.SIGKILL))
    timer.start()
    try:
        out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError("perfbench-measure %s failed with code %d"
                           % (args[0], proc.returncode))
    return json.loads(out.strip().splitlines()[-1]), usage.ru_maxrss / 1024.0


def matches(outcome, reference):
    return (reference is not None
            and outcome.get("digest") == reference["digest"]
            and outcome.get("tests_by_size") == reference["tests_by_size"])


def run_cold(measure, ltsd, spec, seconds, trace, workdir):
    base = ["--model", spec["model"], "--bound", str(spec["bound"])]
    if trace:
        raw, _ = spawn(measure, ["trace"] + base + [
            "--ltsd", ltsd, "--restart", "1" if spec.get("restart") else "0"],
            workdir)
        outcomes = [raw["untraced"], raw["replayed"]] + raw["restarted"]
        failed = sum(not matches(o, spec["reference"]) for o in outcomes)
        gap = abs(raw["split_sum_s"] - raw["base_encoding_s"])
        split_ok = gap <= SPLIT_TOLERANCE * raw["base_encoding_s"] + SPLIT_SLACK_S
        if not split_ok:
            log("perfbench: encode+simplify+sbp %.4fs vs base encoding %.4fs"
                % (raw["split_sum_s"], raw["base_encoding_s"]))
        return len(outcomes), failed, split_ok, raw["metrics"]

    def sample_setup():
        setups.extend(spawn(measure, ["setup", "--model", spec["model"]],
                            workdir)[0]["setup_s"] for _ in range(SETUP_PROCS))

    # One query per fresh process, so each peak RSS is that query's own: at
    # least min_queries, then more while the next is predicted to end
    # within the run's seconds.
    setups, walls, peaks, failed = [], [], [], 0
    start = time.monotonic()
    while (len(walls) < spec.get("min_queries", 1)
           or time.monotonic() - start + walls[-1] <= seconds):
        sample_setup()
        raw, rss_mb = spawn(measure, ["cold"] + base, workdir)
        walls.append(raw["wall_s"])
        peaks.append(rss_mb)
        failed += not matches(raw["outcome"], spec["reference"])
    sample_setup()
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(peaks),
        "setup_s": statistics.median(setups),
    }
    return len(walls), failed, True, metrics


def run_workload(name, spec, seconds, trace, bench):
    measure, ltsd = build()
    workdir = os.path.join(build_dir(), "work-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        attempted, failed, checks_ok, raw = run_cold(
            measure, ltsd, spec, seconds, trace, workdir)
        # Keep the traced run's spans: one JSON object per line, with
        # name, start, end and parent.
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        for spans in sorted(os.listdir(workdir)):
            if spans.endswith(".jsonl"):
                os.replace(os.path.join(workdir, spans),
                           os.path.join(traces, "%s-%s" % (name, spans)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = failed / attempted
    raw["ok_frac"] = 1.0 - failed_frac
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in raw:
            raise RuntimeError("workload %s did not report %s" % (name, m["name"]))
        metrics[m["name"]] = {"value": raw[m["name"]], "unit": m["unit"]}
        print("%-32s %16.6g %s" % (m["name"], raw[m["name"]], m["unit"]))
    print("%-32s %16.6g %s" % ("failed_frac", failed_frac, "frac"))
    return {"correct": failed == 0 and checks_ok, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def self_test(bench, spec):
    """Tiny bounds: every metric is reported with a valid name and unit, every
    check passes, and a wrong reference digest fails every operation."""
    problems = []
    for name, wl in spec["selftest"].items():
        for trace in (0, 1):
            result = run_workload(name, wl, 1, trace, bench)
            declared = bench["per_layer"] if trace else bench["end_to_end"]
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s trace=%d: not correct" % (name, trace))
            if set(result["metrics"]) != {m["name"] for m in declared}:
                problems.append("%s trace=%d: metric set differs" % (name, trace))
            for metric, entry in result["metrics"].items():
                if not (NAME_RE.match(metric) and UNIT_RE.match(entry["unit"])
                        and isinstance(entry["value"], (int, float))):
                    problems.append("%s: bad metric %s" % (name, metric))
    for name, wl in spec["selftest"].items():
        wrong = json.loads(json.dumps(wl))
        wrong["reference"]["digest"] = "lts-suite-v1:0000000000000000"
        result = run_workload(name, wrong, 1, 0, bench)
        if result["correct"] or result["failed"] != result["attempted"] \
                or result["metrics"]["ok_frac"]["value"] != 0:
            problems.append("%s: a wrong reference did not fail every operation"
                            % name)
    for p in problems:
        log("self-test: " + p)
    print("self-test %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        spec = load_json(os.path.join(HERE, "workloads.json"))
        if args.self_test:
            return self_test(bench, spec)
        if args.workload not in spec["workloads"]:
            raise RuntimeError("unknown workload %r" % args.workload)
        result = run_workload(args.workload, spec["workloads"][args.workload],
                              args.seconds, args.trace, bench)
    except Exception as e:  # any failure: no result line, nonzero exit
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
