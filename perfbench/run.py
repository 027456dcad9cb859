#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload interactive|retrain \
        --seed N --seconds S --trace 0|1 [--out DIR]

Builds the workload runner (perfbench/CMakeLists.txt, Release) under .bench_build/
on first use, runs the workload in a fresh process, and prints the
runner's report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. `attempted` and `failed` count the requests
(and retrain jobs) of the run that produced the metrics, plus one each for
every attempt voided before it, so a run that had to be repeated never
reads as clean. The full result document (every metric
measured, provenance, and for traced runs the tracing overhead against
the untraced runs already in --out) is kept under --out, by default
.bench_build/results/, where perfbench/compare.py reads it.

Exits non-zero without a JSON line when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD_DIR / "perfbench_runner"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
# Runner exit codes (perfbench/runner/harness.h) that void an attempt
# rather than fail the run. A hung run was stopped by the runner's
# watchdog: ThreadPool::Apply can deadlock when a worker's stale claim from
# one batch lands in the next (a library race this benchmark exposed; see
# perfbench/README.md). An invalid run completed, but its open-loop
# generator sent requests late while it was neither building a request nor
# inside Submit (the host stalled it), so its latencies do not describe the
# offered load; lag that the generator's own Submit calls explain is the
# service being slow and stays in the run's figures. Either kind is rerun
# in a fresh process, while time allows; every voided attempt is recorded
# in the result and counted as attempted and failed in the printed line.
VOIDED = {3: "hung (watchdog)", 4: "invalid (generator stalled)"}
# The same race can instead let a duplicated task outlive its batch and
# crash the runner; a run killed by a signal is voided likewise.
ATTEMPTS = 3
MIN_ATTEMPT_S = 60


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, what, **kwargs):
    """Runs cmd in its own process group, killing the whole group on
    timeout or interruption; returns its exit code."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{what} timed out after {timeout:.0f} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def run_checked(cmd, timeout, what, **kwargs):
    code = run_group(cmd, timeout, what, **kwargs)
    if code != 0:
        fail(f"{what} failed (exit {code})")


def build(deadline):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", *generator],
                    max(1, deadline - time.monotonic()), "configuring the runner",
                    stdout=sys.stderr, stderr=sys.stderr)
    run_checked(["cmake", "--build", str(BUILD_DIR), "--target",
                 "perfbench_runner", "-j", jobs],
                max(1, deadline - time.monotonic()), "building the runner",
                stdout=sys.stderr, stderr=sys.stderr)


def git(*args):
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_hash():
    """sha256 over the library and benchmark code (not their prose):
    identifies the code measured even where the checkout is not a git
    repository."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*")),
             *sorted(BENCH_DIR.rglob("*"))]
    for path in files:
        if path.is_file() and path.suffix != ".md" and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance():
    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    dirty = None
    if sha is not None:
        status = git("status", "--porcelain", "--untracked-files=no")
        dirty = bool(status) if status is not None else None
    return {
        "git_sha": sha or "none (not a git checkout)",
        "git_dirty": dirty,
        "source_hash": source_hash(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def load_results(directory, workload, trace):
    out = []
    for path in sorted(Path(directory).glob(f"{workload}.*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if doc.get("trace") == trace and doc.get("workload") == workload:
            out.append(doc)
    return out


def source_of(doc):
    return doc.get("provenance", {}).get("source_hash")


def cross_run_checks(doc, out_dir):
    """wKS / mKS are deterministic at one seed: every earlier run of the
    same code, workload and seed must report the same bits."""
    for earlier in load_results(out_dir, doc["workload"], 0) + \
            load_results(out_dir, doc["workload"], 1):
        if (earlier.get("seed") != doc["seed"] or
                source_of(earlier) != doc["provenance"]["source_hash"]):
            continue
        for name in ("wks", "mks"):
            a = earlier["end_to_end"].get(name, {}).get("value")
            b = doc["end_to_end"].get(name, {}).get("value")
            if a != b:
                doc["correct"] = False
                doc["failures"].append(
                    f"{name} at seed {doc['seed']} changed between runs: {a!r} -> {b!r}")
                print(f"CORRECTNESS FAILURE: {doc['failures'][-1]}")
                return


def tracing_overhead(doc, out_dir):
    """Traced minus untraced value of every end-to-end metric, against the
    untraced runs of the same code and workload: the same seed's when there
    is one, otherwise the median over all seeds (leaving out wKS / mKS,
    which depend on the seed's data)."""
    base = [d for d in load_results(out_dir, doc["workload"], 0)
            if source_of(d) == doc["provenance"]["source_hash"]]
    same_seed = [d for d in base if d["seed"] == doc["seed"]]
    seed_bound = {"wks", "mks"} if not same_seed else set()
    base = same_seed[-1:] or base
    if not base:
        print("tracing overhead: no untraced run of this code yet in "
              "the results directory")
        return None
    overhead = {}
    print(f"tracing overhead (traced - untraced, against {len(base)} untraced "
          f"run{'s' if len(base) > 1 else ''}):")
    for name, metric in sorted(doc["end_to_end"].items()):
        if name in seed_bound:
            continue
        values = [d["end_to_end"][name]["value"] for d in base
                  if name in d["end_to_end"] and d["end_to_end"][name]["value"] is not None]
        if not values or metric["value"] is None:
            continue
        untraced = statistics.median(values)
        delta = metric["value"] - untraced
        share = delta / untraced if untraced else None
        overhead[name] = {"traced": metric["value"], "untraced": untraced,
                          "delta": delta, "share": share, "unit": metric["unit"]}
        share_text = f"{share:+.1%}" if share is not None else "n/a"
        print(f"  {name:34s} {delta:+12.6g} {metric['unit']:6s} ({share_text})")
    return overhead


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", default=str(ROOT / ".bench_build" / "results"))
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")

    build(time.monotonic() + BUILD_TIMEOUT_S)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.s{args.seed}.t{args.trace}.{time.time_ns()}"
    result_path = out_dir / f"{stem}.json"
    cmd = [str(RUNNER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--result-out", str(result_path)]
    if args.trace:
        cmd += ["--trace-out", str(out_dir / f"{stem}.trace.json")]
    prov = provenance()
    print(f"perfbench: git {prov['git_sha']} dirty={prov['git_dirty']} "
          f"source {prov['source_hash']} nproc {prov['nproc']}")
    sys.stdout.flush()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    voided = []
    for attempt in range(1, ATTEMPTS + 1):
        code = run_group(cmd, max(1, deadline - time.monotonic()),
                         f"workload {args.workload}")
        reason = VOIDED.get(code, f"crashed (signal {-code})" if code < 0 else None)
        if reason is None:
            break
        voided.append(reason)
        if attempt == ATTEMPTS or deadline - time.monotonic() < MIN_ATTEMPT_S:
            break
        print(f"perfbench: attempt {attempt} {reason}; rerunning in a "
              "fresh process")
        sys.stdout.flush()
    if code not in (0, 4):
        fail(f"workload {args.workload} failed (exit {code})")

    doc = json.loads(result_path.read_text())
    doc["provenance"] = prov
    doc["voided_attempts"] = voided
    build_info = doc["build"]
    print(f"perfbench: benchmark v{doc['benchmark_version']}, "
          f"{build_info['build_type']} build, compiler {build_info['compiler']}, "
          f"simd {build_info['simd_level']}, hardware_threads "
          f"{build_info['hardware_threads']}, seed {args.seed}")
    cross_run_checks(doc, out_dir)
    if args.trace:
        doc["tracing_overhead"] = tracing_overhead(doc, out_dir)
    result_path.write_text(json.dumps(doc, indent=1) + "\n")

    section = "per_layer" if args.trace else "end_to_end"
    measured = doc[section]
    metrics = {}
    for declared in spec[section]:
        name = declared["name"]
        value = measured.get(name, {}).get("value")
        if value is None:
            fail(f"{args.workload} did not measure {section} metric {name}")
        metrics[name] = {"value": value, "unit": declared["unit"]}
    if voided:
        print(f"perfbench: {len(voided)} voided attempt(s) counted as "
              f"attempted and failed: {', '.join(voided)}")
    print(json.dumps({"correct": bool(doc["correct"]),
                      "attempted": int(doc["attempted"]) + len(voided),
                      "failed": int(doc["failed"]) + len(voided),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
