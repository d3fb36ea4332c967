#!/usr/bin/env python3
"""Entry point of the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds perfbench/ (and the fedtune library
from src/) with CMake into $CARGO_TARGET_DIR, default .bench_build, then runs
the benchmark binary, whose last stdout line is the result JSON. Results and
Perfetto traces go to .bench_results/.

--self-test is the benchmark's own short check: each workload once untraced
and one traced run (which traces every workload), asserting that every
metric named in BENCHMARK.json is printed with its unit, that every output
check passes (the traced mirrors included), and that the benchmark refuses
to run without the sources.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pool_build", "tune_sim", "serve_1node", "serve_2node"]


def build():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "fedtune_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "fedtune_perfbench")


def run(binary, workload, seed, seconds, trace):
    """Runs one benchmark invocation; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--out-dir", os.path.abspath(".bench_results")],
        stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def check_metrics(spec, line, trace):
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, line
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == wanted, (sorted(set(wanted) ^ set(printed)),
                               {k for k in wanted if printed.get(k) not in (None, wanted[k])})
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    for workload in WORKLOADS:
        code, lines = run(binary, workload, 1, 1, 0)
        print("\n".join(lines[:-1]))
        assert code == 0, (workload, code)
        check_metrics(spec, lines[-1], trace=False)
        print(f"self-test: {workload} untraced ok")
    code, lines = run(binary, WORKLOADS[0], 1, 1, 1)
    print("\n".join(lines[:-1]))
    assert code == 0, code
    check_metrics(spec, lines[-1], trace=True)
    print("self-test: traced run of every workload ok, mirrors bitwise equal")

    bare = os.path.abspath(os.path.join(".bench_results", "self-test-bare"))
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "tune_sim", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("self-test: refuses to run without the sources")
    print("self-test: PASS")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    code, lines = run(binary, args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
