#!/usr/bin/env python3
"""Build and run the RobustPeriod benchmark.

Run from the root of the repository:

    python3 rpbench/run.py --workload detect-n1000 --seed 1 --seconds 20 --trace 0
    python3 rpbench/run.py --selftest
    python3 rpbench/run.py --record      # rewrite rpbench/reference/*.tsv

The first call compiles the program (src/main/scala) together with the
benchmark harness (rpbench/src) with the Scala compiler that ships in
Spark's jars, into .bench_build/rpbench/classes; later calls reuse that
build while the sources are unchanged. A run prints every metric with its
unit and, as the last line of standard output, one JSON object.

An untraced run sets the workload up SETUPS times, each in a fresh JVM
(the last one then measures), and reports the median set-up time.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "rpbench")
WORK = os.path.join(ROOT, ".bench_build", "rpbench")
CLASSES = os.path.join(WORK, "classes")
STAMP = os.path.join(WORK, "classes.stamp")
RUN_TIMEOUT_S = 170
SETUPS = 3

# Spark on JDK 17 needs these module openings (as spark-submit adds them).
JVM_MODULE_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print(f"rpbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_child(cmd, timeout=None, **kwargs):
    """Run cmd to completion and return (exit code, captured stdout or None);
    on timeout or SIGTERM/SIGINT, kill it and wait."""
    proc = subprocess.Popen(cmd, **kwargs)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{os.path.basename(cmd[0])} exceeded {timeout} s")


def toolchain():
    """The java launcher and Spark's jar directory."""
    java_home = os.environ.get("JAVA_HOME")
    java = os.path.join(java_home, "bin", "java") if java_home else shutil.which("java")
    if not java or not os.path.exists(java):
        fail("no java found (set JAVA_HOME or put java on PATH)")
    spark_home = os.environ.get("SPARK_HOME")
    if not spark_home and shutil.which("spark-submit"):
        spark_home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    jars = os.path.join(spark_home or "", "jars")
    if not spark_home or not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        fail("no Spark distribution with a Scala compiler found (set SPARK_HOME)")
    return java, jars


def sources():
    program = os.path.join(ROOT, "src", "main", "scala")
    harness = os.path.join(BENCH, "src")
    if not os.path.isdir(program) or not os.path.isdir(harness):
        fail("run from the repository root: src/main/scala or rpbench/src is missing")
    files = sorted(glob.glob(os.path.join(program, "**", "*.scala"), recursive=True) +
                   glob.glob(os.path.join(harness, "**", "*.scala"), recursive=True))
    if not files:
        fail("no Scala sources found")
    return files


def build(java, jars):
    """Compile program and harness unless the last build used the same sources."""
    files = sources()
    digest = hashlib.sha256()
    for f in files + sorted(os.listdir(jars)):
        digest.update(f.encode())
        if f.endswith(".scala"):
            with open(f, "rb") as fh:
                digest.update(fh.read())
    stamp = digest.hexdigest()
    if os.path.isdir(CLASSES) and os.path.exists(STAMP) and open(STAMP).read() == stamp:
        return
    tmp = CLASSES + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    print(f"rpbench: compiling {len(files)} Scala files", file=sys.stderr, flush=True)
    cmd = [java, "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", tmp] + files
    if run_child(cmd, stdout=sys.stderr)[0] != 0:
        fail("compilation failed")
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(tmp, CLASSES)
    with open(STAMP, "w") as fh:
        fh.write(stamp)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.selftest or args.record):
        ap.error("give --workload, --selftest or --record")
    if args.workload and args.seconds is None:
        ap.error("--workload needs --seconds")

    java, jars = toolchain()
    build(java, jars)
    started = time.monotonic()
    tmpdir = os.path.join(WORK, "tmp")
    os.makedirs(tmpdir, exist_ok=True)
    # A fixed, pre-touched heap on huge pages: the detectors allocate
    # ~150 MB per series, and this keeps page faults out of the timings.
    # No perf-data file and a private temp dir: the run writes only here.
    jvm = ([java, "-Xms1g", "-Xmx1g", "-XX:+AlwaysPreTouch", "-XX:+UseTransparentHugePages",
            "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmpdir}",
            f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'log4j2.properties')}"]
           + JVM_MODULE_OPTS
           + ["-cp", os.pathsep.join([CLASSES, os.path.join(jars, "*")]),
              "repro.rpbench.Main", "--root", ROOT])
    # Spark's scratch space stays inside the checkout.
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(WORK, "spark-local"))
    if args.selftest:
        sys.exit(run_child(jvm + ["--selftest"], timeout=RUN_TIMEOUT_S, env=env)[0])
    if args.record:
        sys.exit(run_child(jvm + ["--record"], env=env)[0])

    mode = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace]
    remaining = lambda: max(1.0, RUN_TIMEOUT_S - (time.monotonic() - started))
    # Set-up time is the median over fresh JVMs: the extra ones stop after
    # set-up, the last one goes on to measure. On a host so slow that the
    # run would not end in time, fewer extra set-ups are made.
    setups = []
    for _ in range(SETUPS - 1 if args.trace == "0" else 0):
        t0 = time.monotonic()
        code, out = run_child(jvm + mode + ["--setup-only"], timeout=remaining(), env=env,
                              stdout=subprocess.PIPE, text=True)
        if code != 0:
            sys.exit(code)
        setups += [float(line.split()[1]) for line in out.splitlines() if line.startswith("setup_s ")]
        if remaining() < (SETUPS - len(setups)) * (time.monotonic() - t0) + 2 * args.seconds:
            break
    code, out = run_child(jvm + mode, timeout=remaining(), env=env, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    if code != 0 or not lines:
        print(out, end="")
        sys.exit(code or 1)
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    if setups:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.median(setups)
        print(f"  setup_s median of {len(setups)} set-ups: "
              + " ".join(f"{v:.3f}" for v in setups) + " s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
