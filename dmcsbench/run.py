#!/usr/bin/env python3
"""Launcher of the DMCS benchmark (see README.md).

    python3 dmcsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository. It builds the program's
sources (src/main/scala) together with the benchmark harness with sbt, once
per source state, then runs the harness (dmcsbench.Main) in one JVM with a
fixed heap and a stated collector. The harness prints a run-info line and, as
the last line of standard output, the result object.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "run-classpath.txt")
STAMP = os.path.join(TARGET, "run-classpath.sha256")

# A fixed heap (-Xms = -Xmx) and a stated collector keep runs comparable.
JVM_FLAGS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def source_files():
    """Every file the build reads, as paths relative to the repository root."""
    roots = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src", "main", "scala")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    return sorted(os.path.relpath(f, ROOT) for f in files)


def source_digest():
    h = hashlib.sha256()
    for rel in source_files():
        h.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def build(digest):
    """Compiles with sbt unless the classpath was built from these sources."""
    if read(STAMP) == digest and read(CLASSPATH):
        return read(CLASSPATH)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "writeRunClasspath"]
    # sbt's own output goes to stderr: standard output carries only results.
    proc = subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0 or not read(CLASSPATH):
        sys.exit("dmcsbench: build failed")
    with open(STAMP, "w") as f:
        f.write(digest)
    return read(CLASSPATH)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cache_sizes():
    """L1d/L2/L3 sizes as the C library reports them."""
    out = []
    for level, name in (("L1d", "LEVEL1_DCACHE_SIZE"), ("L2", "LEVEL2_CACHE_SIZE"),
                        ("L3", "LEVEL3_CACHE_SIZE")):
        try:
            proc = subprocess.run(["getconf", name], capture_output=True, text=True)
            size = int(proc.stdout.strip())
            out.append(f"{level}={size // 1024}KiB")
        except (OSError, ValueError):
            out.append(f"{level}=unknown")
    return " ".join(out)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "main", "scala", "repro", "core", "Peeler.scala")):
        sys.exit("dmcsbench: the program's sources (src/main/scala) are missing; "
                 "run from the root of a checkout of the repository")
    digest = source_digest()
    classpath = build(digest)

    run_dir = os.path.join(TARGET, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    cmd = ["java", *JVM_FLAGS,
           f"-Djava.io.tmpdir={run_dir}", f"-Ddmcsbench.tmp={run_dir}",
           f"-Ddmcsbench.git={git_sha()}", f"-Ddmcsbench.sources={digest}",
           f"-Ddmcsbench.caches={cache_sizes()}",
           "-cp", classpath, "dmcsbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
