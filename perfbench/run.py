#!/usr/bin/env python3
"""Run one benchmark measurement of the exact k-NN engines.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/build.sbt, which compiles the
repository's src/main/scala with the benchmark sources) on first use, then
runs one JVM for the measurement. All build output, result files and span
files go under .bench_build/perfbench/ in the repository root. The last line
of standard output is the JSON result.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700
WORKLOADS = ("seismic-batch-k10", "vector-batch-k50")


def add_opens() -> list:
    """JVM flags opening the JDK packages Spark needs (shared with build.sbt)."""
    pkgs = (HERE / "add-opens.txt").read_text().split()
    return [f"--add-opens={p}=ALL-UNNAMED" for p in pkgs]


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources() -> list:
    """Every file the build reads, in a stable order."""
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for d in (ROOT / "src" / "main" / "scala", HERE / "src" / "main" / "scala"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    return files


def digest(files: list) -> str:
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(os.path.realpath(submit)).parent.parent)
    jars = Path(home) / "jars" if home else None
    if jars is None or not jars.is_dir():
        fail("cannot find the Spark jars (set SPARK_HOME)")
    return jars


def build(stamp: str, jars: Path) -> str:
    """Compile with sbt and return the runtime classpath."""
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        repos = Path.home() / ".sbt" / "repositories"
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        if repos.is_file():
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", f"-Dperfbench.sparkJars={jars}",
           "compile", "export Runtime/fullClasspath"]
    print("perfbench: building (first run in this checkout)", file=sys.stderr)
    try:
        p = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-8000:])
        fail(f"build failed (sbt exit {p.returncode})")
    cps = [l.strip() for l in p.stdout.splitlines()
           if str(HERE / "target") in l and os.pathsep in l and not l.startswith("[")]
    if not cps:
        sys.stderr.write(p.stdout[-8000:])
        fail("build printed no classpath")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "classpath.txt").write_text(cps[-1] + "\n")
    (OUT / "stamp.txt").write_text(stamp + "\n")
    return cps[-1]


def git_sha() -> str:
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=20)
        return p.stdout.strip() if p.returncode == 0 and p.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        fail(f"no engine sources under {ROOT / 'src' / 'main' / 'scala'}; "
             "run from a full checkout of the repository")
    files = sources()
    stamp = digest(files)
    jars = spark_jars()
    cp_file, stamp_file = OUT / "classpath.txt", OUT / "stamp.txt"
    if cp_file.is_file() and stamp_file.is_file() and stamp_file.read_text().strip() == stamp:
        cp = cp_file.read_text().strip()
    else:
        cp = build(stamp, jars)

    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    java = Path(os.environ["JAVA_HOME"]) / "bin" / "java" if "JAVA_HOME" in os.environ else "java"
    cmd = [str(java), "-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", f"-Djava.io.tmpdir={tmp}", *add_opens(),
           "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", str(OUT / "results"), "--git-sha", git_sha(), "--source-sha", stamp]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail(f"benchmark JVM failed (exit {proc.returncode})")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
