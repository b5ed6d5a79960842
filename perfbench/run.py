#!/usr/bin/env python3
"""Runs the MExI benchmark on one workload and prints its result.

    python3 perfbench/run.py --workload fold_po --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository. The first run builds the
harness (perfbench/build.sbt, compiled against the repository's sources)
with sbt and stores its classpath under .bench_build/; later runs reuse it
until a source file changes. Each run then starts one JVM with a pinned
heap and local-mode Spark, and the last line of standard output is the
harness's JSON result: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. Any failure exits non-zero without a result line.
"""
import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("fold_po", "etl_crowd")
HEAP = "3g"
# A run ends within 180 s, or 900 s when it builds.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 890


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file the harness build reads from the checkout."""
    roots = [ROOT / "src" / "main", ROOT / "jobs", BENCH / "src"]
    files = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
             BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for r in roots:
        files += sorted(p for p in r.rglob("*") if p.is_file())
    return files


def build(started):
    """Returns the build key and harness classpath, building when the
    sources changed.
    """
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src/main/scala/repro").is_dir():
        fail(f"no repository sources under {ROOT}")
    digest = hashlib.sha256()
    for f in source_files():
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    key = digest.hexdigest()[:16]
    stamp = BUILD / "classpath.txt"
    if stamp.is_file():
        old, cp = stamp.read_text().split("\n", 1)
        if old == key:
            return key, cp.strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["SBT_OPTS"] = (env.get("SBT_OPTS", "-Xmx2g") + " -Dsbt.offline=true"
                       " -Dsbt.server.autostart=false -Dsbt.log.noformat=true"
                       f" -XX:-UsePerfData -Djava.io.tmpdir={tmp}")
    try:
        out = subprocess.run(["sbt", "--batch", "export Runtime/fullClasspath"],
                             cwd=BENCH, env=env, stdin=subprocess.DEVNULL,
                             capture_output=True, text=True,
                             timeout=started + BUILD_LIMIT_S - 60 - time.monotonic())
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    lines = [l for l in out.stdout.splitlines() if ".jar" in l and not l.startswith("[")]
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        fail("build failed")
    stamp.write_text(key + "\n" + lines[-1])
    return key, lines[-1]


def harness(cp, args, deadline, trace, untraced_wall=None):
    """Runs one harness JVM; returns its stdout lines and parsed result."""
    work = BUILD / "run"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
           "-cp", cp, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--work-dir", str(work)]
    if untraced_wall is not None:
        cmd += ["--untraced-wall", repr(untraced_wall)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                             capture_output=True, text=True,
                             timeout=max(1, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    lines = out.stdout.splitlines()
    result = None
    if out.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        fail(f"harness exited with {out.returncode} and no result")
    sys.stderr.write(out.stderr)
    return lines[:-1], result


def digest_of(lines):
    return next((l.split()[-1] for l in lines if l.startswith("digest ")), None)


class History:
    """Digest and untraced wall time of earlier runs in this checkout, per
    build, workload and seed. A later run of the same key must print the
    same digest, and a traced run takes its untraced wall time from here.
    """

    def __init__(self, key):
        self.key = key
        self.path = BUILD / "history.json"
        self.runs = json.loads(self.path.read_text()) if self.path.is_file() else {}

    def untraced_wall(self, seed):
        """The same seed's untraced wall_s, else the median over seeds."""
        own = self.runs.get(f"{self.key} {seed}", {})
        if "wall_s" in own:
            return own["wall_s"]
        walls = [v["wall_s"] for k, v in self.runs.items()
                 if k.startswith(self.key + " ") and "wall_s" in v]
        return statistics.median(walls) if walls else None

    def agrees(self, seed, digest, wall=None):
        entry = self.runs.setdefault(f"{self.key} {seed}", {"digest": digest})
        if wall is not None:
            entry.setdefault("wall_s", wall)
        self.path.write_text(json.dumps(self.runs, indent=1, sort_keys=True))
        return entry["digest"] == digest


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny populations and one-epoch networks, for the smoke test")
    args = ap.parse_args()

    started = time.monotonic()
    key, cp = build(started)
    built_now = time.monotonic() - started > 5
    deadline = started + (BUILD_LIMIT_S if built_now else RUN_LIMIT_S)
    history = History(f"{key} {args.workload} {'smoke' if args.smoke else 'full'}")

    # End-to-end metrics come only from untraced JVMs. A traced run reports
    # its overhead against an untraced run; when this checkout has none for
    # the workload yet, it makes one first.
    ok = True
    wall = history.untraced_wall(args.seed) if args.trace else None
    if wall is None:
        lines, result = harness(cp, args, deadline, trace=0)
        wall = result["metrics"]["wall_s"]["value"]
        ok = result["correct"] and history.agrees(args.seed, digest_of(lines), wall)
    if args.trace:
        lines, result = harness(cp, args, deadline, trace=1, untraced_wall=wall)
        ok = ok and result["correct"] and history.agrees(args.seed, digest_of(lines))
    result["correct"] = ok
    for line in lines:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
