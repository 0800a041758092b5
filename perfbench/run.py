#!/usr/bin/env python3
"""SocUML benchmark: closed-loop request workloads over `socuml serve`
and the one-shot `socuml` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script builds `socuml` and the
benchmark's helper (`perfbench/pbtool.ml`) with dune, generates the
workload's models from the seed, measures for S seconds, checks every
response against a reference computed through the uncached path, and
prints one JSON object as its last line of output.  `--trace 0` reports
the end-to-end metrics; `--trace 1` replays the same stream in-process
and reports per-layer metrics instead.  NOTES.md explains the workloads.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("serve-warm", "serve-churn", "serve-verify", "oneshot-cli")
SETUPS = 3  # set-up runs per measurement; setup_s is their median
TRANSPORT_REPS = 200  # health requests timed in a traced run
PROCESS_STARTS = 21  # `socuml rules` spawns in a traced run
WORK = ".perfbench_work"
CHILDREN = []  # long-lived children, stopped on every exit path


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Build the CLI and the helper from the checkout's sources."""
    for need in ("dune-project", "lib", "bin", "perfbench/pbtool.ml"):
        if not os.path.exists(need):
            fail("not the root of a socuml checkout (missing %s)" % need)
    # the shared dune cache lives outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/socuml.exe",
         "./perfbench/pbtool.exe"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=850,
        env=env)
    if proc.returncode != 0:
        fail("build failed:\n" + proc.stderr.decode(errors="replace"))
    exes = [os.path.abspath(os.path.join("_build", "default", p))
            for p in ("bin/socuml.exe", "perfbench/pbtool.exe")]
    return exes


def pbtool_lines(pbtool, args, cwd):
    out = subprocess.run([pbtool] + args, cwd=cwd, check=True,
                         stdout=subprocess.PIPE, timeout=170).stdout
    return [json.loads(l) for l in out.decode().splitlines() if l]


def same_response(resp, ref):
    return (resp.get("exit") == ref["exit"]
            and resp.get("output") == ref["output"]
            and resp.get("error") == ref["error"]
            and "code" not in resp)


class Daemon:
    """One `socuml serve` child over a stdin/stdout pipe."""

    def __init__(self, exes, workload, cwd):
        socuml, pbtool = exes
        args = subprocess.run([pbtool, "serve-args", workload], check=True,
                              stdout=subprocess.PIPE).stdout.decode().split()
        self.proc = subprocess.Popen(
            [socuml, "serve"] + args, cwd=cwd,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        CHILDREN.append(self.proc)

    def request(self, line):
        """Send one line; return (latency in ns, parsed response)."""
        t0 = time.perf_counter_ns()
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        raw = self.proc.stdout.readline()
        t1 = time.perf_counter_ns()
        if not raw:
            fail("daemon closed its output")
        return t1 - t0, json.loads(raw)

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        fail("no VmHWM for the daemon")

    def close(self):
        """Check the request ledger, quit, and reap the child.

        Returns the stats response, or None when the ledger does not
        reconcile."""
        _, stats = self.request('{"op":"stats"}')
        serve = stats["serve"]
        ledger = (stats["protocol_errors"] + serve["completed"]
                  + serve["timeouts"] + serve["resource_exhausted"]
                  + serve["sheds"] + serve["drained"])
        self.request('{"op":"quit"}')
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()
        if stats["requests"] != ledger:
            print("perfbench: ledger does not reconcile: %s" % stats,
                  file=sys.stderr)
            return None
        return stats


class Refserve:
    """The helper's churn mode: rewrites a model to a fresh version and
    answers that version's reference response."""

    def __init__(self, pbtool, workload, seed, cwd):
        self.proc = subprocess.Popen(
            [pbtool, "refserve", workload, str(seed)], cwd=cwd,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        CHILDREN.append(self.proc)

    def rewrite(self, step, version):
        self.proc.stdin.write(b"%d %d\n" % (step, version))
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def run_child(argv, cwd):
    """Fork/exec one CLI child; return (latency ns, exit, stdout, stderr,
    rusage)."""
    out_path = os.path.join(cwd, ".child.out")
    err_path = os.path.join(cwd, ".child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read().decode()
    with open(err_path, "rb") as f:
        stderr = f.read().decode()
    return t1 - t0, proc.returncode, stdout, stderr, usage


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def generate(pbtool, workload, seed, work):
    fresh_dir(work)
    subprocess.run([pbtool, "gen", workload, str(seed)], cwd=work,
                   check=True, timeout=170)


def setup(exes, workload, seed, work):
    """Generate the models, start the daemon and prime its cache (serve
    workloads), or run each distinct command once (one-shot)."""
    socuml, pbtool = exes
    generate(pbtool, workload, seed, work)
    plan = pbtool_lines(pbtool, ["plan", workload, str(seed)], work)
    primers = list(dict.fromkeys(s["line"] for s in plan if not s["churn"]))
    if workload == "oneshot-cli":
        for s in {s["line"]: s for s in plan}.values():
            run_child([socuml] + s["argv"], work)
        return plan, None
    daemon = Daemon(exes, workload, work)
    for line in primers:
        daemon.request(line)
    return plan, daemon


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(exes, workload, seed, seconds):
    socuml, pbtool = exes
    work = os.path.join(WORK, workload)
    setups = []
    daemon = None
    for _ in range(SETUPS):
        if daemon is not None:
            daemon.close()
        t0 = time.perf_counter()
        plan, daemon = setup(exes, workload, seed, work)
        setups.append(time.perf_counter() - t0)
    refs = {r["line"]: r
            for r in pbtool_lines(pbtool, ["refs", workload, str(seed)], work)}
    refserve = (Refserve(pbtool, workload, seed, work)
                if any(s["churn"] for s in plan) else None)
    latencies, failed, cpu, rss = [], 0, 0.0, 0.0
    versions = {}
    cpu0 = daemon.cpu_s() if daemon else 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i == 0:
        k = i % len(plan)
        step = plan[k]
        i += 1
        if step["churn"]:
            path = os.path.join(work, step["model"])
            version = versions.get(path, 0) + 1
            versions[path] = version
            before = os.stat(path)
            ref = refserve.rewrite(k, version)
            if version % 2 == 1:
                # a same-size rewrite landing in the same timestamp tick
                # as the previous write: only the content tells them apart
                if os.stat(path).st_size != before.st_size:
                    fail("churn version %d changed size" % version)
                os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        else:
            ref = refs[step["line"]]
        if daemon:
            ns, resp = daemon.request(step["line"])
        else:
            ns, code, out, err, usage = run_child([socuml] + step["argv"], work)
            resp = {"exit": code, "output": out, "error": err}
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss / 1024.0)
        if not same_response(resp, ref):
            failed += 1
            print("perfbench: response differs from reference: %s"
                  % step["line"], file=sys.stderr)
        latencies.append(ns / 1e6)
    if refserve:
        refserve.close()
    if daemon:
        cpu = daemon.cpu_s() - cpu0
        rss = daemon.peak_rss_mb()
        if daemon.close() is None:
            failed += 1
    n = len(latencies)
    metrics = {
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (quantile(latencies, 90), "ms"),
        "throughput_rps": ((n - failed) / (sum(latencies) / 1e3), "req/s"),
        "cpu_ms_per_req": (1e3 * cpu / n, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return n, failed, metrics


def traced(exes, workload, seed, seconds):
    socuml, pbtool = exes
    work = os.path.join(WORK, workload)
    generate(pbtool, workload, seed, work)
    result = pbtool_lines(pbtool, ["trace", workload, str(seed), str(seconds)],
                          work)[-1]
    attempted, failed = result["attempted"], result["failed"]
    metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    # transport: the cheapest request over the pipe against the same
    # request handled in-process
    daemon = Daemon(exes, workload, work)
    sub = []
    for _ in range(TRANSPORT_REPS):
        ns, resp = daemon.request('{"op":"health"}')
        sub.append(ns / 1e3)
        attempted += 1
        if resp.get("ok") is not True:
            failed += 1
    if daemon.close() is None:
        failed += 1
    inproc = metrics.pop("daemon.health_us")[0]
    metrics["daemon.transport_us"] = (statistics.median(sub) - inproc, "us")
    starts = []
    for _ in range(PROCESS_STARTS):
        ns, code, _out, _err, _usage = run_child([socuml, "rules"], work)
        starts.append(ns / 1e6)
        attempted += 1
        if code != 0:
            failed += 1
    metrics["process.start_ms"] = (statistics.median(starts), "ms")
    return attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    exes = build()
    run = traced if args.trace else measure
    try:
        attempted, failed, metrics = run(exes, args.workload, args.seed,
                                         args.seconds)
    finally:
        for proc in CHILDREN:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
