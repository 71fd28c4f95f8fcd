"""dilationkit CLI benchmark.

Runs one seeded workload as `python -m dilationkit.cli` child processes, one
call at a time (closed loop, one client), for --seconds, and checks every
report with the oracle in workloads.py.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it give the details: machine, report digests, every sample and, with
tracing, every span.

--trace 0 gives the end-to-end metrics: median wall time, CPU time and peak
RSS per invocation (from os.wait4 on each child), the import time every CLI
call pays, and the share of invocations the oracle accepts.  --trace 1 runs
invocations in-process instead, one untraced and one traced by tracer.py per
child after a warm-up, and gives the per-layer metrics.  `--workload all`
runs every workload both ways and prints a table of all metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload povm-naimark --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# One BLAS thread: on a 2-core shared machine a second thread mostly added
# spread (povm-naimark took 3.6-5.6 s at 2 threads, 4.1-4.2 s at 1).
THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # children still running this long after the start are killed

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}
LAYER_NAMES = ("cli", "rademacher", "framings", "frames", "ovm", "dilation",
               "subsets", "linalg", "rng", "numpy")
# Kept to figures that exist on every workload: times of spans that every
# workload enters, counts, and each layer's share of handler time.  The full
# span table, with the self time of every wrapped function, is in the details.
PER_LAYER = {
    "cli.load_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "numpy.linalg.svd.calls": "count",
    "numpy.linalg.svd.matrices": "count",
    "numpy.linalg.svd.self_s": "s",
    "numpy.linalg.eigvalsh.calls": "count",
    "numpy.linalg.eigvalsh.matrices": "count",
    "numpy.eye.bytes": "B",
    "linalg.spectral_norm.calls": "count",
    "linalg.spectral_norm.max_dim": "count",
    "linalg.spectral_norm.self_s": "s",
    "rng.values": "count",
    "rademacher.projection_bytes": "B",
    "subsets.batched_spectral_norms.matrices": "count",
    "ovm.Ovm.evaluate.calls": "count",
    "dilation.triple_bytes": "B",
    **{f"{layer}.self_share": "ratio" for layer in LAYER_NAMES},
}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha(root: str):
    """Commit of the checkout from .git, or None outside a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine(root: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "DILATIONKIT_THREADS": min(THREADS, nproc()),
        "platform": platform.platform(),
        "git_sha": git_sha(root),
    }


def child_env(root: str) -> dict:
    """Environment of every child: the BLAS thread count comes only from
    DILATIONKIT_THREADS, and the program is imported from the checkout."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["DILATIONKIT_THREADS"] = str(min(THREADS, nproc()))
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class Launcher:
    """Client of launcher.py, which starts and reaps every child; use it as a
    context manager so that the launcher is stopped at the end."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc_info):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def run(self, argv, cwd, env, timeout) -> dict:
        """Run one child to completion: its rusage figures, stdout and stderr."""
        paths = {"stdout": os.path.join(cwd, ".stdout"), "stderr": os.path.join(cwd, ".stderr")}
        request = {"argv": argv, "cwd": cwd, "env": env, "timeout": timeout, **paths}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        child = json.loads(line)
        with open(paths["stdout"], "rb") as handle:
            child["stdout"] = handle.read()
        with open(paths["stderr"], "rb") as handle:
            child["stderr"] = handle.read().decode("utf-8", "replace")
        return child


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: str):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return sha256(handle.read())


def tail(samples):
    """Highest percentile with at least ten samples beyond it: the (n-10)th
    smallest of n samples, at percentile 100 (n - 10) / n; None below 11."""
    n = len(samples)
    if n < 11:
        return {"value": None, "percentile": None, "samples": n}
    return {"value": sorted(samples)[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


class Run:
    """One benchmark run of a workload: inputs, invocations and verdicts."""

    def __init__(self, root, workload_cls, seed, seconds, workdir, launcher):
        self.seconds = seconds
        self.launcher = launcher
        self.workdir = workdir
        self.env = child_env(root)
        self.workload = workload_cls(seed, workdir)
        self.workload.prepare()
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures = []
        self.digests = {}

    def child(self, argv) -> dict:
        timeout = max(5.0, RUN_LIMIT_S - (time.perf_counter() - self.start))
        return self.launcher.run(argv, self.workdir, self.env, timeout)

    def measuring(self, walls, deadline) -> bool:
        """Whether to start another invocation: always a first one, then only
        while one more of average length ends by the deadline."""
        if not walls:
            return True
        return time.perf_counter() + statistics.fmean(walls) <= deadline

    def judge(self, returncode, report: bytes, output_sha, stderr="") -> None:
        """Oracle and determinism check of one invocation."""
        self.attempted += 1
        reasons = self.workload.check(returncode, report.decode("utf-8", "replace"))
        if returncode != 0 and stderr:
            reasons.append("stderr: " + stderr.strip()[-300:])
        for key, value in (("report_sha256", sha256(report)), ("output_sha256", output_sha)):
            first = self.digests.setdefault(key, value)
            if value != first:
                reasons.append(f"{key} {value} differs from the first invocation's {first}")
        if reasons:
            self.failures.append({"invocation": self.attempted, "reasons": reasons})

    def output_path(self):
        return os.path.join(self.workdir, workloads.TRIPLE_NAME) if self.workload.output else None

    def setup_times(self):
        argv = [sys.executable, "-c", "import dilationkit.cli"]
        times = []
        for i in range(SETUP_REPEATS + 1):
            child = self.child(argv)
            if child["returncode"] != 0:
                raise RuntimeError(f"cannot import dilationkit.cli: {child['stderr'].strip()}")
            if i:  # the first import compiles bytecode
                times.append(child["wall_s"])
        return times

    def untraced(self):
        setup = self.setup_times()
        argv = [sys.executable, "-m", "dilationkit.cli"] + self.workload.argv()
        samples = []
        deadline = time.perf_counter() + self.seconds
        while self.measuring([s["wall_s"] for s in samples], deadline):
            out = self.output_path()
            if out and os.path.exists(out):
                os.unlink(out)
            child = self.child(argv)
            self.judge(child["returncode"], child["stdout"], out and file_sha256(out),
                       child["stderr"])
            samples.append({key: child[key] for key in
                            ("returncode", "wall_s", "cpu_s", "sys_s", "peak_rss_mb")})
        metrics = {key: statistics.median(s[key] for s in samples)
                   for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setup)
        metrics["ok_ratio"] = 1.0 - len(self.failures) / self.attempted
        detail = {"samples": samples, "setup_samples_s": setup,
                  "wall_s_tail": tail([s["wall_s"] for s in samples]),
                  "failed_ratio": len(self.failures) / self.attempted}
        return metrics, detail

    def traced(self):
        argv = [sys.executable, os.path.join(HERE, "tracer.py")]
        out = self.output_path()
        pairs, walls = [], []
        deadline = time.perf_counter() + self.seconds
        while self.measuring(walls, deadline):
            order = "untraced-first" if len(pairs) % 2 == 0 else "traced-first"
            extra = ["--output-file", out] if out else []
            child = self.child(argv + ["--order", order] + extra + ["--"] + self.workload.argv())
            walls.append(child["wall_s"])
            try:
                result = json.loads(child["stdout"])
            except json.JSONDecodeError:
                self.judge(child["returncode"] or 1, b"", None, child["stderr"])
                pairs.append(None)
                continue
            for mode in ("untraced", "traced"):
                entry = result[mode]
                self.judge(entry["rc"], entry["report"].encode("utf-8"), entry["output_sha256"])
            result["order"] = order
            pairs.append(result)
        good = [p for p in pairs if p is not None and p["traced"]["summary"].get("handler")]
        per_pair = [layer_metrics(p) for p in good]
        # median_low keeps counts whole and every value one that was measured
        metrics = {name: statistics.median_low(m[name] for m in per_pair) if per_pair else 0
                   for name in PER_LAYER}
        detail = span_detail(good)
        detail["env"] = good[0]["env"] if good else None
        detail["pairs"] = [{"order": p["order"], "untraced_wall_s": p["untraced"]["wall_s"],
                            "traced_wall_s": p["traced"]["wall_s"]} for p in good]
        return metrics, detail


def layer_metrics(pair) -> dict:
    """PER_LAYER values of one untraced/traced pair.  Besides the four
    derived figures, `<span>.calls` and `<span>.self_s` read the span table,
    `<layer>.self_share` is the layer's self time over handler time, and any
    other name is a counter."""
    traced = pair["traced"]
    spans, summary = traced["spans"], traced["summary"]
    layer_self = summary["layer_self_s"]
    derived = {
        "cli.load_s": summary["cli.load_s"],
        "cli.self_s": layer_self.get("cli", 0.0),
        "trace.coverage": summary["trace.coverage"],
        "trace.overhead_s": traced["wall_s"] - pair["untraced"]["wall_s"],
    }
    metrics = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in derived:
            metrics[name] = derived[name]
        elif field == "calls":
            metrics[name] = spans.get(base, [0])[0]
        elif field == "self_s":
            metrics[name] = spans.get(base, [0, 0.0, 0.0])[2]
        elif field == "self_share":
            metrics[name] = layer_self.get(base, 0.0) / summary["handler_s"]
        else:
            metrics[name] = traced["counts"].get(name, 0)
    return metrics


def span_detail(pairs) -> dict:
    """Median over traced invocations of every span and of each layer's
    self time; span call counts are the same in every invocation."""
    if not pairs:
        return {"spans": {}, "layer_self_s": {}, "absent": None}
    spans = {}
    for name in pairs[0]["traced"]["spans"]:
        stats = [p["traced"]["spans"].get(name, [0, 0.0, 0.0]) for p in pairs]
        spans[name] = {"calls": stats[0][0],
                       "total_s": statistics.median_low(s[1] for s in stats),
                       "self_s": statistics.median_low(s[2] for s in stats)}
    layers = {f"{layer}.self_s": statistics.median_low(
        p["traced"]["summary"]["layer_self_s"].get(layer, 0.0) for p in pairs)
        for layer in LAYER_NAMES}
    return {"spans": dict(sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])),
            "layer_self_s": layers, "absent": pairs[0]["traced"]["absent"]}


def run_one(root, name, seed, seconds, trace) -> dict:
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        with Launcher() as launcher:
            run = Run(root, workloads.WORKLOADS[name], seed, seconds, workdir, launcher)
            metrics, detail = run.traced() if trace else run.untraced()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    detail.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                  machine=machine(root), digests=run.digests, failures=run.failures[:10])
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dilationkit CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dilationkit", "cli.py")):
        print("error: run from the repository root; src/dilationkit is missing",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_one(root, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result.pop("detail"), indent=1))
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run_one(root, name, args.seed, args.seconds, trace)
            detail = result.pop("detail")
            print(json.dumps(detail, indent=1))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                combined["metrics"][f"{name}/{key}"] = metric
            table += [(f"{name}/{key}", m["value"], m["unit"])
                      for key, m in result["metrics"].items()]
            table += detail_rows(name, detail)
    for key, value, unit in table:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{key:64s} {shown:>14s} {unit}")
    print(json.dumps(combined))
    return 0


def detail_rows(name, detail):
    """Table rows for the figures that only the details carry."""
    if detail["trace"] == 0:
        tail_ = detail["wall_s_tail"]
        label = (f"s (p{tail_['percentile']:.0f} of {tail_['samples']} samples)"
                 if tail_["value"] is not None else f"s (needs 11 samples, has {tail_['samples']})")
        return [(f"{name}/wall_s_tail", tail_["value"], label),
                (f"{name}/failed_ratio", detail["failed_ratio"], "ratio")]
    rows = [(f"{name}/{key}", value, "s") for key, value in detail["layer_self_s"].items()]
    for span, stat in detail["spans"].items():
        rows += [(f"{name}/{span}.calls", stat["calls"], "count"),
                 (f"{name}/{span}.self_s", stat["self_s"], "s")]
    return rows


if __name__ == "__main__":
    sys.exit(main())
