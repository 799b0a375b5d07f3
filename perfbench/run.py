"""The lietensor benchmark.

    python3 perfbench/run.py --workload catalog|envelope|cross_oracle|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Each repetition of a workload runs in a fresh interpreter (perfbench/worker.py),
driven from this process with one client at a time in a closed loop, so no
two measured processes overlap.  There are at least three repetitions, as
long as they fit in the run's time limit, and more while another one fits
in ``--seconds``; the end-to-end times are their medians.  Every output is checked
against perfbench/goldens.json, and every mismatch, exception or non-zero exit
counts as a failed item.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs the workload once untraced and once traced and prints the per-layer
metrics, the ROADMAP stage table and the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Run records, reports and span traces go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
WORKLOADS = ("catalog", "envelope", "cross_oracle")
DEFAULT_SEED = 20260810
MIN_REPS = 3
SETUP_PROBES = 11
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_digest(obj) -> str:
    return sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------

def spawn(script: str, args: list[str], deadline: float):
    """Run a perfbench script in a fresh interpreter on the checkout's
    sources; returns (monotonic start, CompletedProcess)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / script), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - started))
    return started, proc


def probe_setup(deadline: float) -> tuple[float, dict]:
    """Seconds from interpreter start until ``import lietensor`` is done."""
    started, proc = spawn("worker.py", ["setup"], deadline)
    if proc.returncode != 0:
        raise BenchError(f"cannot import lietensor from {SRC}:\n{proc.stderr}")
    info = json.loads(proc.stdout)
    if not Path(info["lietensor_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported lietensor from {info['lietensor_file']}, "
                         f"not from {SRC}")
    return info["imported_at"] - started, info


def generate_inputs(seed: int, deadline: float) -> Path:
    path = WORK / f"inputs-{seed}.json"
    _, proc = spawn("gen_inputs.py", ["--seed", str(seed), "--out", str(path)],
                    deadline)
    if proc.returncode != 0:
        raise BenchError(f"input generation failed:\n{proc.stderr}")
    return path


def run_rep(workload: str, out: Path, deadline: float, inputs: Path | None = None,
            trace: Path | None = None) -> dict:
    """One repetition.  A crash or timeout gives {"crashed": reason}."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    args = [workload, "--out", str(out)]
    if inputs is not None:
        args += ["--inputs", str(inputs)]
    if trace is not None:
        args += ["--trace", str(trace)]
    try:
        started, proc = spawn("worker.py", args, deadline)
    except subprocess.TimeoutExpired:
        return {"crashed": "timed out"}
    if proc.returncode != 0 or not (out / "result.json").exists():
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"crashed": tail[0]}
    rep = json.loads((out / "result.json").read_text())
    rep["setup_s"] = rep["imported_at"] - started
    return rep


# ----------------------------------------------------------------------
# checks against the goldens: each returns (attempted, [(item, reason)])
# ----------------------------------------------------------------------

def field_name(descriptor) -> str:
    return "Q" if descriptor == "Q" else f"F{descriptor['Fp']}"


def check_catalog(rep: dict, out: Path, golden: dict):
    expected = golden["entries"]
    if "crashed" in rep or rep["exit_code"] != 0:
        reason = rep.get("crashed") or f"exit {rep['exit_code']}"
        return len(expected), [(label, reason) for label in expected]
    data = (out / "catalog.json").read_bytes()
    got = {f"{e['name']}@{field_name(e['field'])}": e
           for e in json.loads(data)["entries"]}
    failures = []
    for label, want in expected.items():
        entry = got.get(label)
        if entry is None:
            failures.append((label, "missing from the report"))
        elif entry["status"] != want["status"]:
            failures.append((label, f"status {entry['status']!r}"))
        elif json_digest(entry) != want["sha256"]:
            failures.append((label, "entry differs from the golden"))
    if not failures and sha256(data) != golden["report_sha256"]:
        failures.append(("report", "report digest differs from the golden"))
    return len(expected), failures


def check_envelope(rep: dict, out: Path, golden: dict):
    labels = ("tensor_report", "abelian(16)")
    if "crashed" in rep:
        return len(labels), [(label, rep["crashed"]) for label in labels]
    items = {i["label"]: i for i in rep["items"]}
    failures = []
    report = out / "envelope.json"
    if items["tensor_report"]["exit_code"] != 0:
        failures.append(("tensor_report", f"exit {items['tensor_report']['exit_code']}"))
    elif sha256(report.read_bytes()) != golden["report_sha256"]:
        failures.append(("tensor_report", "report digest differs from the golden"))
    if items["abelian(16)"]["dims"] != golden["abelian16"]:
        failures.append(("abelian(16)", f"dims {items['abelian(16)']['dims']}"))
    return len(labels), failures


def check_cross_oracle(rep: dict, inputs_sha: str, seed: int, golden: dict):
    """Both engines must agree on every item.  The free nilpotent items and,
    for seeds with recorded goldens, every item must also match its dims."""
    labels = golden["labels"]
    if "crashed" in rep:
        return len(labels), [(label, rep["crashed"]) for label in labels]
    recorded = golden["seeds"].get(str(seed), {})
    wanted = dict(zip(labels, recorded.get("dims", [])), **golden["fixed"])
    items = {i["label"]: i for i in rep["items"]}
    failures = []
    for label in labels:
        item = items.get(label)
        if item is None:
            failures.append((label, "not run"))
        elif "error" in item:
            failures.append((label, item["error"]))
        elif item["dims"][0] != item["dims"][1] or item["dims"][2] != item["dims"][3]:
            failures.append((label, f"engines disagree: {item['dims']}"))
        elif label in wanted and item["dims"] != wanted[label]:
            failures.append((label, f"dims {item['dims']} != golden {wanted[label]}"))
        elif recorded and inputs_sha != recorded["inputs_sha256"]:
            failures.append((label, "inputs differ from the golden inputs"))
    return len(labels), failures


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------

def git_stamp() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=30)
    try:
        rev = git("rev-parse", "HEAD")
        if rev.returncode != 0:
            return {"git_rev": "none", "git_dirty": None}
        dirty = bool(git("status", "--porcelain").stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return {"git_rev": "none", "git_dirty": None}
    return {"git_rev": rev.stdout.strip(), "git_dirty": dirty}


def item_quantiles(times: list[float]) -> tuple[float, float]:
    """Median and 75th percentile (the highest percentile with at least ten
    items beyond it on the catalog and cross_oracle workloads)."""
    q = statistics.quantiles(times, n=4, method="inclusive")
    return q[1], q[2]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> dict:
    golden = json.loads((HERE / "goldens.json").read_text())[workload]
    probe_setup(deadline)  # compiles bytecode; not timed
    # Half the set-up probes run before the repetitions and half after, so
    # that one slow stretch of the machine does not move all of them.
    probes = [probe_setup(deadline) for _ in range(SETUP_PROBES // 2)]
    inputs = inputs_sha = None
    if workload == "cross_oracle":
        inputs = generate_inputs(seed, deadline)
        inputs_sha = sha256(inputs.read_bytes())
    attempted, failures = 0, []

    def one(name: str, trace_path: Path | None = None) -> dict:
        nonlocal attempted
        out = WORK / f"{workload}-{name}"
        rep = run_rep(workload, out, deadline, inputs, trace_path)
        if workload == "catalog":
            n, failed = check_catalog(rep, out, golden)
        elif workload == "envelope":
            n, failed = check_envelope(rep, out, golden)
        else:
            n, failed = check_cross_oracle(rep, inputs_sha, seed, golden)
        attempted += n
        failures.extend(failed)
        return rep

    # With tracing, one untraced repetition gives the overhead baseline.
    reps = []
    stop = time.monotonic() + seconds
    while True:
        rep_start = time.monotonic()
        reps.append(one(f"rep{len(reps)}"))
        now = time.monotonic()
        ends = now + (now - rep_start)
        if trace or "crashed" in reps[-1] or ends > deadline \
                or (len(reps) >= MIN_REPS and ends > stop):
            break
    trace_path = WORK / f"trace-{workload}-{seed}.jsonl"
    traced = one("traced", trace_path) if trace else None
    probes += [probe_setup(deadline) for _ in range(SETUP_PROBES - len(probes))]

    info = probes[0][1]
    record = {
        "workload": workload,
        "seed": seed,
        "stamp": {"python": info["python"], "backend": info["backend"],
                  "nproc": os.cpu_count(), **git_stamp(), "seed": seed},
        "reps": len(reps),
        "attempted": attempted,
        "failures": failures,
        "inputs_sha256": inputs_sha,
    }
    done = [r for r in reps if "crashed" not in r]
    if done:
        setups = [s for s, _ in probes] + [r["setup_s"] for r in done]
        times = [i["seconds"] for r in done for i in r["items"]]
        p50, p75 = item_quantiles(times)
        record["items_timed"] = len(times)
        record["setup_samples"] = len(setups)
        record["metrics"] = {
            "setup_s": [statistics.median(setups), "s"],
            "wall_s": [statistics.median(r["wall_s"] for r in done), "s"],
            "item_p50_s": [p50, "s"],
            "item_p75_s": [p75, "s"],
            "peak_rss_mb": [statistics.median(r["peak_rss_mb"] for r in done), "MB"],
        }
        record["cache_hits"] = done[0]["cache_hits"]
    if traced is not None and "crashed" not in traced and done:
        layers = traced["layers"]
        layers.update({k: [v, "count"] for k, v in traced["cache_hits"].items()})
        layers["trace.wall_s"] = [traced["wall_s"], "s"]
        layers["trace.overhead_s"] = [traced["wall_s"] - done[0]["wall_s"], "s"]
        record["layers"] = layers
        record["stages"] = traced["stages"]
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    return record


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(record: dict, declared: dict, trace: bool) -> dict:
    """Print the record for a reader, then return the result object whose
    metrics are exactly the declared end-to-end or per-layer ones."""
    s = record["stamp"]
    print(f"== {record['workload']}  seed {s['seed']}  python {s['python']}  "
          f"backend {s['backend']}  nproc {s['nproc']}  git {s['git_rev'][:12]}"
          f"{' (dirty)' if s['git_dirty'] else ''}")
    failed = len(record["failures"])
    attempted = record["attempted"]
    for item, reason in record["failures"][:20]:
        print(f"   FAILED {item}: {reason}")
    metrics = record.get("metrics", {})
    if metrics:
        print(f"   {record['reps']} untraced repetition(s), "
              f"{record['items_timed']} timed items, "
              f"{record['setup_samples']} set-up samples")
    wanted = declared["per_layer" if trace else "end_to_end"]
    shown = record.get("layers", {}) if trace else metrics
    for name, (value, unit) in shown.items():
        print(f"   {name:45s} {fmt(value):>14s} {unit}")
    print(f"   {'fail_frac':45s} {fmt(failed / attempted if attempted else 1.0):>14s} "
          f"ratio  ({failed} of {attempted} items failed)")
    if trace and record.get("stages"):
        print(f"   {'stage':36s}   calls   inclusive_s   self_s")
        for stage, calls, inclusive, own in record["stages"]:
            print(f"   {stage:36s} {calls:7d} {inclusive:13.4f} {own:8.4f}")
        print(f"   spans: {record['trace_file']}")
    complete = all(m["name"] in shown for m in wanted)
    return {
        "correct": failed == 0 and complete,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {m["name"]: {"value": shown[m["name"]][0], "unit": m["unit"]}
                    for m in wanted if m["name"] in shown},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="lietensor benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if not (SRC / "lietensor" / "__init__.py").is_file():
            raise BenchError(f"no lietensor sources under {SRC}")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        WORK.mkdir(exist_ok=True)
        results = []
        for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
            deadline = time.monotonic() + RUN_LIMIT_S
            record = measure(workload, args.seed, args.seconds, bool(args.trace),
                             deadline)
            result = report(record, declared, bool(args.trace))
            record["result"] = result
            name = f"result-{workload}-{args.seed}-trace{args.trace}.json"
            (WORK / name).write_text(json.dumps(record, indent=1) + "\n")
            results.append(result)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in results),
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results),
                          "metrics": {}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
