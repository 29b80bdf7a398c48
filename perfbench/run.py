"""imputeq benchmark: one user session per workload, timed from outside.

    python3 perfbench/run.py --workload {heart-knn,signal-trees,audit}
        --seed N --seconds S --trace {0,1}

Run from the root of an imputeq checkout; the package is imported from
`src/`.  Every session runs in a fresh Python process (perfbench/session.py).

--trace 0: set-up is sampled in extra processes before and after the
sessions; whole sessions run until S seconds of sessions have been measured
(at least one).
Each end-to-end metric is the median over the sessions; setup_s is the
median over every set-up, the sessions' own included.

--trace 1: one untraced and one traced session.  The traced one gives the
per-layer metrics; the difference between their timed windows is the
tracing overhead.

Sessions of one run must give equal output digests, and so must runs of
the same code in one checkout (.perfbench_work/digests.json keeps them).

The last line of standard output is the result: a JSON object with the keys
correct, attempted, failed and metrics.  The line before it holds the run's
details: environment, code identity, digests, sample counts and failures.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from layers import PER_LAYER_UNITS  # noqa: E402
from session import median  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "session_s": "s",
    "assess_s": "s",
    "fit_s": "s",
    "pipeline_roundtrip_s": "s",
    "apply_batch_rows_per_s": "rows/s",
    "apply_row_p50_ms": "ms",
    "apply_row_p99_ms": "ms",
    "cli_apply_s": "s",
    "peak_rss_mb": "MB",
}
# set-up-only processes per run, besides the sessions': some before the
# sessions and some after, so the samples come from different moments
SETUP_BEFORE, SETUP_AFTER = 1, 1
RUN_BUDGET_S = 170.0  # a run must end within 180 s
WORK_DIR = ".perfbench_work"


class BenchError(Exception):
    pass


def tree_digest(directory: Path) -> tuple[str, int]:
    """(sha256 over the directory's .py files, their line count)."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(directory.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(directory)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def code_identity(root: Path) -> dict:
    src_sha, lines = tree_digest(root / "src" / "imputeq")
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": src_sha, "src_lines": lines,
            "bench_sha256": tree_digest(BENCH_DIR)[0]}


def agrees_with_earlier_runs(store: Path, key: str, seed: int,
                             digests: dict) -> bool:
    """Compare a run's digests with those of earlier runs of the same code
    in this checkout, then add them.  The tables are fixed, so every digest
    but `rows` (the one-row outputs, served in an order drawn by seed) must
    match every earlier run of the workload, and `rows` those of the same
    seed."""
    earlier = json.loads(store.read_text()) if store.exists() else {}
    runs = earlier.setdefault(key, {})
    ok = all(
        other[name] == value
        for other_seed, other in runs.items()
        for name, value in digests.items()
        if name != "rows" or other_seed == str(seed)
    )
    runs.setdefault(str(seed), digests)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(earlier, sort_keys=True))
    os.replace(tmp, store)
    return ok


class Runner:
    """Starts session processes and keeps the run inside its time budget."""

    def __init__(self, root: Path, args, workdir: str):
        self.root = root
        self.args = args
        self.workdir = workdir
        self.t0 = time.monotonic()
        self.env = dict(os.environ)
        self.env.pop("IQA_THREADS", None)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def session(self, setup_only=False, trace=False) -> dict:
        self.count += 1
        out = os.path.join(self.workdir, f"result-{self.count}.json")
        cmd = [sys.executable, str(BENCH_DIR / "session.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--workdir", self.workdir, "--out", out]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            spans = self.root / WORK_DIR / (
                f"spans-{self.args.workload}-{self.args.seed}.json")
            cmd += ["--trace", str(spans)]
        remaining = RUN_BUDGET_S - self.elapsed()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("session did not finish within the run budget")
        if proc.returncode != 0:
            raise BenchError(
                f"session exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        with open(out) as fh:
            return json.load(fh)


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def run_untraced(runner: Runner, seconds: int):
    setups = [runner.session(setup_only=True) for _ in range(SETUP_BEFORE)]
    sessions = []
    measured = 0.0
    while True:
        start = runner.elapsed()
        sessions.append(runner.session())
        took = runner.elapsed() - start
        measured += took
        if measured >= seconds or runner.elapsed() + 1.5 * took > RUN_BUDGET_S:
            break
    setups += [runner.session(setup_only=True) for _ in range(SETUP_AFTER)]
    values = {
        name: median([s["metrics"][name] for s in sessions])
        for name in E2E_UNITS if name != "setup_s"
    }
    values["setup_s"] = median([s["setup_s"] for s in setups + sessions])
    return setups + sessions, sessions, metric_block(values, E2E_UNITS)


def run_traced(runner: Runner):
    plain = runner.session()
    traced = runner.session(trace=True)
    values = dict(traced["layers"])
    overhead = traced["window_s"] - plain["window_s"]
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / plain["window_s"]
    values["session.fail_frac"] = traced["failed"] / traced["attempted"]
    values["engine.pipeline_bytes"] = traced["pipeline_bytes"]
    return [plain, traced], [plain, traced], metric_block(values,
                                                          PER_LAYER_UNITS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    package = root / "src" / "imputeq"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no imputeq sources at {package}; run from the "
              "root of an imputeq checkout", file=sys.stderr)
        return 2
    # compile once up front so that every measured import reads bytecode
    compileall.compile_dir(str(package), quiet=1)

    (root / WORK_DIR).mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=root / WORK_DIR)
    try:
        runner = Runner(root, args, workdir)
        if args.trace:
            everything, sessions, metrics = run_traced(runner)
        else:
            everything, sessions, metrics = run_untraced(runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = [s["digests"] for s in sessions]
    same_outputs = all(d == digests[0] for d in digests)
    code = code_identity(root)
    earlier_agree = agrees_with_earlier_runs(
        root / WORK_DIR / "digests.json",
        f"{args.workload} {code['src_sha256']} {code['bench_sha256']}",
        args.seed, digests[0])
    correct = (same_outputs and earlier_agree
               and all(s["correct"] for s in everything))
    attempted = sum(s["attempted"] for s in everything)
    failed = sum(s["failed"] for s in everything)
    # set-up-only processes: the import and the table, no session
    setup_peaks = [s["process_peak_rss_mb"] for s in everything
                   if "metrics" not in s]
    errors: dict[str, int] = {}
    for s in everything:
        for key, n in s["errors"].items():
            errors[key] = errors.get(key, 0) + n
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "sessions": len(sessions),
        "processes": len(everything),
        "fail_frac": failed / attempted,
        "digests": digests[0],
        "pipeline_bytes": sessions[0]["pipeline_bytes"],
        "raw_metrics": {
            name: median([s["raw_metrics"][name] for s in sessions])
            for name in sessions[0]["raw_metrics"]},
        "raw_setup_s": median([s["raw_setup_s"] for s in everything]),
        "setup_peak_rss_mb": median(setup_peaks) if setup_peaks else None,
        "probe_ms": median([s["probe_ms"] for s in everything]),
        "same_outputs": same_outputs,
        "earlier_runs_agree": earlier_agree,
        "samples": sessions[0]["samples"],
        "stages": [s["stages"] for s in sessions],
        "errors": errors,
        "problems": [p for s in everything for p in s["problems"]][:20],
        "env": sessions[0]["env"],
        "code": code,
        "wall_s": runner.elapsed(),
    }
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
