"""One imputeq user session in a fresh Python process.

    python3 perfbench/session.py --workload NAME --seed N --workdir DIR
        --out RESULT.json [--setup-only] [--trace SPANS.json]

Run from the root of an imputeq checkout with `src` on PYTHONPATH.  Every
call into the public API is timed from outside and scaled to a reference
CPU speed measured by a probe kernel between calls (see README.md);
outputs are checked between and after the timed calls, and the result
(metrics, raw times, counts, checks, digests) is written to RESULT.json.
With --trace the imputeq call sites listed in layers.py are wrapped for the
whole session, spans go to SPANS.json, and the per-layer metrics are added
to the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import sys
import time
import warnings
from collections import Counter
from dataclasses import replace

ROW_SAMPLES = 6000  # one-row calls per session; p99 then has 60 beyond it
AUDIT_LEVELS = [0.0]
AUDIT_K = 2  # folds per audited feature; k=3 made a run take 48-59 s
OMEGA_TOL = 1e-12


PROBE_REF_MS = 4.5  # probe median on a 2-vCPU VM in its fast state
# probe repeats next to set-up and the long calls: about 0.25 s, so that
# the median spans the sub-second swings of a shared CPU's speed instead of
# catching one of them, as a few repeats do
LONG_PROBE = 40


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def probe_ms(reps: int) -> float:
    """Median time of a fixed kernel, in ms.

    Half of it is small numpy sorts and sums, half a loop over small Python
    objects: when the shared CPU slows down, numpy-bound calls (kNN, tree
    fits) slow about as much as the first half, interpreter-bound ones
    (serialisation, one-row serving) more, and the mix tracks both.
    """
    import numpy as np

    x = np.random.default_rng(0).normal(size=(300, 8))
    out = []
    for _ in range(reps):
        t = time.perf_counter()
        s = 0.0
        for i in range(100):
            col = x[:, i % 8]
            s += float(np.cumsum(col[np.argsort(col, kind="mergesort")])[-1])
            s += sum(range(200))
        for _ in range(13):
            for p in [_Point(i, float(i)) for i in range(400)]:
                s += p.a * p.b if p.a % 3 else p.b
        out.append((time.perf_counter() - t) * 1e3)
    return median(out)


class Speed:
    """Probe marks taken between calls; a call's factor scales its time to
    the reference speed using the marks on either side of it."""

    def __init__(self, client):
        self.client = client
        self.marks: list[tuple[float, float]] = []

    def sample(self, reps: int = 3) -> None:
        with self.client.harness("speed_probe"):
            self.marks.append((time.perf_counter(), probe_ms(reps)))

    def factor(self, t0: float, t1: float) -> float:
        before = [ms for t, ms in self.marks if t <= t0]
        after = [ms for t, ms in self.marks if t >= t1]
        near = before[-1:] + after[:1]
        return PROBE_REF_MS / (sum(near) / len(near))


class Client:
    """Times each call into imputeq and keeps the failure accounting.

    A call fails when it raises or when its output fails a check.  With a
    recorder, each call is also a top-level span.
    """

    def __init__(self, rec):
        self.rec = rec
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.problems: list[str] = []
        self.first_start = None
        self.last_end = None
        self.calls: list[tuple[float, float]] = []  # (start, seconds)

    def call(self, name, fn, *args, attrs=None, **kwargs):
        """Returns (result, seconds); re-raises after counting a failure."""
        self.attempted += 1
        idx = self.rec.open(name) if self.rec else None
        start = self.last_start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            # one key per kind of error: numbers in the message masked
            message = re.sub(r"-?\d+\.\d+(?:e[-+]?\d+)?", "<x>", str(exc))
            self.errors[f"{name}: {type(exc).__name__}: {message}"] += 1
            raise
        finally:
            end = time.perf_counter()
            if self.rec:
                span = self.rec.close(idx)
            if self.first_start is None:
                self.first_start = start
            self.last_end = end
            self.calls.append((start, end - start))
        if self.rec and attrs is not None:
            span.attrs.update(attrs(args, kwargs, result))
        return result, end - start

    @contextlib.contextmanager
    def harness(self, what: str):
        """The benchmark's own work between timed calls (speed probes,
        building inputs, checking outputs); in a traced session it is a
        `harness.*` span, which trace coverage leaves out."""
        idx = self.rec.open(f"harness.{what}") if self.rec else None
        try:
            yield
        finally:
            if self.rec:
                self.rec.close(idx)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.problems) < 50:
                self.problems.append(what)

    @property
    def window_s(self) -> float:
        return self.last_end - self.first_start


def median(xs):
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2.0


def percentile(xs, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in blas},
        "iqa_threads_set": "IQA_THREADS" in os.environ,
    }


# ---------------------------------------------------------------------------
# checks on returned outputs


def check_records(client, records, t):
    for r in records:
        mu = 1.0 - t.column(r.feature).mask.mean()
        ok = (
            0.0 <= r.delta <= 1.0
            and 0.0 <= r.omega <= 1.0
            and abs(r.completeness - mu) <= OMEGA_TOL
            and abs(r.omega - (r.completeness
                               + (1.0 - r.completeness) * r.delta))
            <= OMEGA_TOL
        )
        client.check(ok, f"assess: bad delta/omega for {r.feature!r}")


def kept_names(plan):
    dropped = set(plan.drop_list)
    return [s.name for s in plan.schema if s.name not in dropped]


def check_applied(client, what, out, plan, t, rows=None):
    """Kept features come back complete; observed input cells unchanged.

    `t` is the encoded full table; `rows` picks the input's rows from it.
    """
    if out.column_names != kept_names(plan):
        client.check(False, f"{what}: columns {out.column_names}")
        return
    ok = True
    for c in out.columns:
        ref = t.column(c.name)
        ref_values = ref.values if rows is None else ref.values[rows]
        ref_mask = ref.mask if rows is None else ref.mask[rows]
        observed = ~ref_mask
        ok = ok and not c.mask.any()
        ok = ok and bool((c.values[observed] == ref_values[observed]).all())
    client.check(ok, f"{what}: missing cells left or observed cells changed")


def same_table(a, b) -> bool:
    import numpy as np

    if a.column_names != b.column_names:
        return False
    return all(
        np.array_equal(x.values, y.values, equal_nan=True)
        and np.array_equal(x.mask, y.mask)
        for x, y in zip(a.columns, b.columns)
    )


def check_cli_output(client, iq, path, batch):
    import numpy as np

    got = iq.load_csv(path)
    ok = got.column_names == batch.column_names
    for g, b in zip(got.columns, batch.columns) if ok else ():
        if g.mask.any():
            ok = False
        elif b.labels is not None:
            want = [b.labels[int(v)] for v in b.values]
            ok = ok and list(g.values) == want
        else:
            ok = ok and bool(np.allclose(g.values, b.values, rtol=1e-9,
                                         atol=0.0))
    client.check(ok, "cli apply: output differs from the batch apply")


def check_audit(client, reports, strategies):
    names = [r.strategy for r in reports]
    client.check(names == list(strategies), f"audit: strategies {names}")
    for r in reports:
        scored = [f.mean_auroc for f in r.per_feature if not f.skipped]
        client.check(bool(scored), f"audit: {r.strategy} scored nothing")
        client.check(all(0.0 <= a <= 1.0 for a in scored),
                     f"audit: {r.strategy} AUROC outside [0, 1]")
        avg = r.strategy_average
        client.check(avg is None or 0.0 <= avg <= 1.0,
                     f"audit: {r.strategy} average outside [0, 1]")


# ---------------------------------------------------------------------------
# the session


def setup(client, iq, workloads, w, workdir):
    """Write the workload CSV, load and encode it; returns (raw, encoded,
    seconds) where seconds excludes the import."""
    csv_path = os.path.join(workdir, "workload.csv")

    def write_workload():
        columns = w.make_columns()
        workloads.write_columns(columns, csv_path)
        return workloads.missing_counts(columns)

    generated, s0 = client.call("session.write_csv", write_workload)
    client.check(generated == w.expected_missing,
                 f"generator: missing counts {generated}")
    raw, s1 = client.call("table.load_csv", iq.load_csv, csv_path)
    enc, s2 = client.call("table.label_encode", iq.label_encode, raw)
    t, s3 = client.call("table.infer_column_kinds", iq.infer_column_kinds,
                        enc)
    loaded = {c.name: int(c.mask.sum()) for c in raw.columns}
    client.check(loaded == generated, f"load_csv: missing counts {loaded}")
    client.check(all(c.kind is not None for c in t.columns),
                 "infer_column_kinds: a column has no kind")
    return csv_path, raw, t, s0 + s1 + s2 + s3


def run(args) -> dict:
    start = time.perf_counter()
    import imputeq as iq
    import_s = time.perf_counter() - start
    from imputeq import cli

    import layers
    import workloads
    from spans import SpanRecorder

    warnings.simplefilter("ignore")
    rec = None
    if args.trace:
        rec = SpanRecorder()
        layers.install(rec)
    client = Client(rec)
    speed = Speed(client)
    try:
        w = workloads.WORKLOADS[args.workload](iq)
        csv_path, raw, t, setup_s = setup(client, iq, workloads, w,
                                          args.workdir)
        speed.sample(LONG_PROBE)
        setup_s += import_s
        result = {
            "setup_s": setup_s * speed.factor(client.last_end,
                                              client.last_end),
            "raw_setup_s": setup_s,
        }
        if not args.setup_only:
            result.update(session(client, speed, iq, cli, layers, w, raw, t,
                                  csv_path, args))
    finally:
        if rec:
            rec.restore()
    result.update({
        "attempted": client.attempted,
        "failed": client.failed,
        "correct": not client.problems,
        "problems": client.problems,
        "errors": dict(client.errors),
        "window_s": client.window_s,
        "process_peak_rss_mb": peak_rss_mb(),
        "probe_ms": median([ms for _, ms in speed.marks]),
        "env": environment(),
    })
    if rec:
        result["layers"] = layers.layer_metrics(rec.spans)
        result["layers"]["trace.spans"] = len(rec.spans)
        result["layers"]["trace.coverage"] = layers.coverage(rec.spans)
        with open(args.trace, "w") as fh:
            json.dump([s.to_jsonable() for s in rec.spans], fh)
    return result


def row_inputs(iq, raw, picks):
    """One one-row Table per pick, each row taken from the raw table."""
    import numpy as np

    return [iq.Table(tuple(c.take(np.array([i])) for c in raw.columns), 1)
            for i in picks]


def update_digest(h, table) -> None:
    for c in table.columns:
        h.update(c.name.encode() + b"\0")
        h.update(c.values.astype("float64").tobytes())
        h.update(c.mask.tobytes())


def session(client, speed, iq, cli, layers, w, raw, t, csv_path,
            args) -> dict:
    """Everything after set-up.  Outputs are checked between timed calls
    and then dropped, so the process keeps only what later checks compare
    against (the first plan, blob and batch output, digests): its peak RSS
    is imputeq's working set, not a pile of kept results."""
    import numpy as np

    # every row of the table is served equally often (so the tail's mix of
    # rows is the same in every run), in an order drawn by seed
    rng = np.random.default_rng([args.seed, 1])
    copies = -(-ROW_SAMPLES // raw.n_rows)
    picks = rng.permutation(np.tile(np.arange(raw.n_rows), copies))
    picks = picks[:ROW_SAMPLES]
    plan_path = os.path.join(args.workdir, "pipeline.json")
    out_path = os.path.join(args.workdir, "imputed.csv")

    def cli_apply():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["apply", "--pipeline", plan_path,
                             "--data", csv_path, "--out", out_path])

    n_setup_calls = len(client.calls)
    config, deps = w.config, None
    if w.graph is not None:
        graph, _ = client.call(
            "depgraph.build_dependency_graph", iq.build_dependency_graph, t,
            seed=0, attrs=layers.graph_attrs, **w.graph)
        deps, _ = client.call("depgraph.transitive_dependencies",
                              iq.transitive_dependencies, graph)
        config = replace(config, dependencies=deps)
        speed.sample(LONG_PROBE)
    # a probe after every assess call, so that each call of several seconds
    # is scaled by the speed measured right before and right after it
    all_records, assess_calls = [], []
    for _ in range(w.assess_calls):
        records, _ = client.call("engine.assess", iq.assess, t, config,
                                 attrs=layers.assess_attrs)
        all_records.append(records)
        assess_calls.append(client.calls[-1])
        speed.sample(LONG_PROBE)
    records = all_records[0]

    rounds_start = time.perf_counter()
    plan = blob = batch = None
    rows_digest = hashlib.sha256()
    rows_ok = 0
    times = {k: [] for k in ("fit", "roundtrip", "batch", "cli", "row")}
    for r in range(w.rounds):
        if r:
            speed.sample()
        lo = r * ROW_SAMPLES // w.rounds
        hi = (r + 1) * ROW_SAMPLES // w.rounds
        with client.harness("inputs"):
            row_tables = row_inputs(iq, raw, picks[lo:hi])
        fitted, s = client.call("engine.fit_pipeline", iq.fit_pipeline, t,
                                records, config)
        times["fit"].append((client.last_start, s))
        fitted_blob, s1 = client.call("engine.serialize_pipeline",
                                      iq.serialize_pipeline, fitted)
        st = client.last_start
        plan2, s2 = client.call("engine.deserialize_pipeline",
                                iq.deserialize_pipeline, fitted_blob)
        times["roundtrip"].append((st, s1 + s2))
        out, s = client.call("engine.apply_pipeline", iq.apply_pipeline,
                             fitted, raw)
        times["batch"].append((client.last_start, s))
        # one-row serving: a closed loop with one client; the outputs are
        # checked after the loop, so no check runs between two timed calls
        row_outs = []
        for row in row_tables:
            try:
                one, s = client.call("engine.apply_pipeline",
                                     iq.apply_pipeline, fitted, row)
            except Exception:
                row_outs.append(None)  # counted by the client
                continue
            row_outs.append(one)
            times["row"].append((client.last_start, s))
        # the saved plan applied to the workload CSV by the CLI, in-process
        if r == 0:
            with open(plan_path, "wb") as fh:
                fh.write(fitted_blob)
        code, s = client.call("cli.apply", cli_apply)
        times["cli"].append((client.last_start, s))

        with client.harness("check"):
            if r == 0:
                plan, blob, batch = fitted, fitted_blob, out
                check_applied(client, "batch apply", batch, plan, t)
            client.check(fitted_blob == blob, "fit/serialize: repeats differ")
            client.check(same_table(out, batch), "batch apply: repeats differ")
            client.check(code == 0, f"cli apply: exit code {code}")
            for i, one in zip(picks[lo:hi], row_outs):
                if one is None:
                    rows_digest.update(b"failed\0")
                    continue
                rows_ok += 1
                update_digest(rows_digest, one)
                check_applied(client, f"row {i} apply", one, plan, t,
                              rows=np.array([i]))
        del row_tables, row_outs, fitted, out
    out2, _ = client.call("engine.apply_pipeline", iq.apply_pipeline,
                          plan2, raw)
    rounds_s = time.perf_counter() - rounds_start
    speed.sample(LONG_PROBE)

    reports, audit_s = None, 0.0
    if w.audit_strategies is not None:
        strategies = w.audit_strategies
        if client.rec:
            strategies = {name: layers.traced_strategy(client.rec, f)
                          for name, f in strategies.items()}
        reports, audit_s = client.call(
            "audit.audit_all", iq.audit_all, t, strategies, AUDIT_LEVELS,
            k=AUDIT_K)
        speed.sample(LONG_PROBE)
    session_calls = client.calls[n_setup_calls:]

    def seconds(samples, norm):
        return [dt * speed.factor(st, st + dt) if norm else dt
                for st, dt in samples]

    def stage_metrics(norm):
        ms = [x * 1e3 for x in seconds(times["row"], norm)]
        return {
            "session_s": sum(seconds(session_calls, norm)),
            "assess_s": median(seconds(assess_calls, norm)),
            "fit_s": median(seconds(times["fit"], norm)),
            "pipeline_roundtrip_s": median(seconds(times["roundtrip"], norm)),
            "apply_batch_rows_per_s":
                raw.n_rows / median(seconds(times["batch"], norm)),
            "apply_row_p50_ms": percentile(ms, 50),
            "apply_row_p99_ms": percentile(ms, 99),
            "cli_apply_s": median(seconds(times["cli"], norm)),
        }

    metrics = stage_metrics(norm=True)
    metrics["peak_rss_mb"] = peak_rss_mb()

    # the remaining checks, after the last timed call
    if deps is not None:
        client.check(
            sorted(deps) == sorted(t.column_names)
            and all(k not in v for k, v in deps.items()),
            "transitive_dependencies: bad dictionary")
    check_records(client, records, t)
    records_doc = iq.dumps_canonical(iq.records_to_jsonable(records))
    for other in all_records[1:]:
        client.check(iq.dumps_canonical(iq.records_to_jsonable(other))
                     == records_doc, "assess: repeats differ")
    client.check(iq.serialize_pipeline(plan2) == blob,
                 "serialize -> deserialize -> serialize is not identical")
    client.check(same_table(out2, batch),
                 "deserialized plan applies differently")
    check_cli_output(client, iq, out_path, batch)
    digests = {"records": sha256(records_doc), "pipeline": sha256(blob),
               "rows": rows_digest.hexdigest()}
    if reports is not None:
        check_audit(client, reports, w.audit_strategies)
        digests["audit"] = sha256(iq.dumps_canonical(
            iq.audit_document([r.to_jsonable() for r in reports])))

    samples = {"rounds": w.rounds, "apply_row": rows_ok,
               "apply_row_failed": ROW_SAMPLES - rows_ok}
    stages = {"assess_s": sum(dt for _, dt in assess_calls),
              "rounds_s": rounds_s,
              "audit_s": audit_s}
    return {"metrics": metrics, "raw_metrics": stage_metrics(norm=False),
            "pipeline_bytes": len(blob), "samples": samples,
            "digests": digests, "stages": stages}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    result = run(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
