"""Step benchmark: end-to-end and per-layer cost of a simulation step.

Run from the repository root::

    python3 perfbench/run.py --workload star-32 --seed 1 --seconds 10 --trace 0

Workloads ``star-32``, ``blast-32-futurized`` and ``merger-16-dist`` are
defined in ``perfbench/workloads.py``; ``perfbench/README.md`` says why
each was chosen and which end-to-end metric each layer metric moves.

One run sets the workload up (timed as ``setup_s``; the blast, whose
set-up is cheap, is set up three times and reports the median), then
times steps until ``--seconds`` have passed (at least one).  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced steps (at least one of each), builds the per-layer ledger
from the traced ones (:mod:`ledger`) and reports the tracing overhead.
Every step is checked (finite state, density floor, mass and momentum
drift, plus the workload's own checks); the per-step counts that must
repeat exactly are compared against any earlier run with the same seed
and the same sources.  The last line of standard output is the result
JSON; the full record (host fingerprint, per-step times and counts,
ledger) and, when traced, a Chrome trace go to ``perfbench/out/``.

Exit codes: 0 all checks passed, 1 a correctness check failed (the
result line is still printed), 2 the program could not be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
#: run records, count histories and traces
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: end-to-end metrics (untraced runs): name -> unit
END_TO_END = {
    "subgrids_per_s": "1/s",
    "step_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced runs): name -> unit; per traced step unless
#: the name says otherwise
PER_LAYER = {
    "gravity.solve_s": "s",
    "gravity.p2p_s": "s",
    "gravity.m2l_s": "s",
    "gravity.upward_s": "s",
    "gravity.downward_s": "s",
    "gravity.gather_scatter_s": "s",
    "gravity.p2p_pairs": "count",
    "gravity.m2l_pairs": "count",
    "gravity.kernel_calls": "count",
    "gravity.p2p_ns_per_pair": "ns",
    "gravity.m2l_ns_per_pair": "ns",
    "gravity.staged_mb": "MB",
    "gravity.bytes_per_pair_computed": "B",
    "hydro.rhs_s": "s",
    "hydro.rhs_calls": "count",
    "hydro.rhs_ns_per_zone": "ns",
    "hydro.floors_s": "s",
    "hydro.cfl_s": "s",
    "mesh.self_s": "s",
    "mesh.halo_channel_s": "s",
    "mesh.halo_msgs": "count",
    "mesh.halo_bytes": "B",
    "runtime.wait_s": "s",
    "runtime.task_s": "s",
    "runtime.task_self_s": "s",
    "runtime.us_per_task": "us",
    "runtime.tasks": "count",
    "runtime.stolen": "count",
    "runtime.agg_per_launch": "ratio",
    "runtime.gpu_fraction": "ratio",
    "runtime.cpu_overflow": "count",
    "network.send_s": "s",
    "network.remote_msgs": "count",
    "network.remote_bytes": "B",
    "network.local_msgs": "count",
    "resilience.ckpt_save_s": "s",
    "resilience.ckpt_bytes": "B",
    "setup.model_s": "s",
    "setup.first_step_s": "s",
    "trace.overhead_frac": "ratio",
}

#: tail percentiles tried, highest first (reported when >= 10 samples
#: lie beyond)
_TAIL = (99.9, 99.0, 95.0, 90.0, 50.0)


# -- host -----------------------------------------------------------------------

def host_fingerprint(threads: dict) -> dict:
    """Core count, CPU model, Python, numpy/BLAS and the thread counts."""
    import numpy as np
    cpu = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "threads": dict(threads, main=1),
    }


def source_digest() -> str:
    """Hash of the program and benchmark sources (keys the count ledger)."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith(".py"):
                    path = os.path.join(dirpath, fn)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


# -- statistics -----------------------------------------------------------------

def tail(walls: list[float]) -> dict:
    """Highest step-time percentile with at least ten samples beyond it."""
    import numpy as np
    n = len(walls)
    for p in _TAIL:
        beyond = int(n * (1.0 - p / 100.0))
        if beyond >= 10:
            return {"percentile": p, "value": float(np.percentile(walls, p)),
                    "beyond": beyond, "samples": n}
    return {"percentile": None, "value": None, "beyond": 0, "samples": n}


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def _sum(rows: list[dict], key: str) -> float:
    return float(sum(r.get(key, 0) for r in rows))


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def per_layer_metrics(ledger, st: _Steps, untraced_walls: list[float],
                      setup: dict) -> tuple[dict, dict]:
    """The per-layer metrics (per traced step) and the ledger table."""
    from repro.core import SUBGRID_N
    from repro.runtime import default_registry
    traced = st.traced
    n = len(traced)
    tot = ledger.totals(set(traced))
    empty = {"calls": 0, "dur_s": 0.0, "self_s": 0.0, "items": 0,
             "bytes": 0, "by_role": {}}

    def row(name: str) -> dict:
        return tot.get(name, empty)

    ex = [st.exact[k] for k in traced]
    sc = [st.sched[k] for k in traced]
    p2p, m2l, rhs = row("gravity.p2p"), row("gravity.m2l"), row("hydro.rhs")
    task, chan = row("runtime.task"), row("mesh.halo_channel")
    gpu, cpu = _sum(sc, "exec.gpu"), _sum(sc, "exec.cpu")
    traced_med = statistics.median(st.walls[k] for k in traced)
    m = {
        "gravity.solve_s": row("gravity.solve")["dur_s"] / n,
        "gravity.p2p_s": p2p["dur_s"] / n,
        "gravity.m2l_s": m2l["dur_s"] / n,
        "gravity.upward_s": row("gravity.upward")["dur_s"] / n,
        "gravity.downward_s": row("gravity.downward")["dur_s"] / n,
        "gravity.gather_scatter_s": row("gravity.solve")["self_s"] / n,
        "gravity.p2p_pairs": _sum(ex, "fmm.p2p_pairs") / n,
        "gravity.m2l_pairs": _sum(ex, "fmm.m2l_pairs") / n,
        "gravity.kernel_calls": (p2p["calls"] + m2l["calls"]) / n,
        "gravity.p2p_ns_per_pair": _ratio(p2p["dur_s"], p2p["items"], 1e9),
        "gravity.m2l_ns_per_pair": _ratio(m2l["dur_s"], m2l["items"], 1e9),
        "gravity.staged_mb": default_registry().snapshot().get(
            "/fmm/staged-bytes", 0.0) / 1e6,
        "gravity.bytes_per_pair_computed": _ratio(
            p2p["bytes"] + m2l["bytes"], p2p["items"] + m2l["items"]),
        "hydro.rhs_s": rhs["dur_s"] / n,
        "hydro.rhs_calls": rhs["calls"] / n,
        "hydro.rhs_ns_per_zone": _ratio(rhs["dur_s"],
                                        rhs["calls"] * SUBGRID_N ** 3, 1e9),
        "hydro.floors_s": row("hydro.floors")["dur_s"] / n,
        "hydro.cfl_s": row("hydro.cfl")["dur_s"] / n,
        "mesh.self_s": row("mesh.step")["self_s"] / n,
        "mesh.halo_channel_s": chan["self_s"] / n,
        "mesh.halo_msgs": chan["items"] / n,
        "mesh.halo_bytes": chan["bytes"] / n,
        "runtime.wait_s": row("runtime.wait")["by_role"].get("main", 0.0) / n,
        "runtime.task_s": task["dur_s"] / n,
        "runtime.task_self_s": task["self_s"] / n,
        "runtime.us_per_task": _ratio(task["dur_s"], task["calls"], 1e6),
        "runtime.tasks": _sum(ex, "threads.posted") / n,
        "runtime.stolen": _sum(sc, "threads.stolen") / n,
        "runtime.agg_per_launch": _ratio(_sum(sc, "exec.agg_tasks"),
                                         _sum(sc, "exec.agg_launches")),
        "runtime.gpu_fraction": _ratio(gpu, gpu + cpu),
        "runtime.cpu_overflow": cpu / n,
        "network.send_s": row("network.send")["self_s"] / n,
        "network.remote_msgs": _sum(ex, "halo.remote_msgs") / n,
        "network.remote_bytes": _sum(ex, "halo.remote_bytes") / n,
        "network.local_msgs": _sum(ex, "halo.local_msgs") / n,
        "resilience.ckpt_save_s": row("resilience.ckpt_save")["dur_s"] / n,
        "resilience.ckpt_bytes": _sum(ex, "ckpt.bytes") / n,
        "setup.model_s": setup["model_s"],
        "setup.first_step_s": setup["first_step_s"],
        "trace.overhead_frac": traced_med
        / statistics.median(untraced_walls) - 1.0,
    }
    table = {name: {"calls_per_step": r["calls"] / n,
                    "self_s_per_step": {role: v / n
                                        for role, v in r["by_role"].items()},
                    "dur_s_per_step": r["dur_s"] / n}
             for name, r in sorted(tot.items())}
    return m, table


# -- the run --------------------------------------------------------------------

def check_repeat(out_dir: str, key: str, digest: str,
                 steps: list[dict]) -> list[str]:
    """Compare per-step exact counts with an earlier same-seed run of the
    same sources (common steps only), then store the longer history."""
    path = os.path.join(out_dir, f"counts-{key}.json")
    bad = []
    old = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
        if old.get("digest") != digest:
            old = None
    if old is not None:
        for k, (a, b) in enumerate(zip(old["steps"], steps)):
            if a != b:
                diff = {c: (a.get(c), b.get(c)) for c in set(a) | set(b)
                        if a.get(c) != b.get(c)}
                bad.append(f"step {k} counts differ from an earlier "
                           f"same-seed run: {diff}")
                break
        if len(old["steps"]) > len(steps):
            steps = old["steps"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"digest": digest, "steps": steps}, fh)
    return bad


@dataclass
class _Steps:
    """What the timed loop observed, by step index."""

    walls: dict[int, float] = field(default_factory=dict)
    traced: list[int] = field(default_factory=list)
    exact: dict[int, dict] = field(default_factory=dict)
    sched: dict[int, dict] = field(default_factory=dict)
    attempted: int = 0
    peak_rss_mb: float = 0.0


def _time_steps(w, seconds: float, ledger, violations: list[str]) -> _Steps:
    """Step until ``seconds`` have passed; with a ledger, every second
    step is traced (and at least one of each kind runs)."""
    out = _Steps()
    start = time.perf_counter()
    k = 0
    while not violations:
        traced = ledger is not None and k % 2 == 1
        c0, s0 = w.exact_counts(), w.schedule_counts()
        out.attempted += 1
        try:
            if traced:
                ledger.install()
                ledger.step = k
                ts = time.perf_counter()
                ledger.span("mesh.step", w.op)
            else:
                ts = time.perf_counter()
                w.op()
            out.walls[k] = time.perf_counter() - ts
        except Exception:  # a step that raises is a failed step
            violations.append("step raised:\n" + traceback.format_exc())
            break
        finally:
            if ledger is not None:
                ledger.uninstall()
        out.exact[k] = _delta(w.exact_counts(), c0)
        out.sched[k] = _delta(w.schedule_counts(), s0)
        if traced:
            out.traced.append(k)
        violations += w.step_violations()
        k += 1
        if (time.perf_counter() - start >= seconds
                and (ledger is None or k >= 2)):
            break
    # the program's high-water mark, before the final checks allocate
    out.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _set_up(w) -> dict:
    """Initial model, construction and warm-up step of ``w``, timed."""
    t0 = time.perf_counter()
    model = w.model()
    t1 = time.perf_counter()
    w.build(model)
    del model
    t2 = time.perf_counter()
    w.op()  # recording solve + warm-up
    t3 = time.perf_counter()
    return {"model_s": t1 - t0, "build_s": t2 - t1,
            "first_step_s": t3 - t2, "setup_s": t3 - t0}


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    """Set up, time and check one workload; returns the full record."""
    from ledger import Ledger
    from repro.runtime import default_registry
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    cls = WORKLOADS[workload]
    w = cls(seed, tiny=tiny)
    ledger = Ledger() if trace else None
    violations: list[str] = []
    setup = None
    st = _Steps()
    try:
        setups = []
        for r in range(cls.setup_repeats):
            if r:  # a fresh instance; the last one set up is timed
                w.close()
                w = cls(seed, tiny=tiny)
            default_registry().reset()
            setups.append(_set_up(w))
        # the phases of the median set-up
        setup = sorted(setups, key=lambda s: s["setup_s"])[len(setups) // 2]
        setup["all_setup_s"] = [s["setup_s"] for s in setups]
        violations += w.step_violations()
        st = _time_steps(w, seconds, ledger, violations)
        if not violations:
            violations += w.final_violations()
    except Exception:  # set-up or a check raised: the run failed
        violations.append("run raised:\n" + traceback.format_exc())
    finally:
        w.close()

    digest = source_digest()
    key = f"{workload}-seed{seed}" + ("-tiny" if tiny else "")
    steps = [st.exact[k] for k in sorted(st.exact)]
    if not violations:
        violations += check_repeat(OUT_DIR, key, digest, steps)

    plain = [st.walls[k] for k in sorted(st.walls) if k not in st.traced]
    metrics: dict[str, float] = {}
    ledger_table = None
    if not trace and plain:
        metrics = {
            "subgrids_per_s": len(w.mesh.blocks) * len(plain) / sum(plain),
            "step_s": statistics.median(plain),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": st.peak_rss_mb,
        }
    elif trace and st.traced and plain:
        metrics, ledger_table = per_layer_metrics(ledger, st, plain, setup)
        ledger.export(os.path.join(OUT_DIR, f"trace-{key}.json"))

    correct = not violations
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "tiny": tiny,
        "why": w.why, "isolates": w.isolates,
        "host": host_fingerprint(w.threads),
        "source_digest": digest,
        "setup": setup,
        "step_walls_s": [st.walls[k] for k in sorted(st.walls)],
        "traced_steps": st.traced,
        "tail": tail(plain) if plain else None,
        "exact_counts_per_step": steps,
        "schedule_counts_per_step": [st.sched[k] for k in sorted(st.sched)],
        "drift": w.drift,
        "fmm_error": w.fmm_error,
        "ledger": ledger_table,
        "violations": violations,
        "result": {
            "correct": correct,
            "attempted": max(st.attempted, 1),
            "failed": 0 if correct else max(st.attempted, 1),
            "metrics": {name: {"value": float(v),
                               "unit": (PER_LAYER if trace
                                        else END_TO_END)[name]}
                        for name, v in metrics.items()},
        },
    }
    with open(os.path.join(OUT_DIR, f"record-{key}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    return record


def report(record: dict) -> None:
    """Human-readable lines; the result JSON goes last."""
    res = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {int(record['trace'])}  "
          f"steps {len(record['step_walls_s'])}  "
          f"host {record['host']['nproc']} cores, {record['host']['cpu']}")
    h = record["host"]
    print(f"  host: python {h['python']}, numpy {h['numpy']}, {h['blas']}, "
          f"threads {h['threads']}")
    print(f"  why: {record['why']}")
    for name, m in res["metrics"].items():
        print(f"  {name:34s} {m['value']:16.6g} {m['unit']}")
    if record["tail"]:
        print(f"  step tail: {record['tail']}")
    for v in record["violations"]:
        print(f"  CHECK FAILED: {v}")
    print(json.dumps(res))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (16^3)")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    try:
        import repro.core  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 tiny=args.tiny)
    report(record)
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
