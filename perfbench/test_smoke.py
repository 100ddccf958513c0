"""Smoke test of the step benchmark at tiny sizes (16^3, one or two steps).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from ledger import Ledger  # noqa: E402
from run import OUT_DIR, check_repeat  # noqa: E402

WORKLOADS = ("star-32", "blast-32-futurized", "merger-16-dist")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload):
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    counts = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0
        assert res["attempted"] >= 1 + trace
        assert {n: m["unit"] for n, m in res["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[key]}
        assert all(math.isfinite(m["value"]) for m in res["metrics"].values())
        if key == "end_to_end":
            assert all(m["value"] > 0 for m in res["metrics"].values())
        with open(os.path.join(OUT_DIR, f"record-{workload}-seed3-tiny-"
                               f"trace{trace}.json"), encoding="utf-8") as fh:
            counts.append(json.load(fh)["exact_counts_per_step"][0])
    # same seed, same sources: the second run was checked against the
    # first one's per-step counts, and they repeat exactly
    assert counts[0] == counts[1]
    assert os.path.exists(os.path.join(OUT_DIR,
                                       f"trace-{workload}-seed3-tiny.json"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "star-32", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_count_mismatch_is_a_failure(tmp_path):
    steps = [{"fmm.p2p_pairs": 10, "halo.remote_msgs": 4}]
    assert check_repeat(str(tmp_path), "k", "d", steps) == []
    assert check_repeat(str(tmp_path), "k", "d", steps) == []
    assert check_repeat(str(tmp_path), "k", "d",
                        [{"fmm.p2p_pairs": 11, "halo.remote_msgs": 4}])
    # a different source digest starts a fresh history
    assert check_repeat(str(tmp_path), "k", "e",
                        [{"fmm.p2p_pairs": 11, "halo.remote_msgs": 4}]) == []


def test_self_times_add_up_per_thread():
    ledger = Ledger()
    ledger.step = 0

    def leaf():
        sum(range(2000))

    def inner():
        ledger.span("b", leaf)
        ledger.span("b", leaf)

    def worker():
        ledger.span("w", inner)

    def outer():
        inner()
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    ledger.span("top", outer)
    tot = ledger.totals({0})
    top = next(s for s in ledger.spans if s[3] == "top")
    main = sum(r["by_role"].get("main", 0.0) for r in tot.values())
    assert main == pytest.approx(top[6] - top[5], rel=1e-9)
    # the other thread's span is not the main span's child
    assert tot["w"]["by_role"] == {"worker": pytest.approx(tot["w"]["self_s"])}
    assert tot["b"]["calls"] == 4
