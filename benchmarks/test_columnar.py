"""Columnar batch-execution benchmarks (ISSUE 6).

Backs the acceptance criteria:

* the vectorized equi-join / fused-select kernels are at least 5× faster
  than the row algebra on a large join whose inputs are already columnar
  (asserted only when NumPy is installed — the pure-Python fallback is a
  compatibility path, not a fast path);
* with 4 workers, thread-pooled fragment evaluation over columnar
  batches reaches ≥ 2× over sequential — the NumPy kernels release the
  GIL, which is exactly the ceiling the old row engine could not break.
  The assertion is gated on ``os.cpu_count() >= 4``; on smaller machines
  the honest numbers are still recorded.

``BENCH_columnar.json`` is written next to this file when
``EVAL_BENCH_RECORD=1``; ``EVAL_BENCH_QUICK=1`` shrinks the workloads.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.database import HAVE_NUMPY, ColumnTable, Table
from repro.datalog import parse_query
from repro.pdms import (
    PDMS,
    StorageDescription,
    compile_reformulation,
    evaluate_plan,
    reformulate,
)

QUICK = os.environ.get("EVAL_BENCH_QUICK") == "1"

#: Rows per side of the kernel microbenchmark join.
KERNEL_ROWS = 30000 if QUICK else 200000
#: Join-key domain for the microbenchmark (dense enough for ~1 match/row).
KERNEL_DOMAIN = 30000 if QUICK else 200000
#: Storage alternatives per subgoal in the parallel workload (branches =
#: ALTERNATIVES², each an independent join fragment).
ALTERNATIVES = 3 if QUICK else 4
#: Rows per stored relation in the parallel workload.
BRANCH_ROWS = 6000 if QUICK else 30000


def _best_seconds(callable_: Callable[[], object], rounds: int) -> float:
    """Best-of-N timing — robust to scheduler noise, used for assertions."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def baseline_recorder():
    """Collect per-case numbers; write BENCH_columnar.json when asked to."""
    results: Dict[str, Dict[str, float]] = {}
    yield results
    if os.environ.get("EVAL_BENCH_RECORD") != "1":
        return
    path = Path(__file__).resolve().parent / "BENCH_columnar.json"
    path.write_text(
        json.dumps(
            {"quick_mode": QUICK, "numpy": HAVE_NUMPY, "cases": results},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def test_kernels_beat_row_algebra(baseline_recorder):
    """Acceptance gate: ≥ 5× on a large equi-join, inputs already columnar."""
    rng = random.Random(3)
    left_rows = {
        (rng.randrange(KERNEL_DOMAIN), rng.randrange(64))
        for _ in range(KERNEL_ROWS)
    }
    right_rows = {
        (rng.randrange(KERNEL_DOMAIN), rng.randrange(64))
        for _ in range(KERNEL_ROWS)
    }
    left = Table(("k", "a"), left_rows)
    right = Table(("k", "b"), right_rows)
    left_ct = ColumnTable.from_table(left)
    right_ct = ColumnTable.from_table(right)

    expected = left.natural_join(right)
    joined = left_ct.natural_join(right_ct)
    assert joined.row_set() == set(expected.rows)

    rounds = 3 if QUICK else 5
    row_join = _best_seconds(lambda: left.natural_join(right), rounds)
    kernel_join = _best_seconds(
        lambda: left_ct.natural_join(right_ct), rounds)
    join_speedup = row_join / kernel_join

    # Fused select: constant filter + column equality, one pass.
    wide = Table(
        ("x", "y", "z"),
        {(rng.randrange(64), rng.randrange(64), rng.randrange(64))
         for _ in range(KERNEL_ROWS)},
    )
    wide_ct = ColumnTable.from_table(wide)
    assert wide_ct.fused_select(
        const_filters=[(0, 7)], equal_pairs=[(1, 2)]
    ).row_set() == set(wide.select_eq("x", 7).select_columns_equal("y", "z").rows)
    row_select = _best_seconds(
        lambda: wide.select_eq("x", 7).select_columns_equal("y", "z"), rounds)
    kernel_select = _best_seconds(
        lambda: wide_ct.fused_select(const_filters=[(0, 7)],
                                     equal_pairs=[(1, 2)]),
        rounds,
    )
    select_speedup = row_select / kernel_select

    baseline_recorder["kernel_vs_row"] = {
        "rows_per_side": float(KERNEL_ROWS),
        "join_result_rows": float(len(joined)),
        "row_join_seconds": row_join,
        "kernel_join_seconds": kernel_join,
        "join_speedup": join_speedup,
        "row_select_seconds": row_select,
        "kernel_select_seconds": kernel_select,
        "fused_select_speedup": select_speedup,
    }
    if HAVE_NUMPY:
        assert join_speedup >= 5.0, (
            f"join kernel only {join_speedup:.1f}x faster than the row "
            f"algebra ({kernel_join * 1e3:.1f} ms vs {row_join * 1e3:.1f} ms)"
        )


def _branchy_workload():
    """``Q :- A, B`` with ``ALTERNATIVES`` storage descriptions per
    subgoal: ALTERNATIVES² rewritings, every one an *independent* join of
    two big stored relations — no sharing, so the thread pool has that
    many coarse fragments to spread across cores."""
    pdms = PDMS()
    peer = pdms.add_peer("P")
    peer.add_relation("A", ["x", "y"])
    peer.add_relation("B", ["x", "y"])
    rng = random.Random(17)
    data = {}
    for i in range(ALTERNATIVES):
        pdms.add_storage_description(StorageDescription(
            "P", f"s_a{i}", parse_query("V(x, y) :- P:A(x, y)")))
        pdms.add_storage_description(StorageDescription(
            "P", f"s_b{i}", parse_query("V(x, y) :- P:B(x, y)")))
        data[f"s_a{i}"] = {
            (rng.randrange(BRANCH_ROWS), rng.randrange(BRANCH_ROWS))
            for _ in range(BRANCH_ROWS)
        }
        data[f"s_b{i}"] = {
            (rng.randrange(BRANCH_ROWS), rng.randrange(BRANCH_ROWS))
            for _ in range(BRANCH_ROWS)
        }
    query = parse_query("Q(x0, x2) :- P:A(x0, x1), P:B(x1, x2)")
    return pdms, query, data


def test_parallel_speedup_over_columnar_fragments(baseline_recorder):
    """Acceptance gate: ≥ 2× with 4 workers (asserted on ≥ 4-core hosts)."""
    pdms, query, data = _branchy_workload()
    result = reformulate(pdms, query)
    plan = compile_reformulation(result, data)

    sequential_answers = evaluate_plan(plan, data)
    assert evaluate_plan(plan, data, max_workers=4) == sequential_answers

    rounds = 3 if QUICK else 5
    sequential = _best_seconds(lambda: evaluate_plan(plan, data), rounds)
    threaded = _best_seconds(
        lambda: evaluate_plan(plan, data, max_workers=4), rounds)
    thread_speedup = sequential / threaded
    cpus = float(os.cpu_count() or 1)

    baseline_recorder["parallel"] = {
        "cpu_count": cpus,
        "branches": float(ALTERNATIVES * ALTERNATIVES),
        "rows_per_relation": float(BRANCH_ROWS),
        "sequential_seconds": sequential,
        "thread_seconds_4_workers": threaded,
        "thread_speedup_4_workers": thread_speedup,
        "answers": float(len(sequential_answers)),
    }
    if HAVE_NUMPY and (os.cpu_count() or 1) >= 4:
        assert thread_speedup >= 2.0, (
            f"4 workers only {thread_speedup:.2f}x over sequential on a "
            f"{cpus:.0f}-core host"
        )

