"""Fast self-tests of the serving benchmark (no workload is run here)."""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for entry in (HERE, HERE.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import run  # noqa: E402
from reference import ReferenceAnswers, answer_digest, bind_atom  # noqa: E402
from serving import LayerTimes, Record, union_ms  # noqa: E402
from stats import percentile, samples_needed  # noqa: E402
from workloads import (  # noqa: E402
    Op,
    WorkloadShape,
    build_system,
    operations,
    quotas,
    zipf_weights,
)
from repro.datalog.atoms import Atom  # noqa: E402
from repro.datalog.queries import ConjunctiveQuery  # noqa: E402
from repro.datalog.terms import Constant, Variable  # noqa: E402
from repro.pdms import PeerFactSource, evaluate_reformulation, reformulate  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = WorkloadShape(rows_per_relation=6, domain=12, pool_size=4, write_share=0.3, catalogue_share=0.1)


def _stream(seed, name, client=0, count=150, part=0):
    shape = run.shape_of(run.WORKLOADS[name])
    system = build_system(seed, shape)
    ops = itertools.islice(operations(seed, system, shape, client, part, run.WORKLOADS[name].parts), count)
    return [(op.kind, op.query_id, str(op.query), op.peer, op.relation, op.row, op.mapping) for op in ops]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_seed_gives_identical_operation_stream(name):
    assert _stream(7, name) == _stream(7, name)
    if name != "cold-reformulate":  # cold reads walk the fixed query order
        assert _stream(7, name) != _stream(8, name)


def test_clients_draw_distinct_streams():
    assert _stream(3, "cluster-socket", client=0) != _stream(3, "cluster-socket", client=1)


def test_cold_reads_are_all_distinct_across_parts_and_alternate_limits():
    parts = run.WORKLOADS["cold-reformulate"].parts
    ops = [op for part in range(parts) for op in _stream(5, "cold-reformulate", count=200, part=part)]
    assert len({query for _, _, query, *_ in ops}) == len(ops)
    assert len({query_id for _, query_id, *_ in ops}) == len(ops)
    assert [kind for kind, *_ in ops[:4]] == ["answer", "first10", "answer", "first10"]


def test_warm_mix_blocks_hold_the_exact_operation_shares():
    spec = run.WORKLOADS["warm-mix"]
    ops = _stream(5, "warm-mix", count=300)
    for block in range(3):
        kinds = [kind for kind, *_ in ops[block * 100:(block + 1) * 100]]
        assert kinds.count("write") == round(100 * spec.write_share)
        assert kinds.count("catalogue") == round(100 * spec.catalogue_share)
        reads = [query_id for kind, query_id, *_ in ops[block * 100:(block + 1) * 100] if kind == "answer"]
        assert [reads.count(q) for q in range(spec.pool_size)] == quotas(zipf_weights(spec.pool_size), len(reads))


def test_quotas_split_exactly_and_proportionally():
    assert quotas([1.0, 1.0, 2.0], 8) == [2, 2, 4]
    counts = quotas(zipf_weights(16), 87)
    assert sum(counts) == 87 and counts == sorted(counts, reverse=True) and counts[-1] >= 1


def test_metric_names_and_units_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [s.why for s in run.WORKLOADS.values()]


def _record(kind, ms, start=0.0):
    return Record(Op(kind, 0), 0, 0, start, start + ms / 1000.0, answer=frozenset())


def test_end_to_end_metrics_are_exactly_the_declared_ones():
    values = run.end_to_end([float(i + 1) for i in range(100)], 10.0, 1.5, 100.0)
    assert list(values) == [name for name, _ in run.END_TO_END]
    assert all(value > 0 for value in values.values())


def test_end_to_end_refuses_an_undersampled_p90():
    with pytest.raises(RuntimeError, match="too few samples"):
        run.end_to_end([1.0] * 99, 10.0, 1.5, 100.0)


def test_merged_layers_add_event_counts_and_average_the_rest():
    parts = [{"layers": {name: float(k + 1) for name, _ in run.PER_LAYER}} for k in range(2)]
    merged = run.merge_layers(parts)
    assert merged["fragment_cache.invalidations"] == 3.0
    assert merged["planning.compile_ms"] == 1.5
    assert set(merged) == {name for name, _ in run.PER_LAYER}


def test_parts_get_distinct_reproducible_hash_seeds():
    seeds = [run.hash_seed(4, part) for part in range(6)]
    assert len(set(seeds)) == 6
    assert seeds == [run.hash_seed(4, part) for part in range(6)]
    assert seeds != [run.hash_seed(5, part) for part in range(6)]
    assert all(0 <= seed < 2**32 for seed in seeds)


def test_per_layer_metrics_are_exactly_the_declared_ones():
    counters = {
        key: 0 for key in (
            "service.hits", "service.misses", "service.invalidations", "service.plans_compiled",
            "fragment.hits", "fragment.misses", "fragment.invalidations", "fragment.evictions",
            "fragment.rejections", "fragment.bytes",
        )
    }
    records = [_record("answer", 2.0)]
    values = run.per_layer(records, records, LayerTimes(), counters, counters, None)
    assert sorted(values) == sorted(name for name, _ in run.PER_LAYER)


@pytest.mark.parametrize("fraction", [0.5, 0.9, 0.99])
def test_percentile_needs_ten_samples_beyond_it(fraction):
    need = samples_needed(fraction)
    assert need == {0.5: 20, 0.9: 100, 0.99: 1000}[fraction]
    assert percentile([float(i) for i in range(need - 1)], fraction) is None
    samples = [float(i) for i in range(need)]
    value = percentile(samples, fraction)
    assert sum(1 for s in samples if s > value) == 10


def test_refuses_repro_knobs():
    with pytest.raises(run.UsageError, match="REPRO_TRACE"):
        run.check_environment({"REPRO_TRACE": "1", "PATH": "/bin"})
    run.check_environment({"PATH": "/bin"})


def test_union_ms_merges_overlaps_and_clips():
    assert union_ms([(0.0, 0.002), (0.001, 0.003), (0.010, 0.020)], 0.0, 0.015) == pytest.approx(8.0)


def test_bind_atom_respects_constants_and_repeated_variables():
    x, y = Variable("x"), Variable("y")
    rewriting = ConjunctiveQuery(Atom("Q", [x, y]), [Atom("S", [x, x]), Atom("T", [Constant(5), y])])
    assert bind_atom(rewriting, 0, (1, 2)) is None
    assert str(bind_atom(rewriting, 0, (3, 3)).head) == "Q(3, y)"
    assert bind_atom(rewriting, 1, (4, 1)) is None
    assert str(bind_atom(rewriting, 1, (5, 1)).head) == "Q(x, 1)"


def test_incremental_reference_equals_from_scratch_evaluation():
    system = build_system(11, TINY)
    queries = list(itertools.islice(
        (op for op in operations(11, system, TINY) if op.kind == "answer"), 40))
    queries = list({op.query_id: op.query for op in queries}.items())[:2]
    reference = ReferenceAnswers(system.pdms, system.data)
    for query_id, query in queries:
        reference.add_query(query_id, query)
    writes = [op for op in itertools.islice(operations(11, system, TINY), 200) if op.kind == "write"][:15]
    for op in writes:
        reference.insert(op.peer, op.relation, op.row)
    fresh = build_system(11, TINY)
    for op in writes:
        fresh.data[op.peer].add(op.relation, op.row)
    for query_id, query in queries:
        expected = evaluate_reformulation(
            reformulate(fresh.pdms, query), PeerFactSource(fresh.data), engine="backtracking"
        )
        assert reference.rows_after(query_id, len(writes)) == expected
        assert reference.check(query_id, expected, len(writes), len(writes))
        assert reference.digest_after(query_id, len(writes)) == answer_digest(expected)
        assert not reference.check(query_id, expected | {("x", "y")}, len(writes), len(writes))
