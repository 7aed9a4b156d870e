"""Property tests for the shared union-plan engine (ISSUE 3).

The central invariant, over random small PDMSs from
:mod:`tests.property.strategies`:

    ``backtracking`` ≡ ``shared`` (sequential, thread-parallel, and on
    the pure-Python kernels)

i.e. compiling the union of rewritings into a common-subplan DAG — and
evaluating its fragments on a thread pool — never changes the answer set,
and the federated :class:`~repro.pdms.execution.PeerFactSource` is
indistinguishable from the combine-then-evaluate path.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import columnar
from repro.pdms import (
    PeerFactSource,
    combine_peer_instances,
    compile_reformulation,
    evaluate_plan,
    evaluate_reformulation,
    reformulate,
)

from .strategies import pdms_specs
from .test_service_properties import build_pdms

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestEngineEquivalence:
    @given(spec=pdms_specs())
    @settings(max_examples=40, **COMMON)
    def test_engines_agree(self, spec):
        pdms, data, queries = build_pdms(spec)
        combined = combine_peer_instances(data)
        for query in queries:
            result = reformulate(pdms, query)
            backtracking = evaluate_reformulation(
                result, combined, engine="backtracking")
            assert evaluate_reformulation(
                result, combined, engine="shared") == backtracking

    @given(spec=pdms_specs())
    @settings(max_examples=25, **COMMON)
    def test_parallel_plan_execution_agrees_with_sequential(self, spec):
        pdms, data, queries = build_pdms(spec)
        combined = combine_peer_instances(data)
        for query in queries:
            result = reformulate(pdms, query)
            plan = compile_reformulation(result, combined)
            sequential = evaluate_plan(plan, combined)
            parallel = evaluate_plan(plan, combined, max_workers=2)
            assert parallel == sequential

    @given(spec=pdms_specs())
    @settings(max_examples=25, **COMMON)
    def test_list_backed_fragments_agree_with_backtracking(self, spec):
        """With NumPy absent every fragment is a list-backed
        ``ColumnTable``; the answers must not change."""
        pdms, data, queries = build_pdms(spec)
        combined = combine_peer_instances(data)
        for query in queries:
            result = reformulate(pdms, query)
            backtracking = evaluate_reformulation(
                result, combined, engine="backtracking")
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(columnar, "np", None)
                plan = compile_reformulation(result, combined)
                assert evaluate_plan(plan, combined) == backtracking

    @given(spec=pdms_specs())
    @settings(max_examples=25, **COMMON)
    def test_federated_source_matches_combined_copy(self, spec):
        pdms, data, queries = build_pdms(spec)
        combined = combine_peer_instances(data)
        federated = PeerFactSource(data)
        for query in queries:
            result = reformulate(pdms, query)
            for engine in ("backtracking", "shared"):
                assert evaluate_reformulation(result, federated, engine=engine) == \
                    evaluate_reformulation(result, combined, engine=engine)

    @given(spec=pdms_specs(), limit=st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, **COMMON)
    def test_shared_engine_limits_are_subsets(self, spec, limit):
        pdms, data, queries = build_pdms(spec)
        federated = PeerFactSource(data)
        for query in queries:
            result = reformulate(pdms, query)
            full = evaluate_reformulation(result, federated, engine="shared")
            limited = evaluate_reformulation(
                result, federated, engine="shared", limit=limit)
            assert limited <= full
            assert len(limited) == min(limit, len(full))
