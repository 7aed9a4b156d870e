"""Property-based tests: the plan executor agrees with the direct evaluator.

Two completely independent evaluation paths exist for conjunctive queries —
the backtracking evaluator in :mod:`repro.datalog.evaluation` and the
relational-algebra plan pipeline in :mod:`repro.database.planner`.  On every
randomly generated query and instance they must return exactly the same
answer set; the same must hold end to end for reformulated PDMS queries.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database.planner import compile_query, evaluate_query_via_plan, execute_plan
from repro.datalog.evaluation import evaluate_query
from repro.pdms import evaluate_reformulation, reformulate
from repro.workload import GeneratorParameters, generate_workload, populate_workload

from .strategies import conjunctive_queries, instances

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestPlanExecutorAgreement:
    @given(query=conjunctive_queries(max_body=3), facts=instances())
    @settings(max_examples=100, **COMMON)
    def test_plan_matches_backtracking_evaluator(self, query, facts):
        assert evaluate_query_via_plan(query, facts) == evaluate_query(query, facts)

    @given(query=conjunctive_queries(max_body=3, with_comparisons=True), facts=instances())
    @settings(max_examples=60, **COMMON)
    def test_plan_matches_with_comparisons(self, query, facts):
        assert evaluate_query_via_plan(query, facts) == evaluate_query(query, facts)

    @given(query=conjunctive_queries(max_body=3), facts=instances())
    @settings(max_examples=40, **COMMON)
    def test_plan_arity_and_explain(self, query, facts):
        plan = compile_query(query, facts)
        table = execute_plan(plan, facts)
        assert len(table.columns) == query.arity
        assert "Project" in plan.explain()

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=15, **COMMON)
    def test_engines_agree_on_reformulated_queries(self, seed):
        workload = generate_workload(GeneratorParameters(
            num_peers=9, diameter=3, definitional_ratio=0.25, seed=seed))
        data = populate_workload(workload, rows_per_relation=5, domain_size=3)
        result = reformulate(workload.pdms, workload.query)
        backtracking = evaluate_reformulation(result, data, engine="backtracking")
        shared = evaluate_reformulation(result, data, engine="shared")
        assert backtracking == shared
