"""Logical query plans: compile conjunctive queries to relational algebra.

The paper stops at reformulation ("The precise method of evaluating Q'
is beyond the scope of this paper"), but a usable library needs to run the
reformulated union of conjunctive queries.  Besides the backtracking
evaluator in :mod:`repro.datalog.evaluation`, this module provides the
path a database system would take:

1. compile each conjunctive query into a *logical plan* over the
   relational-algebra operators of :mod:`repro.database.algebra`
   (scan → select → join → project), with

   * selections pushed onto scans (constants and repeated variables in an
     atom become per-scan filters),
   * a greedy join order chosen by estimated cardinality (smallest input
     first, preferring joins that share variables), and
   * comparison predicates applied as soon as their variables are bound;

2. execute the plan bottom-up over an :class:`~repro.database.instance.Instance`
   (or any fact source), producing a :class:`~repro.database.algebra.Table`.

The two evaluation paths are cross-checked against each other in the test
suite, which is the point of having both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..datalog.atoms import Atom, ComparisonAtom, compare_values
from ..datalog.evaluation import FactsLike, as_fact_source
from ..datalog.queries import ConjunctiveQuery, UnionQuery
from ..datalog.terms import Constant, Term, Variable, is_variable
from ..errors import EvaluationError
from .algebra import Table, union_many
from .columnar import (
    ColumnTable,
    compare_cols_mask,
    compare_mask,
    const_column,
    union_distinct,
)
from .columnar import _mask_and as _combine_masks
from .feedback import QErrorLog
from .statistics import (
    StatisticsCatalog,
    WeakStatisticsCatalog,
    shared_statistics,
    source_data_version,
)

Row = Tuple[object, ...]


# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanNode:
    """Base class of logical plan operators."""

    def children(self) -> Tuple["PlanNode", ...]:
        """Child operators (empty for leaves)."""
        return ()

    def output_columns(self) -> Tuple[str, ...]:
        """Column names produced by this operator."""
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        """An indented, human-readable rendering of the plan."""
        line = "  " * indent + self.describe()
        return "\n".join([line] + [child.explain(indent + 1) for child in self.children()])

    def describe(self) -> str:
        """One-line description of this operator."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScanNode(PlanNode):
    """Scan one stored relation, binding its columns to variable names.

    ``columns`` holds one name per relation position: variable names where
    the atom had variables, synthetic ``_pos<i>`` names elsewhere.
    ``filters`` are (position, constant) equality filters from constants in
    the atom; ``equal_positions`` are pairs of positions that must be equal
    (repeated variables in the atom).
    """

    relation: str
    columns: Tuple[str, ...]
    filters: Tuple[Tuple[int, object], ...] = ()
    equal_positions: Tuple[Tuple[int, int], ...] = ()

    def output_columns(self) -> Tuple[str, ...]:
        # Positions carrying constants or duplicate variables are projected
        # away right after the scan; only the first occurrence of each
        # variable column survives.
        seen: List[str] = []
        for name in self.columns:
            if not name.startswith("_pos") and name not in seen:
                seen.append(name)
        return tuple(seen)

    def describe(self) -> str:
        parts = [f"Scan({self.relation})"]
        if self.filters:
            rendered = ", ".join(f"#{i}={value!r}" for i, value in self.filters)
            parts.append(f"filter[{rendered}]")
        if self.equal_positions:
            rendered = ", ".join(f"#{i}=#{j}" for i, j in self.equal_positions)
            parts.append(f"equal[{rendered}]")
        return " ".join(parts)


@dataclass(frozen=True)
class SelectNode(PlanNode):
    """Apply comparison predicates to the child's rows."""

    child: PlanNode
    comparisons: Tuple[ComparisonAtom, ...]

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def output_columns(self) -> Tuple[str, ...]:
        return self.child.output_columns()

    def describe(self) -> str:
        rendered = ", ".join(str(c) for c in self.comparisons)
        return f"Select({rendered})"


@dataclass(frozen=True)
class JoinNode(PlanNode):
    """Natural join of two subplans on their shared variable columns."""

    left: PlanNode
    right: PlanNode

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def output_columns(self) -> Tuple[str, ...]:
        left_columns = self.left.output_columns()
        right_columns = self.right.output_columns()
        return left_columns + tuple(c for c in right_columns if c not in left_columns)

    def describe(self) -> str:
        shared = set(self.left.output_columns()) & set(self.right.output_columns())
        rendered = ", ".join(sorted(shared)) if shared else "×"
        return f"Join({rendered})"


@dataclass(frozen=True)
class ProjectNode(PlanNode):
    """Project the child onto the query's head, in head order.

    ``head`` may contain constants (e.g. a reformulation head
    ``Q(pid, "Doctor")``); those positions are emitted as constant columns.
    """

    child: PlanNode
    head: Tuple[Term, ...]

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def output_columns(self) -> Tuple[str, ...]:
        names: List[str] = []
        seen: Dict[str, int] = {}
        for index, term in enumerate(self.head):
            base = term.name if is_variable(term) else f"_const{index}"
            count = seen.get(base, 0)
            names.append(base if count == 0 else f"{base}#{count}")
            seen[base] = count + 1
        return tuple(names)

    def describe(self) -> str:
        rendered = ", ".join(str(t) for t in self.head)
        return f"Project({rendered})"


@dataclass(frozen=True)
class UnionNode(PlanNode):
    """Set union of the sub-plans of a union of conjunctive queries."""

    branches: Tuple[PlanNode, ...]
    arity: int

    def children(self) -> Tuple[PlanNode, ...]:
        return self.branches

    def output_columns(self) -> Tuple[str, ...]:
        if self.branches:
            return self.branches[0].output_columns()
        return tuple(f"c{i}" for i in range(self.arity))

    def describe(self) -> str:
        return f"Union({len(self.branches)} branches)"


@dataclass(frozen=True)
class DistinctNode(PlanNode):
    """Explicit duplicate elimination over the child's rows.

    Tables are set-semantics, so execution is the identity — the node marks
    the dedup point of a plan (e.g. the root of a union of rewritings)
    explicitly instead of leaving it implicit in the representation.
    """

    child: PlanNode

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def output_columns(self) -> Tuple[str, ...]:
        return self.child.output_columns()

    def describe(self) -> str:
        return "Distinct()"


@dataclass(frozen=True)
class MaterializeNode(PlanNode):
    """Evaluate the child once per execution and reuse the result.

    Executions that thread a shared *memo* dictionary through
    :func:`execute_plan` compute the child the first time any materialize
    node with this ``key`` is reached and serve every later occurrence from
    the memo — the mechanism behind common-subplan reuse in union plans.
    Without a memo the node is transparent.  Keys encode plan structure
    only, not data identity: a memo must never outlive its fact source
    (use one per evaluation over one unchanged source).
    """

    child: PlanNode
    key: str

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def output_columns(self) -> Tuple[str, ...]:
        return self.child.output_columns()

    def describe(self) -> str:
        return f"Materialize({self.key})"


@dataclass(frozen=True)
class EmptyNode(PlanNode):
    """A plan producing no rows (e.g. an empty union)."""

    arity: int

    def output_columns(self) -> Tuple[str, ...]:
        return tuple(f"c{i}" for i in range(self.arity))

    def describe(self) -> str:
        return "Empty()"


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

class CardinalityCostModel:
    """Relation statistics of one fact source, packaged for planning.

    Backed by a :class:`~repro.database.statistics.StatisticsCatalog`:
    besides per-relation cardinalities, the model now knows per-column
    distinct counts, so a pushed-down constant filter is priced at its
    real point selectivity (``cardinality / distinct``) and a
    repeated-variable or join equality at ``1 / max(d_i, d_j)`` — instead
    of the old fixed shrink-one-notch-per-restriction heuristic (which
    survives as the fallback when no statistics are available).  Stats
    are version-validated against the source's per-relation data
    versions, so repeated compilations over slowly changing data rescan
    only the relations that moved.
    """

    __slots__ = ("_statistics",)

    def __init__(
        self,
        facts: Optional[FactsLike] = None,
        statistics: Optional[StatisticsCatalog] = None,
    ):
        if statistics is not None:
            self._statistics = statistics
        elif facts is not None:
            # The catalog is shared per source (and version-validated), so
            # per-call model construction costs no rescans.
            self._statistics = shared_statistics(as_fact_source(facts))
        else:
            self._statistics = StatisticsCatalog(None)

    @property
    def statistics(self) -> StatisticsCatalog:
        """The backing statistics catalog."""
        return self._statistics

    @classmethod
    def snapshot(cls, facts: FactsLike) -> "CardinalityCostModel":
        """A cost model that captures statistics eagerly and then drops
        its reference to the data.

        Safe to keep on long-lived compiled plans: a model built this way
        never retains the fact source (which may hold a removed peer's
        instance or a one-off data override).  Requires a source whose
        relations can be enumerated (a mapping, or anything with a
        ``relations()`` method — instances and federated sources both
        qualify); other sources fall back to whatever was cached.
        """
        model = cls(facts)
        # Detach via a copy: the live catalog is shared across models of
        # this source and must keep revalidating for them.
        model._statistics = model._statistics.frozen_copy()
        return model

    @classmethod
    def pinless(cls, facts: FactsLike) -> "CardinalityCostModel":
        """A model that never pins (and never eagerly scans) the source.

        Statistics are read lazily through the source's shared catalog
        via a weak reference — full fidelity while the source lives, a
        frozen view of whatever was observed once it is dropped.  This is
        what long-lived compiled plans hold: unlike :meth:`snapshot` it
        costs nothing up front, and unlike a live model it cannot keep a
        removed peer's data in memory.

        Plain mappings are the exception: ``as_fact_source`` adapts them
        into a throwaway object that would die under a weak reference
        before any stats read, so they are captured eagerly instead —
        the adapter already copied every row at construction, making one
        stats pass the same order of work.
        """
        source = as_fact_source(facts)
        if source is not facts:
            return cls(statistics=shared_statistics(source).frozen_copy())
        return cls(statistics=WeakStatisticsCatalog(source))

    def cardinality(self, relation: str) -> int:
        """Row count of ``relation`` (0 without a source or for unknown names)."""
        return self._statistics.cardinality(relation)

    def column_distinct(self, relation: str, position: int) -> int:
        """Distinct values at one column position (>= 1)."""
        return self._statistics.column_distinct(relation, position)

    def live_source(self) -> Optional[object]:
        """The statistics catalog's live source, if it is still alive.

        ``None`` for frozen/snapshot models — consumers that need current
        data-version tokens (cardinality-feedback corrections) then simply
        stand down.
        """
        return self._statistics.live_source()

    def scan_estimate(self, relation: str, filters: int = 0, equalities: int = 0) -> int:
        """Positionless estimate: the legacy shrink-per-restriction heuristic.

        Kept for callers that only know *how many* restrictions a scan
        carries; :meth:`restriction_estimate` prices known positions with
        real selectivities.  Non-empty relations floor at 1 — like
        :meth:`restriction_estimate` — so a heavily restricted scan of a
        populated relation never ties with a genuinely empty one and
        misorders the join greedily built on these numbers.
        """
        cardinality = self.cardinality(relation)
        if cardinality <= 0:
            return 0
        return max(cardinality // (1 + filters + equalities), 1)

    def restriction_estimate(
        self,
        relation: str,
        constant_positions: Sequence[int] = (),
        equal_position_pairs: Sequence[Tuple[int, int]] = (),
    ) -> int:
        """Estimated output rows of a scan restricted at known positions."""
        if not constant_positions and not equal_position_pairs:
            # Unrestricted scans need only the cardinality, which the
            # catalog serves in O(1) — don't force a distinct-count scan.
            return self._statistics.cardinality(relation)
        stats = self._statistics.stats(relation)
        estimate = float(stats.cardinality)
        if estimate <= 0:
            return 0
        for position in constant_positions:
            estimate /= stats.distinct_at(position)
        for first, second in equal_position_pairs:
            estimate /= max(stats.distinct_at(first), stats.distinct_at(second))
        return max(int(estimate), 1) if estimate > 0 else 0

    def atom_estimate(self, atom: Atom) -> int:
        """Estimated rows produced by scanning for one relational atom."""
        constant_positions: List[int] = []
        equal_pairs: List[Tuple[int, int]] = []
        first_position: Dict[Variable, int] = {}
        for position, arg in enumerate(atom.args):
            if is_variable(arg):
                earlier = first_position.get(arg)
                if earlier is None:
                    first_position[arg] = position
                else:
                    equal_pairs.append((earlier, position))
            else:
                constant_positions.append(position)
        return self.restriction_estimate(
            atom.predicate, constant_positions, equal_pairs
        )


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def _scan_for_atom(atom: Atom) -> ScanNode:
    """Build the scan (plus pushed-down filters) for one relational atom."""
    columns: List[str] = []
    filters: List[Tuple[int, object]] = []
    equal_positions: List[Tuple[int, int]] = []
    first_position: Dict[Variable, int] = {}
    for position, arg in enumerate(atom.args):
        if is_variable(arg):
            if arg in first_position:
                equal_positions.append((first_position[arg], position))
                columns.append(f"_pos{position}")
            else:
                first_position[arg] = position
                columns.append(arg.name)
        else:
            assert isinstance(arg, Constant)
            filters.append((position, arg.value))
            columns.append(f"_pos{position}")
    return ScanNode(
        relation=atom.predicate,
        columns=tuple(columns),
        filters=tuple(filters),
        equal_positions=tuple(equal_positions),
    )


def _estimate(node: PlanNode, cost: CardinalityCostModel) -> int:
    """A cardinality estimate used to pick join order and join build side."""
    if isinstance(node, ScanNode):
        return cost.restriction_estimate(
            node.relation,
            tuple(position for position, _ in node.filters),
            node.equal_positions,
        )
    if isinstance(node, JoinNode):
        return _estimate(node.left, cost) * max(_estimate(node.right, cost), 1)
    if isinstance(node, (SelectNode, ProjectNode, DistinctNode, MaterializeNode)):
        return _estimate(node.children()[0], cost)
    if isinstance(node, UnionNode):
        return sum(_estimate(branch, cost) for branch in node.branches)
    return 1


def _as_cost_model(
    facts: Optional[FactsLike], cost: Optional[CardinalityCostModel]
) -> Optional[CardinalityCostModel]:
    if cost is not None:
        return cost
    if facts is not None:
        return CardinalityCostModel(facts)
    return None


def compile_query(
    query: ConjunctiveQuery,
    facts: Optional[FactsLike] = None,
    cost: Optional[CardinalityCostModel] = None,
) -> PlanNode:
    """Compile one conjunctive query into a logical plan.

    ``facts`` (or an explicit, reusable ``cost`` model) is optional and
    only used for join-order estimates; without either the body order of
    the query is kept (still correct, possibly slower).
    """
    relational = query.relational_body()
    if not relational:
        raise EvaluationError("cannot compile a query with no relational atoms")
    cost = _as_cost_model(facts, cost)

    scans = [_scan_for_atom(atom) for atom in relational]

    # Greedy join ordering: start from the smallest estimated scan, then
    # repeatedly add the scan that shares variables with the current plan
    # (preferring the smallest), falling back to a cross product only when
    # nothing is connected.
    if cost is not None:
        remaining = sorted(scans, key=lambda scan: _estimate(scan, cost))
    else:
        remaining = list(scans)
    plan: PlanNode = remaining.pop(0)
    bound: Set[str] = set(plan.output_columns())
    while remaining:
        connected = [s for s in remaining if set(s.output_columns()) & bound]
        candidates = connected or remaining
        if cost is not None:
            nxt = min(candidates, key=lambda scan: _estimate(scan, cost))
        else:
            nxt = candidates[0]
        remaining.remove(nxt)
        plan = JoinNode(plan, nxt)
        bound |= set(nxt.output_columns())

    comparisons = tuple(query.comparison_body())
    if comparisons:
        plan = SelectNode(plan, comparisons)
    return ProjectNode(plan, tuple(query.head.args))


def compile_union(
    union: UnionQuery,
    facts: Optional[FactsLike] = None,
    cost: Optional[CardinalityCostModel] = None,
    share_common: bool = False,
) -> PlanNode:
    """Compile a union of conjunctive queries into a single plan.

    With ``share_common``, structurally identical branch subplans are
    wrapped in :class:`MaterializeNode` operators sharing one key, so an
    execution that threads a memo dictionary evaluates each distinct
    branch once; the union root is wrapped in an explicit
    :class:`DistinctNode`.  (The richer cross-rewriting sharing — common
    sub-*conjunctions*, not just whole branches — lives in
    :mod:`repro.pdms.planning`.)
    """
    if union.is_empty():
        return EmptyNode(union.arity)
    cost = _as_cost_model(facts, cost)
    branches = tuple(compile_query(disjunct, cost=cost) for disjunct in union)
    if share_common:
        consed: Dict[PlanNode, MaterializeNode] = {}
        shared = []
        for branch in branches:
            node = consed.get(branch)
            if node is None:
                # The key is the branch's full structural rendering, so a
                # memo dictionary shared across execute_plan calls over the
                # same data — even for different compiled plans — only ever
                # reuses a table for a structurally identical subplan.
                node = MaterializeNode(branch, key=repr(branch))
                consed[branch] = node
            shared.append(node)
        return DistinctNode(UnionNode(tuple(shared), union.arity))
    return UnionNode(branches, union.arity)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _scan_projection(node: ScanNode) -> Tuple[List[int], List[str]]:
    """Positions and names of the scan columns that survive projection
    (first occurrence of each variable column)."""
    keep_positions: List[int] = []
    keep_names: List[str] = []
    for position, name in enumerate(node.columns):
        if not name.startswith("_pos") and name not in keep_names:
            keep_positions.append(position)
            keep_names.append(name)
    return keep_positions, keep_names


def _scan_rows(node: ScanNode, facts) -> List[Row]:
    rows = list(facts.get_tuples(node.relation))
    width = len(node.columns)
    for row in rows:
        if len(row) != width:
            raise EvaluationError(
                f"arity mismatch scanning {node.relation}: row width {len(row)} "
                f"vs {width} plan columns"
            )
    return rows


def _execute_scan(node: ScanNode, facts) -> Table:
    rows = []
    for row in _scan_rows(node, facts):
        if any(row[position] != value for position, value in node.filters):
            continue
        if any(row[i] != row[j] for i, j in node.equal_positions):
            continue
        rows.append(row)
    table = Table([f"__c{i}" for i in range(len(node.columns))], rows)
    keep_positions, keep_names = _scan_projection(node)
    projected = table.project([f"__c{i}" for i in keep_positions])
    return projected.rename(dict(zip(projected.columns, keep_names)))


def _node_relations(node: PlanNode) -> FrozenSet[str]:
    """The stored relations a plan subtree scans (its version footprint)."""
    if isinstance(node, ScanNode):
        return frozenset((node.relation,))
    out: Set[str] = set()
    for child in node.children():
        out |= _node_relations(child)
    return frozenset(out)


def _relations_token(source, relations: Iterable[str]) -> Optional[object]:
    """One composite data-version token over ``relations`` (None if any
    relation is unversioned) — the same shape
    :func:`repro.pdms.materialization.data_version_token` produces."""
    parts = []
    for relation in sorted(relations):
        version = source_data_version(source, relation)
        if version is None:
            return None
        parts.append((relation, version))
    return tuple(parts)


def _plan_recorder(feedback: QErrorLog, source, cost: Optional[CardinalityCostModel]):
    """A per-execution hook feeding scan/join actuals into ``feedback``.

    Keys are the node's structural rendering (``repr`` of the frozen
    dataclass) — stable across executions of the same compiled plan, the
    property corrections need.  Without a cost model only actuals are
    recorded (no estimate, no q-error).
    """

    def record(node: PlanNode, actual: int) -> None:
        relations = _node_relations(node)
        estimated = float(_estimate(node, cost)) if cost is not None else None
        feedback.record(
            repr(node), relations, _relations_token(source, relations),
            estimated, actual,
        )

    return record


def _execute_select(node: SelectNode, facts, memo=None, recorder=None) -> Table:
    table = _execute_row(node.child, facts, memo, recorder)

    def satisfied(row: Mapping[str, object]) -> bool:
        for comparison in node.comparisons:
            def value(term: Term) -> object:
                if isinstance(term, Constant):
                    return term.value
                return row[term.name]  # type: ignore[index]

            if not compare_values(value(comparison.left), comparison.op,
                                  value(comparison.right)):
                return False
        return True

    return table.select(satisfied)


def _execute_project(node: ProjectNode, facts, memo=None, recorder=None) -> Table:
    table = _execute_row(node.child, facts, memo, recorder)
    out_rows = []
    for row in table:
        named = dict(zip(table.columns, row))
        out_rows.append(tuple(
            named[term.name] if is_variable(term) else term.value  # type: ignore[union-attr]
            for term in node.head
        ))
    return Table(node.output_columns(), out_rows)


def _execute_row(
    node: PlanNode,
    source,
    memo: Optional[Dict[str, Table]] = None,
    recorder=None,
) -> Table:
    """The row-at-a-time execution path (one Python tuple per step)."""
    if isinstance(node, ScanNode):
        table = _execute_scan(node, source)
        if recorder is not None:
            recorder(node, len(table))
        return table
    if isinstance(node, JoinNode):
        table = _execute_row(node.left, source, memo, recorder).natural_join(
            _execute_row(node.right, source, memo, recorder))
        if recorder is not None:
            recorder(node, len(table))
        return table
    if isinstance(node, SelectNode):
        return _execute_select(node, source, memo=memo, recorder=recorder)
    if isinstance(node, ProjectNode):
        return _execute_project(node, source, memo=memo, recorder=recorder)
    if isinstance(node, UnionNode):
        # Disjuncts may name their head variables differently; align each
        # branch to the union's columns positionally before the union.
        out_columns = node.output_columns()
        tables = []
        for branch in node.branches:
            table = _execute_row(branch, source, memo, recorder)
            if table.columns != out_columns:
                table = table.rename(dict(zip(table.columns, out_columns)))
            tables.append(table)
        return union_many(tables, columns=out_columns)
    if isinstance(node, DistinctNode):
        return _execute_row(node.child, source, memo, recorder).distinct()
    if isinstance(node, MaterializeNode):
        if memo is None:
            return _execute_row(node.child, source, recorder=recorder)
        table = memo.get(node.key)
        if table is None:
            table = memo[node.key] = _execute_row(node.child, source, memo, recorder)
        return table
    if isinstance(node, EmptyNode):
        return Table(node.output_columns(), [])
    raise EvaluationError(f"unknown plan node {type(node).__name__}")


def _operand_column(ct: ColumnTable, term: Term):
    """Resolve a comparison term against a columnar table."""
    if isinstance(term, Constant):
        return None, term.value
    return ct.column(term.name), None  # type: ignore[union-attr]


def _comparison_masks(ct: ColumnTable, comparisons) -> Optional[object]:
    """One fused boolean mask for a tuple of comparison atoms."""
    mask = None
    length = len(ct)
    for comparison in comparisons:
        left_col, left_const = _operand_column(ct, comparison.left)
        right_col, right_const = _operand_column(ct, comparison.right)
        if left_col is None and right_col is None:
            verdict = compare_values(left_const, comparison.op, right_const)
            part = const_column(bool(verdict), length)
        elif left_col is None:
            # const <op> col — flip the operator onto the column side.
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(
                comparison.op, comparison.op
            )
            part = compare_mask(right_col, flipped, left_const, length)
        elif right_col is None:
            part = compare_mask(left_col, comparison.op, right_const, length)
        else:
            part = compare_cols_mask(left_col, comparison.op, right_col, length)
        mask = _combine_masks(mask, part)
    return mask


def _vectorized_build_right(
    node: JoinNode,
    left_ct: ColumnTable,
    right_ct: ColumnTable,
    cost: Optional[CardinalityCostModel],
) -> bool:
    """Pick the join build side: statistics when available, else actuals."""
    if cost is not None:
        left_est = _estimate(node.left, cost)
        right_est = _estimate(node.right, cost)
        if left_est != right_est:
            return right_est < left_est
    return len(right_ct) <= len(left_ct)


def _execute_vectorized(
    node: PlanNode,
    source,
    memo: Optional[Dict[str, Table]],
    colmemo: Dict[str, ColumnTable],
    cost: Optional[CardinalityCostModel],
    recorder=None,
) -> ColumnTable:
    """The batch execution path: every operator consumes and produces
    :class:`ColumnTable` batches; operators with no kernel fall back to
    the row engine node-by-node and re-lift the result."""
    if isinstance(node, ScanNode):
        ct = ColumnTable.from_rows(
            tuple(f"__c{i}" for i in range(len(node.columns))),
            _scan_rows(node, source),
        )
        ct = ct.fused_select(node.filters, node.equal_positions)
        keep_positions, keep_names = _scan_projection(node)
        ct = ct.project_positions(keep_positions, keep_names)
        if recorder is not None:
            recorder(node, len(ct))
        return ct
    if isinstance(node, JoinNode):
        left_ct = _execute_vectorized(node.left, source, memo, colmemo, cost, recorder)
        right_ct = _execute_vectorized(node.right, source, memo, colmemo, cost, recorder)
        ct = left_ct.natural_join(
            right_ct,
            build_right=_vectorized_build_right(node, left_ct, right_ct, cost),
        )
        if recorder is not None:
            recorder(node, len(ct))
        return ct
    if isinstance(node, SelectNode):
        ct = _execute_vectorized(node.child, source, memo, colmemo, cost, recorder)
        mask = _comparison_masks(ct, node.comparisons)
        return ct if mask is None else ct.select_mask(mask)
    if isinstance(node, ProjectNode):
        ct = _execute_vectorized(node.child, source, memo, colmemo, cost, recorder)
        out_cols = []
        for term in node.head:
            if is_variable(term):
                out_cols.append(ct.column(term.name))
            else:
                out_cols.append(const_column(term.value, len(ct)))
        projected = ColumnTable(node.output_columns(), out_cols, len(ct))
        # Projection can collapse rows; the row path dedups via its set
        # representation, so dedup explicitly here.
        return projected.distinct()
    if isinstance(node, UnionNode):
        out_columns = node.output_columns()
        branches = []
        for branch in node.branches:
            ct = _execute_vectorized(branch, source, memo, colmemo, cost, recorder)
            if ct.columns != out_columns:
                ct = ColumnTable(out_columns, ct.data, len(ct))
            branches.append(ct)
        return union_distinct(branches, columns=out_columns)
    if isinstance(node, DistinctNode):
        return _execute_vectorized(
            node.child, source, memo, colmemo, cost, recorder
        ).distinct()
    if isinstance(node, MaterializeNode):
        ct = colmemo.get(node.key)
        if ct is not None:
            return ct
        if memo is not None:
            table = memo.get(node.key)
            if table is not None:
                ct = ColumnTable.from_table(table)
                colmemo[node.key] = ct
                return ct
        ct = _execute_vectorized(node.child, source, memo, colmemo, cost, recorder)
        colmemo[node.key] = ct
        if memo is not None:
            # The public memo contract stores row tables; keep it so memos
            # can be shared between vectorized and row executions.
            memo[node.key] = ct.to_table()
        return ct
    if isinstance(node, EmptyNode):
        columns = node.output_columns()
        return ColumnTable(columns, tuple([] for _ in columns), 0)
    # Odd operators (future/theta nodes) fall back to the row engine for
    # just this subtree and re-lift the result into a batch.
    return ColumnTable.from_table(_execute_row(node, source, memo, recorder=recorder))


def execute_plan(
    node: PlanNode,
    facts: FactsLike,
    memo: Optional[Dict[str, Table]] = None,
    *,
    vectorized: bool = True,
    cost: Optional[CardinalityCostModel] = None,
    feedback: Optional[QErrorLog] = None,
) -> Table:
    """Execute a logical plan over ``facts`` and return the result table.

    ``memo`` (optional) is the shared-result dictionary consulted by
    :class:`MaterializeNode`; pass one dictionary across several
    ``execute_plan`` calls *over the same, unmutated fact source* to reuse
    materialised subplans between them.  Memo keys encode plan structure
    only, so a memo reused across different (or mutated) data would serve
    stale tables — make one per data source.

    ``vectorized`` selects the execution path: ``True`` (default) lowers
    the plan onto the :mod:`repro.database.columnar` batch kernels,
    ``False`` runs the row-at-a-time path.  Both paths produce the same
    :class:`Table`.  ``cost`` (optional) supplies
    :class:`CardinalityCostModel` statistics so vectorized joins pick
    their build side by estimated cardinality instead of materialised
    size.  ``feedback`` (optional) is a :class:`QErrorLog` that receives
    one ``(estimated, actual)`` observation per scan and join actually
    executed (memoised subplans report only on their first computation).
    """
    source = as_fact_source(facts)
    recorder = _plan_recorder(feedback, source, cost) if feedback is not None else None
    if vectorized:
        return _execute_vectorized(node, source, memo, {}, cost, recorder).to_table()
    return _execute_row(node, source, memo, recorder=recorder)


def evaluate_query_via_plan(query: ConjunctiveQuery, facts: FactsLike) -> Set[Row]:
    """Compile and execute one conjunctive query; returns a set of rows."""
    plan = compile_query(query, facts)
    return execute_plan(plan, facts).to_set()


def evaluate_union_via_plan(union: UnionQuery, facts: FactsLike) -> Set[Row]:
    """Compile and execute a union of conjunctive queries.

    Structurally identical disjunct subplans are materialised once via a
    shared memo (see :func:`compile_union`).
    """
    plan = compile_union(union, facts, share_common=True)
    return execute_plan(plan, facts, memo={}).to_set()
