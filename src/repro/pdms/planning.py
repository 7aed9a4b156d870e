"""Shared union-plan IR: compile a reformulation into a common-subplan DAG.

The reformulation algorithm (Section 4 of the paper) emits a union of
conjunctive rewritings assembled from *one* rule-goal tree, so rewritings
overwhelmingly share sub-conjunctions: sibling rewritings differ in the
storage description chosen for one goal while agreeing on every other
stored atom.  Evaluating each rewriting from scratch therefore recomputes
the same joins over and over.  This module compiles a
:class:`~repro.pdms.reformulation.ReformulationResult` into a **union
plan**: a DAG of hash-consed, canonically named sub-conjunction fragments
shared across rewritings, with per-rewriting selection/projection roots on
top.

Sharing model
-------------
Each rewriting's relational atoms are folded into a tree of
:class:`ScanFragment` / :class:`JoinFragment` nodes.  Every fragment is
keyed by the *canonical rendering* of its atom multiset — atoms committed
in greedy-lexicographic canonical order, variables positionally renamed,
constants and repeated-variable equalities spelled out — so
alpha-equivalent sub-conjunctions from different rewritings hash to the
same node regardless of the join tree that first built them, and each
shared fragment's result table is computed **once per execution** and
reused by every rewriting containing it.

Trees are **bushy**: groups of atoms are merged pairwise bottom-up
(greedy-operator-ordering style), preferring merges whose canonical key
already exists in the plan's node table, then the smallest estimated join
output per the stats-driven
:class:`~repro.database.planner.CardinalityCostModel`.  Sub-conjunctions
of *any* shape — not just cost-order prefixes — are therefore shared
across rewritings.

Execution
---------
:func:`stream_plan_answers` evaluates fragments against any fact source
(upgraded to an :class:`~repro.datalog.indexing.IndexedFactSource` so leaf
scans probe hash indexes) with a compute-once memo.  Every fragment table
is a :class:`~repro.database.columnar.ColumnTable` run on the batch
kernels (NumPy-backed, or list-backed where NumPy is absent).  Rewriting
roots can be evaluated on an optional thread pool (``max_workers``) while
the answer iterator keeps the first-k streaming contract: consuming a
prefix never forces the remaining fragments.  Compilation itself is
incremental — the plan ingests rewritings lazily from the (memoized,
thread-safe) rewriting stream, so a ``limit=k`` call compiles only the
prefix it evaluates.

A :class:`~repro.pdms.materialization.FragmentCache` (optional ``cache``
argument) adds a second memo level that persists **across** calls: each
fragment's table is keyed by its canonical key plus the data-version
token of the relations it reads, so repeated queries over unchanged data
reuse materialised fragments and a write to one predicate invalidates
only the fragments that read it.

See ``docs/execution.md`` for the architecture notes.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..database.columnar import ColumnTable, compare_cols_mask, compare_mask
from ..database.columnar import _mask_and as _combine_masks
from ..database.columnar import _pylist
from ..database.feedback import QErrorLog
from ..database.planner import CardinalityCostModel
from ..datalog.atoms import Atom, compare_values
from ..datalog.evaluation import FactsLike, as_fact_source
from ..datalog.indexing import WILDCARD, ensure_indexed
from ..datalog.queries import ConjunctiveQuery
from ..datalog.terms import Variable, is_variable
from ..errors import EvaluationError
from ..obs.trace import current_span
from .materialization import FragmentCache, data_version_token
from .reformulation import ReformulationResult, _LazySeq

Row = Tuple[object, ...]

#: A compiled comparison/head operand: ("col", canonical column name) or
#: ("const", plain value).
Operand = Tuple[str, object]


# ---------------------------------------------------------------------------
# Plan fragments (the DAG nodes)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanFragment:
    """A leaf: one stored-relation scan in its single-atom canonical form.

    ``pattern`` holds one entry per relation position — a constant the row
    must carry there, or :data:`~repro.datalog.indexing.WILDCARD` — and is
    probed through ``get_matching`` so constants use hash indexes.
    ``equal_positions`` are repeated-variable equalities;
    ``keep_positions`` are the positions projected into ``columns`` (the
    first occurrence of each variable).
    """

    key: str
    relation: str
    pattern: Tuple[object, ...]
    equal_positions: Tuple[Tuple[int, int], ...]
    keep_positions: Tuple[int, ...]
    columns: Tuple[str, ...]


@dataclass(frozen=True)
class JoinFragment:
    """An interior node: two child fragments joined on their shared variables.

    ``left_key``/``right_key`` name child fragments in the plan's node
    table.  Each child's columns are renamed into this node's canonical
    namespace (``left_rename``/``right_rename``: child column -> this
    namespace) before the natural join; the result is projected to
    ``columns``.
    """

    key: str
    left_key: str
    right_key: str
    left_rename: Tuple[Tuple[str, str], ...]
    right_rename: Tuple[Tuple[str, str], ...]
    columns: Tuple[str, ...]


PlanFragment = Union[ScanFragment, JoinFragment]


@dataclass(frozen=True)
class RewritingPlan:
    """The per-rewriting root: comparisons + head projection over a fragment."""

    rewriting: ConjunctiveQuery
    root_key: str
    comparisons: Tuple[Tuple[Operand, str, Operand], ...]
    head: Tuple[Operand, ...]


@dataclass
class PlanStatistics:
    """How much structure the plan shares across its compiled rewritings."""

    rewritings: int = 0
    unique_fragments: int = 0
    fragment_references: int = 0

    @property
    def reused_references(self) -> int:
        """Fragment references served by an already-built node."""
        return self.fragment_references - self.unique_fragments

    @property
    def sharing_ratio(self) -> float:
        """Fraction of fragment references that reuse a shared node."""
        if not self.fragment_references:
            return 0.0
        return self.reused_references / self.fragment_references


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def _render_atom(
    atom: Atom, namespace: Dict[Variable, str]
) -> Tuple[str, Dict[Variable, str]]:
    """Canonical rendering of ``atom`` in (a copy of) ``namespace``.

    Unseen variables are assigned the next positional names; the possibly
    extended namespace is returned alongside the rendering so callers can
    either commit it (when the atom is chosen) or discard it (when merely
    scoring a candidate).
    """
    local = dict(namespace)
    parts: List[str] = []
    for arg in atom.args:
        if is_variable(arg):
            name = local.get(arg)
            if name is None:
                name = local[arg] = f"_f{len(local)}"
            parts.append(name)
        else:
            parts.append(repr(arg.value))
    return f"{atom.predicate}({','.join(parts)})", local


#: Total extra branches one canonicalization may spend exploring rendering
#: ties.  Ties are rare outside pathologically symmetric bodies (several
#: atoms of one predicate over pairwise-fresh variables); the budget keeps
#: those worst cases linear instead of factorial while typical bodies
#: still canonicalise exactly.
_TIE_BRANCH_BUDGET = 16


def _canonical_parts(
    atoms: Sequence[Atom],
    namespace: Dict[Variable, str],
    budget: Optional[List[int]] = None,
) -> Tuple[Tuple[str, ...], Dict[Variable, str]]:
    """Order-independent canonical rendering of an atom multiset.

    Atoms are committed greedily: at each step the atom whose rendering in
    the namespace-so-far is lexicographically smallest goes next; ties —
    several atoms rendering identically — are explored and the smallest
    complete rendering wins, up to :data:`_TIE_BRANCH_BUDGET` extra
    branches per top-level call (beyond the budget the first tied atom is
    taken, trading a little sharing on symmetric bodies for bounded
    work).  Alpha-equivalent multisets therefore produce the same parts
    tuple whatever order the atoms arrived in, which is what lets bushy
    merge trees built along different paths hash-cons to one node.  The
    returned namespace maps every variable of ``atoms`` to its canonical
    column name.
    """
    if not atoms:
        return (), dict(namespace)
    if budget is None:
        budget = [_TIE_BRANCH_BUDGET]
    rendered = [
        (_render_atom(atom, namespace), index) for index, atom in enumerate(atoms)
    ]
    best = min(entry[0][0] for entry in rendered)
    tied = [
        (extended, index)
        for (rendering, extended), index in rendered
        if rendering == best
    ]
    if len(tied) > 1:
        affordable = 1 + max(budget[0], 0)
        tied = tied[:affordable]
        budget[0] -= len(tied) - 1
    options = []
    for extended, index in tied:
        rest = tuple(atoms[:index]) + tuple(atoms[index + 1:])
        rest_parts, final = _canonical_parts(rest, extended, budget)
        options.append(((best,) + rest_parts, final))
    return min(options, key=lambda option: option[0])


def _conjunction_key(parts: Sequence[str]) -> str:
    return " & ".join(parts)


class _Group:
    """One sub-conjunction being assembled during bushy compilation.

    Tracks the committed fragment (``key``), the mapping from the
    rewriting's variables to the fragment's canonical columns
    (``varmap``), the atom multiset, and cheap cost-model summaries: the
    estimated row count and an estimated distinct count per variable
    (both 0 when no cost model steers compilation).  ``shared`` records
    whether the fragment already existed before this group touched it —
    i.e. another rewriting (or an earlier occurrence) referenced it — the
    signal the merge ordering uses to build join pairs that recur across
    the union instead of pairs involving a rewriting-unique atom.
    """

    __slots__ = (
        "key", "columns", "varmap", "atoms", "estimate", "distinct", "shared",
    )

    def __init__(self, key, columns, varmap, atoms, estimate, distinct, shared):
        self.key = key
        self.columns = columns
        self.varmap = varmap
        self.atoms = atoms
        self.estimate = estimate
        self.distinct = distinct
        self.shared = shared


class UnionPlan:
    """A shared execution plan for the union of rewritings of one result.

    Rewritings are compiled incrementally from ``result.rewritings()`` the
    first time :meth:`fragments` reaches them, each into a bushy tree over
    the hash-consed node table ``nodes``; already-compiled
    sub-conjunctions are reused across rewritings and across calls.
    Thread-safe: several executions may iterate :meth:`fragments`
    concurrently.
    """

    def __init__(
        self,
        result: ReformulationResult,
        cost: Optional[CardinalityCostModel] = None,
        feedback: Optional[QErrorLog] = None,
    ):
        self.result = result
        self.nodes: Dict[str, PlanFragment] = {}
        self.stats = PlanStatistics()
        self.feedback = feedback
        #: Per-fragment estimated row counts as used by this compilation —
        #: after any feedback corrections, so executors can score the plan
        #: against reality and a converged plan measures q-errors near 1.
        self.estimates: Dict[str, float] = {}
        self._cost = cost
        self._relations_cache: Dict[str, FrozenSet[str]] = {}
        self._scans_cache: Dict[str, Tuple[Tuple[str, Tuple[object, ...]], ...]] = {}
        # _LazySeq serialises advancement under its lock, so node-table
        # mutation inside _compile_rewriting is single-threaded even when
        # several executions iterate fragments() concurrently.
        self._compiled = _LazySeq(
            self._compile_rewriting(rewriting)
            for rewriting in result.rewritings()
        )

    # -- compilation (incremental) ---------------------------------------------

    def fragments(self) -> Iterator[RewritingPlan]:
        """Yield one :class:`RewritingPlan` per rewriting, compiling lazily.

        Backed by the same thread-safe memoized-stream machinery as the
        rewriting enumeration itself; each rewriting is compiled exactly
        once, on first reach.
        """
        return iter(self._compiled)

    def _scan_fragment(self, atom: Atom) -> ScanFragment:
        """The hash-consed leaf for one atom (single-atom canonical form)."""
        first_position: Dict[Variable, int] = {}
        pattern: List[object] = []
        equal_positions: List[Tuple[int, int]] = []
        keep_positions: List[int] = []
        for position, arg in enumerate(atom.args):
            if is_variable(arg):
                earlier = first_position.get(arg)
                if earlier is None:
                    first_position[arg] = position
                    keep_positions.append(position)
                else:
                    equal_positions.append((earlier, position))
                pattern.append(WILDCARD)
            else:
                pattern.append(arg.value)
        # The key comes from the one canonical renderer, so the
        # reuse-aware ordering's key previews always match committed keys.
        key, _ = _render_atom(atom, {})
        node = self.nodes.get(key)
        if node is None:
            node = ScanFragment(
                key=key,
                relation=atom.predicate,
                pattern=tuple(pattern),
                equal_positions=tuple(equal_positions),
                keep_positions=tuple(keep_positions),
                columns=tuple(f"_f{i}" for i in range(len(keep_positions))),
            )
            self.nodes[key] = node
            self.stats.unique_fragments += 1
        self.stats.fragment_references += 1
        return node

    def fragment_relations(self, key: str) -> FrozenSet[str]:
        """The base relations fragment ``key`` reads (transitively).

        This is the fragment's invalidation footprint: its cached table is
        stale exactly when one of these relations' data versions moved.
        """
        cached = self._relations_cache.get(key)
        if cached is None:
            node = self.nodes[key]
            if isinstance(node, ScanFragment):
                cached = frozenset((node.relation,))
            else:
                cached = self.fragment_relations(node.left_key) | (
                    self.fragment_relations(node.right_key)
                )
            self._relations_cache[key] = cached
        return cached

    def scan_requests(
        self, key: str, shard_map: Optional[object] = None
    ) -> Tuple[Tuple[object, ...], ...]:
        """The stored-relation scans under fragment ``key`` (transitively).

        One ``(relation, pattern)`` pair per distinct
        :class:`ScanFragment` leaf, in DAG order.  This is the fragment's
        *wire footprint*: a distributed executor can issue exactly these
        scans — batched per owning peer, concurrently — before evaluating
        the fragment, so the joins above never block on a remote probe.

        With a ``shard_map`` (see :mod:`repro.pdms.distributed.sharding`)
        each request becomes ``(relation, pattern, owners)`` where
        ``owners`` is the peer group a constant bound on the partition
        column prunes the scan to, or ``None`` when the relation is
        unsharded or the pattern leaves the partition column unbound —
        those scans must still fan out to every shard to stay sound.
        """
        cached = self._scans_cache.get(key)
        if cached is None:
            node = self.nodes[key]
            if isinstance(node, ScanFragment):
                cached = ((node.relation, node.pattern),)
            else:
                merged = list(self.scan_requests(node.left_key))
                seen = set(merged)
                for request in self.scan_requests(node.right_key):
                    if request not in seen:
                        seen.add(request)
                        merged.append(request)
                cached = tuple(merged)
            self._scans_cache[key] = cached
        if shard_map is None:
            return cached
        return tuple(
            (relation, pattern, shard_map.owners_for_pattern(relation, pattern))
            for relation, pattern in cached
        )

    # -- feedback corrections ----------------------------------------------

    def _apply_correction(
        self,
        key: str,
        relations: FrozenSet[str],
        fallback: float,
        count: bool = True,
    ) -> float:
        """``key``'s observed cardinality if a valid correction is held.

        Falls back to the model's ``fallback`` estimate whenever the
        feedback log holds nothing for the fragment, the correction was
        observed at a different data version, or no current version token
        can be computed (frozen/source-less cost model, unversioned
        source).  ``count=False`` suppresses the corrections-applied
        counter for speculative lookups (candidate scoring previews).
        """
        feedback = self.feedback
        if feedback is None or self._cost is None:
            return fallback
        source = self._cost.live_source()
        if source is None:
            return fallback
        token = data_version_token(source, relations)
        if token is None:
            return fallback
        actual = feedback.correction(key, token)
        if actual is None:
            return fallback
        if count:
            feedback.note_applied()
        return float(actual)

    def estimated_cost(self) -> float:
        """The plan's total estimated fragment output, corrections applied.

        Forces full compilation, then sums one (corrected) row estimate
        per unique fragment node.  Because corrections are keyed by
        canonical fragment key, a champion whose blown fragment has since
        been measured re-costs *high* here while a challenger avoiding
        that fragment does not — which is exactly the comparison the
        racing policy needs.  Every fragment contributes at least 1.
        """
        for _ in self.fragments():
            pass
        total = 0.0
        for key in self.nodes:
            fallback = self.estimates.get(key, 1.0)
            corrected = self._apply_correction(
                key, self.fragment_relations(key), fallback, count=False
            )
            total += max(corrected, 1.0)
        return total

    def _compile_rewriting(self, rewriting: ConjunctiveQuery) -> RewritingPlan:
        atoms = rewriting.relational_body()
        if not atoms:
            raise EvaluationError(
                "cannot compile a rewriting with no relational atoms"
            )
        root = self._compile_bushy(atoms)
        return self._finish_rewriting(rewriting, root.key, root.varmap)

    # -- bushy compilation -------------------------------------------------

    def _leaf_group(self, atom: Atom) -> _Group:
        """A single-atom group over the (hash-consed) scan fragment."""
        key, varmap = _render_atom(atom, {})
        shared = key in self.nodes
        node = self._scan_fragment(atom)
        estimate = 0.0
        distinct: Dict[Variable, float] = {}
        if self._cost is not None:
            estimate = float(self._cost.atom_estimate(atom))
            estimate = self._apply_correction(
                node.key, frozenset((atom.predicate,)), estimate
            )
            first_position: Dict[Variable, int] = {}
            for position, arg in enumerate(atom.args):
                if is_variable(arg) and arg not in first_position:
                    first_position[arg] = position
            for variable, position in first_position.items():
                distinct[variable] = min(
                    float(self._cost.column_distinct(atom.predicate, position)),
                    max(estimate, 1.0),
                )
        self.estimates[node.key] = estimate
        return _Group(
            key=node.key,
            columns=node.columns,
            varmap=varmap,
            atoms=(atom,),
            estimate=estimate,
            distinct=distinct,
            shared=shared,
        )

    def _join_estimate(self, left: _Group, right: _Group) -> float:
        """Estimated output rows of joining two groups (0 without a model)."""
        if self._cost is None:
            return 0.0
        estimate = max(left.estimate, 1.0) * max(right.estimate, 1.0)
        for variable in left.varmap.keys() & right.varmap.keys():
            estimate /= max(
                left.distinct.get(variable, 1.0),
                right.distinct.get(variable, 1.0),
                1.0,
            )
        return estimate

    def _merge_groups(
        self,
        left: _Group,
        right: _Group,
        key: str,
        namespace: Dict[Variable, str],
    ) -> _Group:
        """Commit the join of two groups as a (hash-consed) fragment node."""
        columns = tuple(f"_f{i}" for i in range(len(namespace)))
        node = self.nodes.get(key)
        shared = node is not None
        if node is None:
            node = JoinFragment(
                key=key,
                left_key=left.key,
                right_key=right.key,
                left_rename=tuple(
                    sorted((left.varmap[v], namespace[v]) for v in left.varmap)
                ),
                right_rename=tuple(
                    sorted((right.varmap[v], namespace[v]) for v in right.varmap)
                ),
                columns=columns,
            )
            self.nodes[key] = node
            self.stats.unique_fragments += 1
        self.stats.fragment_references += 1
        estimate = self._join_estimate(left, right)
        if self._cost is not None:
            estimate = self._apply_correction(
                key,
                frozenset(a.predicate for a in left.atoms + right.atoms),
                estimate,
            )
        self.estimates[key] = estimate
        distinct: Dict[Variable, float] = {}
        if self._cost is not None:
            for variable in namespace:
                candidates = [
                    group.distinct[variable]
                    for group in (left, right)
                    if variable in group.distinct
                ]
                distinct[variable] = min(min(candidates), max(estimate, 1.0))
        return _Group(
            key=key,
            columns=node.columns,
            varmap=dict(namespace),
            atoms=left.atoms + right.atoms,
            estimate=estimate,
            distinct=distinct,
            shared=shared,
        )

    def _compile_bushy(self, atoms: Sequence[Atom]) -> _Group:
        """Fold a rewriting's atoms into a bushy tree of shared fragments.

        Greedy-operator-ordering over groups: repeatedly merge the pair of
        connected groups (falling back to a cross product only when
        nothing is connected) preferring, in order: a pair whose merged
        canonical key already exists in the node table (its table will
        come from the memo or the cross-call cache); a pair of two
        *shared* groups — fragments other rewritings already referenced,
        so the merge is likely to recur across the union; then the
        smallest estimated join output.  The first rewriting merges in
        pure cost order; later rewritings snap to the shared groups it
        (and the cost ties) established, which is what turns shared
        sub-conjunctions of *any* shape into shared fragments.
        """
        groups = [self._leaf_group(atom) for atom in atoms]
        # Pair previews survive across merge rounds, so each surviving
        # pair is canonicalised once per rewriting, not once per round.
        # Keyed by group identity (not fragment key — two groups may share
        # a key yet bind different rewriting variables); `created` pins
        # every group so ids stay unique for the compile's duration.
        previews: Dict[Tuple[int, int], Tuple[str, Dict[Variable, str]]] = {}
        created = list(groups)

        def preview(left: _Group, right: _Group):
            pair_key = (id(left), id(right))
            cached = previews.get(pair_key)
            if cached is None:
                parts, namespace = _canonical_parts(left.atoms + right.atoms, {})
                cached = previews[pair_key] = (_conjunction_key(parts), namespace)
            return cached

        while len(groups) > 1:
            connected = [
                (i, j)
                for i in range(len(groups))
                for j in range(i + 1, len(groups))
                if groups[i].varmap.keys() & groups[j].varmap.keys()
            ]
            candidates = connected or [
                (i, j)
                for i in range(len(groups))
                for j in range(i + 1, len(groups))
            ]

            def score(pair: Tuple[int, int]):
                i, j = pair
                key, _ = preview(groups[i], groups[j])
                exists = 0 if key in self.nodes else 1
                both_shared = 0 if groups[i].shared and groups[j].shared else 1
                estimate = self._join_estimate(groups[i], groups[j])
                if self.feedback is not None:
                    estimate = self._apply_correction(
                        key,
                        frozenset(
                            a.predicate
                            for a in groups[i].atoms + groups[j].atoms
                        ),
                        estimate,
                        count=False,
                    )
                return (
                    exists,
                    both_shared,
                    estimate,
                    key,
                    pair,
                )

            i, j = min(candidates, key=score)
            merged = self._merge_groups(
                groups[i], groups[j], *preview(groups[i], groups[j])
            )
            created.append(merged)
            groups = [g for k, g in enumerate(groups) if k not in (i, j)]
            groups.append(merged)
        return groups[0]

    def _finish_rewriting(
        self,
        rewriting: ConjunctiveQuery,
        root_key: str,
        canonical: Dict[Variable, str],
    ) -> RewritingPlan:
        """Wrap a compiled root fragment in the per-rewriting plan."""

        def operand(term) -> Operand:
            if is_variable(term):
                return ("col", canonical[term])
            return ("const", term.value)

        comparisons = tuple(
            (operand(comp.left), comp.op, operand(comp.right))
            for comp in rewriting.comparison_body()
        )
        head = tuple(operand(term) for term in rewriting.head.args)
        self.stats.rewritings += 1
        return RewritingPlan(
            rewriting=rewriting,
            root_key=root_key,
            comparisons=comparisons,
            head=head,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats
        return (
            f"UnionPlan({s.rewritings} rewritings, {s.unique_fragments} fragments, "
            f"{s.reused_references} reused refs)"
        )


def compile_reformulation(
    result: ReformulationResult,
    data: Optional[FactsLike] = None,
    cost: Optional[CardinalityCostModel] = None,
    feedback: Optional[QErrorLog] = None,
) -> UnionPlan:
    """Compile ``result`` into a (lazily populated) shared union plan.

    ``data`` (or a prebuilt ``cost`` model) steers the cost-based join
    order; without either the canonical atom order is used.  The plan stays
    correct if the data later changes — only join-order quality is tied to
    the statistics seen at compile time.  ``feedback`` (optional) supplies a
    :class:`~repro.database.feedback.QErrorLog` whose version-scoped
    cardinality corrections override the model's estimates during join
    ordering (see ``docs/adaptivity.md``).
    """
    if cost is None and data is not None:
        cost = CardinalityCostModel(data)
    return UnionPlan(result, cost, feedback=feedback)


_ENSURE_LOCK = threading.Lock()


def ensure_plan(
    result: ReformulationResult, data: Optional[FactsLike] = None
) -> UnionPlan:
    """The compiled plan for ``result``, built once and cached on it.

    The plan is attached to the result object itself, so its lifetime —
    and therefore its invalidation — exactly tracks the result's: a
    service cache that evicts the reformulation on a provenance signal
    drops the compiled plan with it.
    """
    plan = result._shared_plan
    if plan is None:
        with _ENSURE_LOCK:
            plan = result._shared_plan
            if plan is None:
                # Pinless cost model: the plan outlives this call, and it
                # must neither pin the data source (removed peers'
                # instances, one-off overrides) in memory for the cache
                # entry's lifetime nor pay an eager full-relation scan —
                # stats are read lazily through a weak reference while the
                # source lives.
                cost = (
                    CardinalityCostModel.pinless(data) if data is not None else None
                )
                plan = UnionPlan(result, cost)
                result._shared_plan = plan
    return plan  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

class _OnceMap:
    """A compute-once table memo safe under concurrent fragment evaluation.

    The first caller of a key computes it; concurrent callers block on an
    event and read the stored value (or re-raise the stored error).  Waits
    only ever go *down* the fragment DAG, so there is no deadlock.
    """

    __slots__ = ("_lock", "_values", "_pending")

    def __init__(self):
        self._lock = threading.Lock()
        self._values: Dict[str, Tuple[str, object]] = {}
        self._pending: Dict[str, threading.Event] = {}

    def get_or_compute(self, key: str, compute) -> ColumnTable:
        while True:
            with self._lock:
                entry = self._values.get(key)
                if entry is not None:
                    kind, value = entry
                    break
                event = self._pending.get(key)
                if event is None:
                    self._pending[key] = threading.Event()
                    event = None
            if event is None:
                entry = None
                try:
                    value = compute()
                    entry = ("table", value)
                except Exception as exc:
                    entry = ("error", exc)
                except BaseException:
                    # Mirror _LazySeq: an interrupt must not be cached and
                    # re-raised at sibling waiters as a stale Ctrl-C; they
                    # get a fresh, diagnosable error instead while the
                    # interrupt propagates to the interrupted thread.
                    entry = ("error", EvaluationError(
                        "fragment evaluation was interrupted before completing"
                    ))
                    raise
                finally:
                    with self._lock:
                        self._values[key] = entry
                        self._pending.pop(key).set()
                kind, value = entry
                break
            event.wait()
        if kind == "error":
            raise value  # type: ignore[misc]
        return value  # type: ignore[return-value]


def _scan_columnar(node: ScanFragment, source) -> ColumnTable:
    """Columnar scan: transpose matching rows once, filter and project in
    batch.  This is the only transpose of the fragment pipeline —
    everything above stays column-wise."""
    try:
        candidates = source.get_matching(node.relation, node.pattern)
    except ValueError as exc:
        raise EvaluationError(f"relation {node.relation!r}: {exc}") from exc
    # Federated sources may serve the same fact from several peers;
    # fragments above preserve distinctness.
    rows = list(dict.fromkeys(candidates))
    width = len(node.pattern)
    ct = ColumnTable.from_rows(tuple(f"__p{i}" for i in range(width)), rows)
    ct = ct.fused_select(equal_pairs=node.equal_positions)
    return ct.project_positions(node.keep_positions, node.columns)


def _worth_caching(node: PlanFragment) -> bool:
    """Is a fragment's table worth offering to the cross-call cache?

    Joins always are.  Unrestricted scans are not: their "table" is a bare
    copy of rows the base index already serves in O(1), so materialising
    them only burns budget.  Selective scans (constants or repeated-
    variable equalities) do real filtering work and qualify.
    """
    if isinstance(node, JoinFragment):
        return True
    return bool(node.equal_positions) or any(
        value is not WILDCARD for value in node.pattern
    )


def _fragment_table(
    plan: UnionPlan,
    key: str,
    source,
    memo: _OnceMap,
    cache: Optional[FragmentCache] = None,
    feedback: Optional[QErrorLog] = None,
) -> ColumnTable:
    """The :class:`ColumnTable` of fragment ``key``.

    ``feedback`` (optional) receives one ``(estimated, actual)``
    observation per fragment *freshly computed* here — memo and
    cross-call cache hits are reuses of an already-measured evaluation,
    not new evidence, so they do not record."""
    node = plan.nodes[key]

    def build():
        span = current_span().child(
            "fragment.eval",
            key=key[:80],
            kind="scan" if isinstance(node, ScanFragment) else "join",
        )
        with span:
            if isinstance(node, ScanFragment):
                value = _scan_columnar(node, source)
            else:
                left = _fragment_table(
                    plan, node.left_key, source, memo, cache, feedback
                )
                right = _fragment_table(
                    plan, node.right_key, source, memo, cache, feedback
                )
                joined = left.rename(dict(node.left_rename)).natural_join(
                    right.rename(dict(node.right_rename))
                )
                value = joined.project(node.columns)
            if span.recording:
                span.set("rows", len(value))
        if feedback is not None:
            relations = plan.fragment_relations(key)
            columns: Tuple[Tuple[str, int], ...] = ()
            if isinstance(node, ScanFragment):
                columns = tuple(
                    (node.relation, position)
                    for position, constant in enumerate(node.pattern)
                    if constant is not WILDCARD
                )
            feedback.record(
                key,
                relations,
                data_version_token(source, relations),
                plan.estimates.get(key),
                len(value),
                columns,
            )
        return value

    def compute():
        if cache is not None and _worth_caching(node):
            relations = plan.fragment_relations(key)
            token = data_version_token(source, relations)
            if token is not None:
                return cache.get_or_compute(key, token, relations, build)
        return build()

    return memo.get_or_compute(key, compute)


_FLIPPED_OPS = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _evaluate_rewriting_plan(
    plan: UnionPlan,
    rewriting_plan: RewritingPlan,
    source,
    memo: _OnceMap,
    cache: Optional[FragmentCache] = None,
    feedback: Optional[QErrorLog] = None,
) -> Set[Row]:
    """One rewriting root: its fragment table, then comparisons and head
    projection in batch."""
    ct = _fragment_table(
        plan, rewriting_plan.root_key, source, memo, cache, feedback
    )
    mask = None
    for left, op, right in rewriting_plan.comparisons:
        (lkind, lpayload), (rkind, rpayload) = left, right
        if lkind == "col" and rkind == "col":
            part = compare_cols_mask(
                ct.column(lpayload), op, ct.column(rpayload), len(ct)
            )
        elif lkind == "col":
            part = compare_mask(ct.column(lpayload), op, rpayload, len(ct))
        elif rkind == "col":
            part = compare_mask(
                ct.column(rpayload), _FLIPPED_OPS.get(op, op), lpayload, len(ct)
            )
        else:
            if compare_values(lpayload, op, rpayload):
                continue
            return set()
        mask = _combine_masks(mask, part)
    if mask is not None:
        ct = ct.select_mask(mask)
    if not rewriting_plan.head:
        return {()} if len(ct) else set()
    out_cols = []
    for kind, payload in rewriting_plan.head:
        if kind == "col":
            out_cols.append(_pylist(ct.column(payload)))
        else:
            out_cols.append([payload] * len(ct))
    return set(zip(*out_cols))


def stream_plan_answers(
    plan: UnionPlan,
    data: FactsLike,
    max_workers: Optional[int] = None,
    cache: Optional[FragmentCache] = None,
    feedback: Optional[QErrorLog] = None,
) -> Iterator[Row]:
    """Yield distinct answer rows of the union plan as fragments evaluate.

    Sequentially (``max_workers`` 0/None/1), rewriting roots are evaluated
    in enumeration order and shared fragments are served from the per-call
    memo.  With ``max_workers`` > 1, up to that many rewriting roots are
    evaluated concurrently on a thread pool (a bounded window keeps the
    first-k contract: abandoning the iterator cancels unstarted work); the
    columnar kernels' NumPy ops release the GIL, so large batches scale on
    multicore.  Answers are identical either way — only completion order
    differs, and the dedup set makes the yielded row set equal.

    ``cache`` (optional) is a cross-call
    :class:`~repro.pdms.materialization.FragmentCache`: fragment tables
    are then served from (and offered to) it under their data-version
    tokens, on top of the per-call memo.  Sources without per-relation
    data versions bypass the cache automatically.

    ``feedback`` (optional) is a :class:`~repro.database.feedback.QErrorLog`
    measuring every freshly computed fragment.  On the sequential path a
    *blown* estimate (actual ≫ estimated, per the log's ``blowup_factor``)
    additionally triggers mid-union re-optimization: the remaining
    rewritings are recompiled against the just-learned corrections
    (bounded to two re-plans per call; shared fragments already computed
    are served from the per-call memo, so no work is repeated).
    """
    source = ensure_indexed(as_fact_source(data))
    memo = _OnceMap()
    seen: Set[Row] = set()
    if not max_workers or max_workers <= 1:
        replanning = (
            feedback is not None and feedback.replan and plan._cost is not None
        )
        blown_seen = feedback.blown_events if feedback is not None else 0
        replans_left = 2
        fragment_iter = plan.fragments()
        consumed = 0
        while True:
            try:
                rewriting_plan = next(fragment_iter)
            except StopIteration:
                return
            consumed += 1
            for row in _evaluate_rewriting_plan(
                plan, rewriting_plan, source, memo, cache, feedback
            ):
                if row not in seen:
                    seen.add(row)
                    yield row
            if (
                replanning
                and replans_left > 0
                and feedback.blown_events > blown_seen
            ):
                # An estimate just blew up: the corrections recorded for it
                # may reorder the joins of everything not yet evaluated.
                blown_seen = feedback.blown_events
                replans_left -= 1
                feedback.stats.replans += 1
                plan = UnionPlan(plan.result, plan._cost, feedback=feedback)
                fragment_iter = islice(plan.fragments(), consumed, None)

    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(
        max_workers=max_workers, thread_name_prefix="repro-shared"
    )
    try:
        window: deque = deque()
        fragment_iter = plan.fragments()
        pending_limit = 2 * max_workers
        exhausted = False
        while True:
            while not exhausted and len(window) < pending_limit:
                try:
                    rewriting_plan = next(fragment_iter)
                except StopIteration:
                    exhausted = True
                    break
                window.append(pool.submit(
                    _evaluate_rewriting_plan,
                    plan,
                    rewriting_plan,
                    source,
                    memo,
                    cache,
                    feedback,
                ))
            if not window:
                return
            for row in window.popleft().result():
                if row not in seen:
                    seen.add(row)
                    yield row
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def evaluate_plan(
    plan: UnionPlan,
    data: FactsLike,
    limit: Optional[int] = None,
    max_workers: Optional[int] = None,
    cache: Optional[FragmentCache] = None,
    feedback: Optional[QErrorLog] = None,
) -> Set[Row]:
    """Evaluate the whole union plan (or the first ``limit`` answers)."""
    if limit is not None and limit < 0:
        raise EvaluationError(f"limit must be non-negative, got {limit}")
    answers: Set[Row] = set()
    if limit == 0:
        return answers
    for row in stream_plan_answers(
        plan,
        data,
        max_workers=max_workers,
        cache=cache,
        feedback=feedback,
    ):
        answers.add(row)
        if limit is not None and len(answers) >= limit:
            break
    return answers
