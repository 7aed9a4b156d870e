"""The answer checker: independent reference answers for every served read.

The reference evaluates each query's rewritings with the ``backtracking``
engine over the benchmark's own copy of the data: no union plan, no
fragment cache, no service and no transport.  Inserts are applied
incrementally: for a new row of relation ``S`` the checker evaluates,
for every rewriting atom over ``S``, that rewriting with the atom bound
to the row (semi-naive delta of a monotone union of conjunctive
queries).  Every reference row remembers the first write after which it
exists, so the answer set after any prefix of the writes can be read off
without re-evaluation.

A served read is correct when every reference row present after the
``lo``-th write is in the answer and every answer row is a reference row
present after the ``hi``-th write.  A client that saw exactly the first
``k`` writes has ``lo == hi == k`` (equality); a read that overlapped
concurrent inserts of another client gets the window its interval
allows.  A first-10 read must be such a subset with
``min(10, |reference|)`` rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.database import Instance
from repro.datalog.atoms import Atom
from repro.datalog.evaluation import evaluate_query
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Constant, Variable
from repro.pdms import (
    PDMS,
    PeerFactSource,
    certain_answers,
    combine_peer_instances,
    evaluate_reformulation,
    reformulate,
)

Row = Tuple[object, ...]
_NEVER = float("inf")


def answer_digest(rows) -> Tuple[int, int]:
    """``(size, order-free hash)`` of an answer set, comparable within one process."""
    return len(rows), hash(frozenset(rows))


def bind_atom(rewriting: ConjunctiveQuery, atom_index: int, row: Row) -> Optional[ConjunctiveQuery]:
    """``rewriting`` with its ``atom_index``-th body atom bound to ``row``.

    ``None`` when the atom cannot match the row (a constant differs or a
    repeated variable would need two values).
    """
    atom = rewriting.body[atom_index]
    binding: Dict[Variable, Constant] = {}
    for term, value in zip(atom.args, row):
        if isinstance(term, Variable):
            bound = binding.setdefault(term, Constant(value))
            if bound.value != value:
                return None
        elif term.value != value:
            return None
    return rewriting.substitute(binding)


class ReferenceAnswers:
    """Reference answer sets of a set of queries under a stream of inserts."""

    def __init__(self, pdms: PDMS, data: Dict[str, Instance]):
        self._pdms = pdms
        self._data = data
        self._source = PeerFactSource(data)
        self._writes = 0
        #: query id -> {row: index of the first write after which it exists}
        self._first: Dict[int, Dict[Row, int]] = {}
        #: query id -> stored relation -> [(rewriting, atom index)]
        self._uses: Dict[int, Dict[str, List[Tuple[ConjunctiveQuery, int]]]] = {}
        self._digests: Dict[Tuple[int, int], Tuple[int, int]] = {}

    @property
    def writes(self) -> int:
        """Inserts applied so far."""
        return self._writes

    def add_query(self, query_id: int, query: ConjunctiveQuery) -> None:
        """Evaluate ``query`` from scratch over the current data."""
        if query_id in self._first:
            return
        result = reformulate(self._pdms, query)
        rows = evaluate_reformulation(result, self._source, engine="backtracking")
        self._first[query_id] = {row: self._writes for row in rows}
        uses: Dict[str, List[Tuple[ConjunctiveQuery, int]]] = {}
        for rewriting in result.all_rewritings():
            for index, atom in enumerate(rewriting.body):
                if isinstance(atom, Atom):
                    uses.setdefault(atom.predicate, []).append((rewriting, index))
        self._uses[query_id] = uses

    def insert(self, peer: str, relation: str, row: Row) -> None:
        """Apply one insert and extend every query's reference with its delta."""
        self._writes += 1
        self._data[peer].add(relation, row)
        for query_id, uses in self._uses.items():
            first = self._first[query_id]
            for rewriting, index in uses.get(relation, ()):
                bound = bind_atom(rewriting, index, row)
                if bound is None:
                    continue
                for answer in evaluate_query(bound, self._source):
                    first.setdefault(answer, self._writes)

    def rows_after(self, query_id: int, writes: int) -> Set[Row]:
        """The reference answer set once the first ``writes`` inserts landed."""
        return {row for row, since in self._first[query_id].items() if since <= writes}

    def digest_after(self, query_id: int, writes: int) -> Tuple[int, int]:
        """:func:`answer_digest` of :meth:`rows_after`, memoized."""
        key = (query_id, writes)
        if key not in self._digests:
            self._digests[key] = answer_digest(self.rows_after(query_id, writes))
        return self._digests[key]

    def check(
        self, query_id: int, answer: Set[Row], lo: int, hi: int, limit: Optional[int] = None
    ) -> bool:
        """Whether ``answer`` is correct for a read that saw between ``lo`` and ``hi`` writes."""
        first = self._first[query_id]
        if any(first.get(row, _NEVER) > hi for row in answer):
            return False
        if limit is None:
            return all(row in answer for row, since in first.items() if since <= lo)
        floor = sum(1 for since in first.values() if since <= lo)
        return len(answer) == min(limit, floor) or (
            lo != hi and min(limit, floor) <= len(answer) <= limit
        )



def oracle_answers(pdms: PDMS, query: ConjunctiveQuery, data: Dict[str, Instance]) -> Set[Row]:
    """The chase oracle's certain answers of ``query`` over ``data``."""
    return certain_answers(pdms, query, combine_peer_instances(data))
