"""Seeded inputs of the serving benchmark: the PDMS, its data and the operation streams.

Like a TPC-style benchmark, the schema and the query set are fixed and
the run's ``--seed`` draws everything else.  The catalogue is one 96-peer
PDMS, the Section-5 generator at its default seed; the queries are the
two-atom chains over its top stratum in one fixed shuffled order (cold
reads walk that order, warm pools are its first entries).  The seed
draws the stored rows, the Zipf draws over the pool, the inserted rows
and the catalogue operations.  (With catalogue and queries drawn per
seed, the median cold answer moved by 20% and its p90 by 30% between
seeds -- the luck of the draw, not the program -- which no useful
regression bound survives.)  The program under test only ever sees the
generated PDMS, the per-peer data and the operations.  Each purpose
draws from its own ``random.Random`` seeded by ``"<seed>:<purpose>"``,
so changing how one stream is drawn never shifts another.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.database import Instance
from repro.datalog.atoms import Atom
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Variable
from repro.pdms import PDMS
from repro.workload import GeneratorParameters, generate_workload

#: The Section-5 shape every workload serves: 96 peers over 4 strata with
#: 10% definitional mappings (the paper's Figure-4 setting).
NUM_PEERS = 96
DIAMETER = 4
DEFINITIONAL_RATIO = 0.10

Row = Tuple[object, ...]


@dataclass(frozen=True)
class WorkloadShape:
    """Size parameters of one workload's generated system."""

    #: Rows drawn for every stored relation.
    rows_per_relation: int
    #: Values are drawn from ``range(domain)``; smaller means denser joins.
    domain: int
    #: Distinct queries in the read pool (``None``: every read is fresh).
    pool_size: Optional[int]
    #: Share of operations that are single-row inserts.
    write_share: float
    #: Share of operations that remove a peer mapping and add it back.
    catalogue_share: float


@dataclass(frozen=True)
class Op:
    """One client operation.

    ``kind`` is ``"answer"`` (full answer), ``"first10"`` (``limit=10``),
    ``"write"`` (insert ``row`` into ``relation`` of peer ``peer``) or
    ``"catalogue"`` (remove peer mapping ``mapping`` and add it back).
    ``query_id`` names the query for reads; equal ids are equal queries.
    """

    kind: str
    query_id: int = -1
    query: Optional[ConjunctiveQuery] = None
    peer: str = ""
    relation: str = ""
    row: Row = ()
    mapping: str = ""


@dataclass
class GeneratedSystem:
    """A generated PDMS with its per-peer data and query material."""

    pdms: PDMS
    data: Dict[str, Instance]
    #: Qualified names of the top-stratum peer relations (where queries are posed).
    top_relations: List[str]
    #: ``(peer, stored relation)`` pairs that hold data.
    stored: List[Tuple[str, str]]


def stream_rng(seed: int, purpose: str) -> random.Random:
    """The independent random stream for one purpose of one seed."""
    return random.Random(f"{seed}:{purpose}")


def build_system(seed: int, shape: WorkloadShape) -> GeneratedSystem:
    """Generate the PDMS and fill every stored relation of it."""
    generated = generate_workload(
        GeneratorParameters(
            num_peers=NUM_PEERS, diameter=DIAMETER, definitional_ratio=DEFINITIONAL_RATIO
        )
    )
    rng = stream_rng(seed, "data")
    data: Dict[str, Instance] = {}
    stored: List[Tuple[str, str]] = []
    for peer in generated.pdms.peers():
        relations = peer.stored_relations()
        if not relations:
            continue
        instance = Instance()
        for relation in relations:
            stored.append((peer.name, relation.name))
            for _ in range(shape.rows_per_relation):
                instance.add(
                    relation.name,
                    tuple(rng.randrange(shape.domain) for _ in range(relation.arity)),
                )
        data[peer.name] = instance
    return GeneratedSystem(generated.pdms, data, list(generated.strata[0]), stored)


def chain_query(relations: Sequence[str]) -> ConjunctiveQuery:
    """``Q(q0, qn) :- r1(q0, q1), ..., rn(q(n-1), qn)``."""
    variables = [Variable(f"q{i}") for i in range(len(relations) + 1)]
    body = [
        Atom(relation, [variables[i], variables[i + 1]])
        for i, relation in enumerate(relations)
    ]
    return ConjunctiveQuery(Atom("Q", [variables[0], variables[-1]]), body)


def distinct_chains(top_relations: Sequence[str]) -> Iterator[ConjunctiveQuery]:
    """Every two-atom chain over ``top_relations`` once, in the fixed query order."""
    pairs = list(itertools.product(top_relations, repeat=2))
    random.Random("queries").shuffle(pairs)
    return (chain_query(pair) for pair in pairs)


def query_pool(top_relations: Sequence[str], size: int) -> List[ConjunctiveQuery]:
    """The ``size`` distinct queries a warm workload draws its reads from."""
    return list(itertools.islice(distinct_chains(top_relations), size))


def zipf_weights(size: int) -> List[float]:
    """Weight ``1/(rank+1)``: the first pool query is the hottest."""
    return [1.0 / (rank + 1) for rank in range(size)]


#: Operations per block of the warm schedule: each block holds exactly the
#: shape's share of writes and catalogue operations and each pool query's
#: Zipf share of the reads, in seeded order, so a run's mix does not drift
#: with the luck of independent draws.
BLOCK = 100


def operations(
    seed: int, system: GeneratedSystem, shape: WorkloadShape,
    client: int = 0, part: int = 0, parts: int = 1, clients: int = 1,
) -> Iterator[Op]:
    """The endless operation stream of one closed-loop client.

    Without a pool every read is a query never asked before, alternating
    full and first-10 answers; part ``part`` of ``parts`` walks every
    ``parts``-th query of the fixed order, so the parts of a run never
    repeat a query.  With a pool, each block of ``BLOCK`` operations holds
    the shape's share of writes and catalogue operations, and reads of
    each pool query in proportion to its Zipf weight, in seeded order.
    Clients of one run draw disjoint streams.
    """
    rng = stream_rng(seed, f"ops:{client}")
    if shape.pool_size is None:
        queries = itertools.islice(distinct_chains(system.top_relations), part, None, parts)
        for index, query in enumerate(queries):
            yield Op("first10" if index % 2 else "answer", index * parts + part, query)
        raise RuntimeError("the distinct-query stream is exhausted")
    pool = query_pool(system.top_relations, shape.pool_size)
    # Write and catalogue targets cycle through one fixed order, each
    # client of each part starting at its own offset, so every run spreads
    # its few writes over the same relations and mappings: which relation
    # a write hits decides how much it invalidates.
    lane, lanes = part * clients + client, parts * clients
    targets = fixed_cycle(system.stored, "write-targets", lane, lanes)
    mappings = fixed_cycle(
        sorted(mapping.name for mapping in system.pdms.peer_mappings()),
        "catalogue-targets", lane, lanes,
    )
    writes = round(BLOCK * shape.write_share)
    catalogue = round(BLOCK * shape.catalogue_share)
    reads = quotas(zipf_weights(len(pool)), BLOCK - writes - catalogue)
    block = ["write"] * writes + ["catalogue"] * catalogue + [
        query_id for query_id, count in enumerate(reads) for _ in range(count)
    ]
    while True:
        rng.shuffle(block)
        for kind in block:
            if kind == "write":
                peer, relation = next(targets)
                arity = system.data[peer].arity(relation)
                row = tuple(rng.randrange(shape.domain) for _ in range(arity))
                yield Op("write", peer=peer, relation=relation, row=row)
            elif kind == "catalogue":
                yield Op("catalogue", mapping=next(mappings))
            else:
                yield Op("answer", kind, pool[kind])


def quotas(weights: Sequence[float], total: int) -> List[int]:
    """Split ``total`` in proportion to ``weights`` (largest remainder first)."""
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(len(weights)), key=lambda i: counts[i] - weights[i] * scale)
    for index in by_remainder[: total - sum(counts)]:
        counts[index] += 1
    return counts


def fixed_cycle(items: Sequence, purpose: str, lane: int, lanes: int) -> Iterator:
    """``items`` in one fixed shuffled order, endlessly, from lane ``lane`` of ``lanes``."""
    order = list(items)
    random.Random(purpose).shuffle(order)
    start = lane * len(order) // lanes
    return itertools.islice(itertools.cycle(order), start, None)
