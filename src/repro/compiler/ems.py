"""Modulo-scheduling place-and-route mapper (EMS-style baseline).

This is the reproduction of the paper's baseline compiler: a modulo
scheduler in the family of edge-centric modulo scheduling (EMS, Park et
al. [25]), which the paper's experiments build on.  The algorithm:

1. compute ``MII = max(ResMII, RecMII)``;
2. for each candidate II (MII, MII+1, ...), try to place operations one at
   a time in slack order (ALAP-first); each op is placed at the first
   (time, PE) candidate from which *every* edge to an already-placed
   producer or consumer can be routed on the time-extended mesh
   (:mod:`repro.compiler.routing`), claiming routing PEs as it goes;
3. a few restarts with perturbed op order absorb unlucky greedy choices
   before giving up and bumping the II.

The paged compiler (:mod:`repro.compiler.paged`) reuses this engine with a
hop filter and a restricted PE set, which is how the paper describes its
approach: "add some additional constraints to the compiler when it is
generating the original schedule" (§I).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

from repro.arch.capability import OpClass
from repro.arch.cgra import CGRA
from repro.arch.interconnect import Coord
from repro.arch.isa import Opcode
from repro.compiler.feas import ii_lower_bound
from repro.compiler.mapping import (
    Mapping,
    Placement,
    Route,
    RouteStep,
    materialized_ops,
)
from repro.compiler.mrt import ReservationTable
from repro.compiler.routing import (
    RoutingContext,
    commit_route,
    find_route_shared_ids,
    release_route,
)
from repro.compiler.stats import counters
from repro.dfg.analysis import alap_times, asap_times, rec_mii
from repro.dfg.graph import DFG
from repro.util.errors import MappingError
from repro.util.fingerprint import canonical_fingerprint
from repro.util.rng import make_rng

__all__ = ["MapperConfig", "EMSMapper", "map_dfg"]

HopFilter = Callable[[Coord, Coord], bool]


@dataclass(frozen=True)
class MapperConfig:
    """Tuning knobs of the mapper."""

    max_ii: int = 64
    attempts_per_ii: int = 6
    horizon_factor: int = 4  # schedule horizon = critical path + factor * II
    seed: int = 0
    route_budget: int = 3000  # DFS expansion cap for long routes
    candidate_cap: int = 10  # feasible candidates scored per op
    eval_budget: int = 200  # total (time, PE) candidates probed per op
    root_margin: int = 2  # extra slack before anchor-less non-source ops

    def fingerprint(self) -> str:
        """Canonical hash over every knob — any tuning change invalidates
        cached artifacts keyed on it (:mod:`repro.pipeline`)."""
        return canonical_fingerprint(asdict(self))


@dataclass
class _Attempt:
    """Mutable state of one placement attempt.

    ``placements`` maps op id to ``(pe_id, time)`` in the integer PE-id
    domain of the fabric's grid index; :class:`Placement` objects (with
    ``Coord``) are only materialized for the final :class:`Mapping`.
    """

    mrt: ReservationTable
    placements: dict[int, tuple[int, int]] = field(default_factory=dict)
    routes: dict[int, Route] = field(default_factory=dict)


class EMSMapper:
    """Place-and-route modulo scheduler for one CGRA (optionally paged)."""

    def __init__(
        self,
        cgra: CGRA,
        *,
        allowed_pes: Sequence[Coord] | None = None,
        hop_allowed: HopFilter | None = None,
        mem_slots_per_cycle: int | None = None,
        bus_key=None,
        pe_rank: Callable[[Coord], int] | None = None,
        config: MapperConfig | None = None,
    ) -> None:
        self.cgra = cgra
        self.config = config or MapperConfig()
        self.allowed_pes: tuple[Coord, ...] = tuple(
            allowed_pes if allowed_pes is not None else cgra.coords()
        )
        if not self.allowed_pes:
            raise MappingError("no PEs available to the mapper")
        self.hop_allowed = hop_allowed
        self.bus_key = bus_key
        # Rank of each PE along the dataflow direction of the fabric (the
        # page ring index for paged layouts).  Anchor-less sources prefer
        # low ranks and anchor-less sinks high ranks, so chains flow
        # forward and never start in the last page of the chain, which the
        # ring constraint makes a dataflow sink.
        self.pe_rank = pe_rank
        self._rank_targets: dict[int, int] = {}
        self.mem_slots = (
            mem_slots_per_cycle
            if mem_slots_per_cycle is not None
            else cgra.rows * cgra.mem_ports_per_row
        )
        # Integer-domain hot-path tables (see GridIndex/RoutingContext):
        # everything the placer and router touch per candidate is an
        # indexed load over these, never a Coord hash.
        gi = cgra.grid_index
        self._gi = gi
        self._allowed_ids: tuple[int, ...] = tuple(
            gi.id_of[pe] for pe in self.allowed_pes
        )
        # Capability masks (None on homogeneous fabrics: every filter below
        # degenerates to the original code path, bit for bit).
        self._mem_ok = cgra.class_mask(OpClass.MEM)
        self._alu_ok = cgra.class_mask(OpClass.ALU)
        self._route_ok = cgra.class_mask(OpClass.ROUTE)
        self._mem_capable_count = (
            len(self._allowed_ids)
            if self._mem_ok is None
            else sum(1 for pid in self._allowed_ids if self._mem_ok[pid])
        )
        # one-slot memo of the per-op trap tables, keyed on the DFG's
        # adjacency epoch (see DFG._adjacency)
        self._trap_cache: tuple | None = None
        self._route_ctx = RoutingContext(cgra, hop_allowed)
        # escape direction (pe -> nb) shares the router's allowed-move table
        self._esc_ids = self._route_ctx.allowed_moves
        if hop_allowed is None:
            self._arr_ids = gi.reach1_ids
        else:
            coords = gi.coords
            self._arr_ids = tuple(
                tuple(
                    q
                    for q in gi.reach1_ids[p]
                    if hop_allowed(coords[q], coords[p])
                )
                for p in range(gi.num_pes)
            )
        # fabric rank per PE id (None where pe_rank is unset/undefined)
        if pe_rank is None:
            self._rank_ids = None
        else:
            self._rank_ids = [0] * gi.num_pes
            for pe in self.allowed_pes:
                self._rank_ids[gi.id_of[pe]] = pe_rank(pe)

    # -- public API ---------------------------------------------------------------

    def map(
        self,
        dfg: DFG,
        *,
        min_ii: int | None = None,
        resume_ii: int | None = None,
    ) -> Mapping:
        """Map *dfg*, returning the best (lowest-II) mapping found.

        Raises :class:`MappingError` when no mapping exists up to
        ``config.max_ii``.

        *resume_ii* is the ladder-memoization contract: the caller asserts
        that every rung below it was already probed — with this exact
        mapper geometry, config (up to ``max_ii``) and *min_ii* — and
        failed, so those rungs are skipped.  The rng stream is still
        advanced exactly as if the skipped perturbation attempts had run,
        so the op orders tried at the remaining rungs (and therefore the
        resulting mapping) are bit-for-bit what a full re-climb would
        produce.
        """
        start_ii = self.ladder_start_ii(dfg, min_ii=min_ii)
        rng = make_rng(self.config.seed)
        orders = self.attempt_orders(dfg)
        for ii in range(start_ii, self.config.max_ii + 1):
            if resume_ii is not None and ii < resume_ii:
                counters().rungs_skipped += 1
                # burn the skipped rung's perturbation draws to keep the
                # stream position identical to a full climb
                for attempt in range(self.config.attempts_per_ii):
                    if attempt >= len(orders):
                        self._perturb(list(orders[0]), rng)
                continue
            for attempt in range(self.config.attempts_per_ii):
                if attempt < len(orders):
                    order = list(orders[attempt])
                else:
                    order = list(orders[0])
                    self._perturb(order, rng)
                result = self._try_map(dfg, ii, order)
                if result is not None:
                    return result
        err = MappingError(self.ladder_fail_message(dfg))
        err.ladder_probed = (start_ii, self.config.max_ii)
        raise err

    # -- the (II, attempt) ladder as data ------------------------------------------
    #
    # The serial `map()` above walks the lattice {(ii, attempt)} in
    # lexicographic order and returns the first success.  The speculative
    # portfolio engine (:mod:`repro.compiler.search`) races the same
    # probes out of order; the helpers below expose the ladder's pieces —
    # start rung, base orders, and the exact per-(ii, attempt) op order —
    # so an out-of-order probe is bit-identical to its serial twin.

    def ladder_start_ii(self, dfg: DFG, *, min_ii: int | None = None) -> int:
        """First II rung of the ladder (MII, floored by *min_ii*).

        Raises :class:`MappingError` for DFGs that can never fit, exactly
        as :meth:`map` would before entering the ladder.
        """
        bound = ii_lower_bound(
            dfg,
            num_pes=len(self.allowed_pes),
            mem_slots=self.mem_slots,
            mem_capable_pes=self._mem_capable_count,
            max_ii=self.config.max_ii,
        )
        start_ii = bound.mii
        if min_ii is not None:
            start_ii = max(start_ii, min_ii)
        return start_ii

    def ladder_fail_message(self, dfg: DFG) -> str:
        """The error text of a ladder exhausted up to ``config.max_ii``."""
        return (
            f"could not map {dfg.name!r} ({dfg.num_ops} ops) on "
            f"{len(self.allowed_pes)} PEs within II <= {self.config.max_ii}"
        )

    def attempt_orders(self, dfg: DFG) -> list[list[int]]:
        """The three base op orders tried at every II rung.

        Reverse dataflow order places consumers before producers, so when
        an op is placed every outgoing edge routes immediately — a value
        can never get trapped by later placements stealing its escape
        slots.  Forward dataflow and slack orders behave better on
        recurrence-heavy graphs, so all three are tried before bumping the
        II; attempts beyond the three are perturbations of the first.
        """
        return [
            self._reverse_dataflow_order(dfg),
            self._dataflow_order(dfg),
            self._priority_order(dfg),
        ]

    def attempt_order(
        self,
        orders: Sequence[Sequence[int]],
        start_ii: int,
        ii: int,
        attempt: int,
    ) -> list[int]:
        """The exact op order the serial ladder uses at (*ii*, *attempt*).

        The serial loop draws perturbations from one rng stream in
        lexicographic (ii, attempt) order, so the order at a given lattice
        point depends on how many perturbed attempts precede it.  Each
        perturbation consumes a fixed amount of rng state (the order length
        never changes), so an independent probe can replay the stream:
        burn the preceding perturbations on scratch copies, then apply the
        real one.  This is what makes out-of-order parallel probes
        byte-identical to the serial ladder.
        """
        if attempt < len(orders):
            return list(orders[attempt])
        per_ii = self.config.attempts_per_ii - len(orders)
        preceding = (ii - start_ii) * per_ii + (attempt - len(orders))
        rng = make_rng(self.config.seed)
        for _ in range(preceding):
            self._perturb(list(orders[0]), rng)
        order = list(orders[0])
        self._perturb(order, rng)
        return order

    def run_lattice_attempt(
        self,
        dfg: DFG,
        start_ii: int,
        ii: int,
        attempt: int,
        orders: Sequence[Sequence[int]],
    ) -> Mapping | None:
        """Run the single lattice probe (*ii*, *attempt*), bit-identical to
        the serial ladder's visit of that point (see :meth:`attempt_order`).
        This is the probe entry point the portfolio engine races."""
        order = self.attempt_order(orders, start_ii, ii, attempt)
        return self._try_map(dfg, ii, order)

    # -- op ordering ---------------------------------------------------------------

    def _priority_order(self, dfg: DFG) -> list[int]:
        """Slack order: ops on the critical path (zero slack) first; among
        equals, deeper (later-ASAP) ops later so producers tend to precede
        consumers."""
        asap = asap_times(dfg)
        alap = alap_times(dfg)
        return sorted(
            materialized_ops(dfg),
            key=lambda v: (alap[v] - asap[v], asap[v], v),
        )

    def _dataflow_order(self, dfg: DFG) -> list[int]:
        """Topological (ASAP) order with low-slack ops first within a
        level: each op is placed while its producers' neighbourhoods still
        have routing headroom."""
        asap = asap_times(dfg)
        alap = alap_times(dfg)
        return sorted(
            materialized_ops(dfg),
            key=lambda v: (asap[v], alap[v] - asap[v], v),
        )

    def _reverse_dataflow_order(self, dfg: DFG) -> list[int]:
        """Deepest ops (stores) first; producers placed after all their
        consumers, so every edge is routed the moment its producer lands."""
        alap = alap_times(dfg)
        asap = asap_times(dfg)
        return sorted(
            materialized_ops(dfg),
            key=lambda v: (-alap[v], alap[v] - asap[v], v),
        )

    @staticmethod
    def _perturb(order: list[int], rng) -> None:
        """Swap a few random pairs — cheap order diversification between
        restart attempts."""
        n = len(order)
        for _ in range(max(1, n // 4)):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            order[i], order[j] = order[j], order[i]

    # -- one attempt -----------------------------------------------------------------

    def _try_map(self, dfg: DFG, ii: int, order: list[int]) -> Mapping | None:
        asap = asap_times(dfg)
        horizon = max(asap.values(), default=0) + self.config.horizon_factor * ii
        st = _Attempt(ReservationTable(self.cgra, ii, self.bus_key))
        self._rank_targets = self._spread_targets(dfg, order)
        for op_id in order:
            if not self._place_op(dfg, ii, st, op_id, asap, horizon):
                return None
        coords = self._gi.coords
        placements = {
            op_id: Placement(op_id, coords[pe_id], t)
            for op_id, (pe_id, t) in st.placements.items()
        }
        return Mapping(self.cgra, dfg, ii, placements, st.routes)

    def _spread_targets(self, dfg: DFG, order: list[int]) -> dict[int, int]:
        """Target fabric rank per op when a ``pe_rank`` is set.

        On a ring/chain-constrained fabric dataflow can only move forward
        through the page chain, so an op with *h* levels of computation
        still below it should sit roughly *h* ranks before the end of the
        chain: ``target = top - height``.  Ops that feed the same consumer
        share a height and thus a target, keeping affine groups together;
        deep sources start at page 0 and never land on the terminal page
        (which the ring makes a dataflow sink).
        """
        if self.pe_rank is None:
            return {}
        import networkx as nx

        ranks = sorted({self.pe_rank(pe) for pe in self.allowed_pes})
        top = len(ranks) - 1
        # Height on the SCC condensation of the *full* dependence graph
        # (loop-carried edges included): a recurrence cycle is one node, so
        # all its ops share a target page — on a chain topology a cycle can
        # never span pages, data cannot flow backwards.
        g = nx.DiGraph()
        g.add_nodes_from(dfg.ops)
        for e in dfg.edges.values():
            if dfg.ops[e.src].opcode is not Opcode.CONST and e.src != e.dst:
                g.add_edge(e.src, e.dst)
        cond = nx.condensation(g)
        height: dict[int, int] = {}
        for scc in reversed(list(nx.topological_sort(cond))):
            succs = list(cond.successors(scc))
            height[scc] = 0 if not succs else 1 + max(height[s] for s in succs)
        # When the graph is deeper than the chain, compress heights
        # proportionally so every page carries a share of the levels
        # instead of everything deep squashing onto page 0.
        max_h = max(height.values(), default=0)
        scale = min(1.0, top / max_h) if max_h else 0.0
        targets: dict[int, int] = {}
        for v in order:
            h = height[cond.graph["mapping"][v]]
            targets[v] = ranks[max(0, top - round(h * scale))]
        return targets

    def _place_op(
        self,
        dfg: DFG,
        ii: int,
        st: _Attempt,
        op_id: int,
        asap: dict[int, int],
        horizon: int,
    ) -> bool:
        op = dfg.ops[op_id]
        self_edges = [e for e in dfg.in_edges(op_id) if e.src == op_id]
        pred_edges = [
            e
            for e in dfg.in_edges(op_id)
            if e.src in st.placements
            and e.src != op_id
            and dfg.ops[e.src].opcode is not Opcode.CONST
        ]
        succ_edges = [
            e
            for e in dfg.out_edges(op_id)
            if e.dst in st.placements and e.dst != op_id
        ]
        t_lo = max(
            [asap[op_id]]
            + [
                st.placements[e.src][1] - e.distance * ii + 1
                for e in pred_edges
            ]
        )
        t_lo = max(t_lo, 0)
        t_hi = horizon
        for e in succ_edges:
            t_hi = min(t_hi, st.placements[e.dst][1] + e.distance * ii - 1)
        if t_lo > t_hi:
            return False
        if not pred_edges and not succ_edges and dfg.in_edges(op_id):
            # anchor-less non-source op: the roots of a reverse-order pass.
            # Placing them at bare ASAP leaves zero slack for the upstream
            # chain to route through the mesh; start them a margin later.
            t_lo = min(t_lo + self.config.root_margin + ii // 2, t_hi)

        anchor_ids = [st.placements[e.src][0] for e in pred_edges] + [
            st.placements[e.dst][0] for e in succ_edges
        ]
        if op.is_memory:
            cap_mask = self._mem_ok
        elif op.opcode is Opcode.ROUTE:
            cap_mask = self._route_ok
        else:
            cap_mask = self._alu_ok
        candidates = self._candidate_pes(anchor_ids, op_id, cap_mask)
        if not candidates:
            return False

        # Cost-based selection: tentatively commit feasible candidates,
        # score them, keep the best.  Each extra cycle of gap costs a route
        # slot, so time and route length are the same currency; the escape
        # term keeps producers' neighbourhoods breathable so later
        # consumers can still be reached (greedy dead-end avoidance).
        best: tuple[float, int, int] | None = None
        feasible_seen = 0
        evals = 0
        mrt = st.mrt
        is_mem = op.is_memory
        for t in range(t_lo, t_hi + 1):
            for pe in candidates:
                counters().placement_probes += 1
                if not mrt.slot_free_id(pe, t):
                    continue
                if is_mem and not mrt.bus_free_id(pe, t):
                    continue
                evals += 1
                cost = self._trial_cost(
                    dfg, ii, st, op_id, pe, t, pred_edges, succ_edges, self_edges
                )
                if cost is not None:
                    cost += 0.25 * (t - t_lo)
                    if best is None or cost < best[0]:
                        best = (cost, pe, t)
                    feasible_seen += 1
                if feasible_seen >= self.config.candidate_cap:
                    break
                if evals >= self.config.eval_budget:
                    break
            if feasible_seen >= self.config.candidate_cap:
                break
            if evals >= self.config.eval_budget:
                break
        if best is None:
            return False
        _, pe, t = best
        return self._commit_candidate(
            dfg, ii, st, op_id, pe, t, pred_edges, succ_edges, self_edges
        )

    def _trial_cost(
        self, dfg, ii, st, op_id, pe_id, t, pred_edges, succ_edges, self_edges
    ) -> float | None:
        """Score a candidate slot by committing it and rolling back.

        Returns None when some edge cannot be routed from this slot.
        Cost = route slots consumed + congestion of this PE's 1-hop
        neighbourhood at the next cycle (the value's escape room).
        """
        if not self._commit_candidate(
            dfg, ii, st, op_id, pe_id, t, pred_edges, succ_edges, self_edges
        ):
            return None
        route_slots = sum(
            len(st.routes[e.id].steps)
            for e in (*pred_edges, *succ_edges, *self_edges)
        )
        # congestion terms, only in the directions with unrouted edges:
        # escape room at t+1 when some consumer is still unplaced, arrival
        # room at t-1 when some producer is still unplaced
        has_open_succ = any(
            e.dst not in st.placements for e in dfg.out_edges(op_id)
        )
        has_open_pred = any(
            e.src not in st.placements for e in dfg.in_edges(op_id)
        )
        mrt = st.mrt
        blocked = 0
        if has_open_succ:
            for nb in self._esc_ids[pe_id]:
                if not mrt.slot_free_id(nb, t + 1):
                    blocked += 1
        if has_open_pred and t >= 1:
            for nb in self._arr_ids[pe_id]:
                if not mrt.slot_free_id(nb, t - 1):
                    blocked += 1
        self._rollback(dfg, st, op_id, pred_edges, succ_edges, self_edges)
        return route_slots + 0.6 * blocked

    def _rollback(self, dfg, st, op_id, pred_edges, succ_edges, self_edges) -> None:
        pe_id, t = st.placements.pop(op_id)
        for e in (*pred_edges, *succ_edges, *self_edges):
            release_route(st.mrt, st.routes.pop(e.id).steps)
        st.mrt.release_id(pe_id, t, memory=dfg.ops[op_id].is_memory)

    def _candidate_pes(
        self,
        anchor_ids: list[int],
        op_id: int | None = None,
        cap_mask: tuple[bool, ...] | None = None,
    ) -> list[int]:
        """Candidate PE ids, closest-to-anchors first.  The final tie-break
        is the PE id itself, which equals the old Coord (row, col) ordering
        — row-major ids are order-isomorphic to Coord's lexicographic
        order, so candidate order is unchanged from the Coord-domain
        placer.

        The pool is pre-filtered by the op's capability mask (heterogeneous
        fabrics only) — illegality is ruled out before enumeration instead
        of discovered per probe."""
        pool: Sequence[int] = self._allowed_ids
        if cap_mask is not None:
            pool = [pid for pid in pool if cap_mask[pid]]
        target = self._rank_targets.get(op_id) if op_id is not None else None
        ranks = self._rank_ids
        man = self._gi.manhattan
        if ranks is not None and target is not None:
            rank_bias = lambda pid: abs(ranks[pid] - target)  # noqa: E731
        else:
            rank_bias = lambda pid: 0  # noqa: E731
        if anchor_ids:
            return sorted(
                pool,
                key=lambda pid: (
                    sum(man[pid][a] for a in anchor_ids),
                    rank_bias(pid),
                    pid,
                ),
            )
        if ranks is not None and target is not None:
            return sorted(pool, key=lambda pid: (rank_bias(pid), pid))
        return list(pool)

    def _commit_candidate(
        self,
        dfg: DFG,
        ii: int,
        st: _Attempt,
        op_id: int,
        pe_id: int,
        t: int,
        pred_edges,
        succ_edges,
        self_edges=(),
    ) -> bool:
        """Claim the op slot and route all its placed-neighbour edges
        (including self-recurrences); roll back entirely on any failure,
        including when the commit would *trap* another placed op by taking
        the last free arrival/escape slot one of its unrouted edges needs."""
        op = dfg.ops[op_id]
        st.mrt.claim_id(pe_id, t, f"op{op_id}", memory=op.is_memory)
        routed: list[tuple[int, tuple[RouteStep, ...], RouteStep | None]] = []
        local_routes: dict[int, tuple[RouteStep, ...]] = {}
        id_of = self._gi.id_of

        def sources_for(src_op_id: int, src_id, src_time_eff, distance):
            """Tappable holders of the value: the producer plus every step
            of sibling routes carrying it (fanout sharing)."""
            out = [(src_id, src_time_eff, None)]
            for e2 in dfg.out_edges(src_op_id):
                if e2.distance != distance:
                    continue
                steps2 = local_routes.get(e2.id)
                if steps2 is None and e2.id in st.routes:
                    steps2 = st.routes[e2.id].steps
                for s2 in steps2 or ():
                    out.append((id_of[s2.pe], s2.time, s2))
            return out

        def route_edge(e, src_id, src_time_eff, dst_id, dst_time) -> bool:
            found = find_route_shared_ids(
                self._route_ctx,
                st.mrt,
                sources_for(e.src, src_id, src_time_eff, e.distance),
                dst_id,
                dst_time,
                max_expansions=self.config.route_budget,
            )
            if found is None:
                return False
            steps, tap = found
            commit_route(st.mrt, e.id, steps)
            routed.append((e.id, steps, tap))
            local_routes[e.id] = steps
            return True

        ok = True
        for e in self_edges:
            if not route_edge(e, pe_id, t - e.distance * ii, pe_id, t):
                ok = False
                break
        for e in pred_edges if ok else ():
            src_id, src_t = st.placements[e.src]
            if not route_edge(e, src_id, src_t - e.distance * ii, pe_id, t):
                ok = False
                break
        if ok:
            for e in succ_edges:
                dst_id, dst_t = st.placements[e.dst]
                if not route_edge(e, pe_id, t - e.distance * ii, dst_id, dst_t):
                    ok = False
                    break
        if ok:
            st.placements[op_id] = (pe_id, t)
            if self._traps_pending_edge(dfg, ii, st):
                del st.placements[op_id]
                ok = False
        if not ok:
            for _, steps, _tap in routed:
                release_route(st.mrt, steps)
            st.mrt.release_id(pe_id, t, memory=op.is_memory)
            return False
        for edge_id, steps, tap in routed:
            st.routes[edge_id] = Route(edge_id, steps, tap)
        # edges between unplaced endpoints are routed when the second
        # endpoint is placed; edges with zero steps still get a Route record
        # so downstream consumers can distinguish "routed, direct" from
        # "not yet routed".
        return True

    def _traps_pending_edge(self, dfg: DFG, ii: int, st: _Attempt) -> bool:
        """Would the current reservations starve a placed op whose edges
        are not all routed yet?

        A placed op with an unplaced producer needs at least as many free
        arrival slots (its 1-hop in-neighbourhood at ``t-1``) as it has
        unrouted operands; one with an unplaced consumer needs at least one
        free escape slot at ``t+1`` for its value to leave.  Rejecting
        candidates that exhaust these slots is what keeps the greedy from
        painting itself into a corner on load/const-heavy graphs.
        """
        mrt = st.mrt
        arr_ids = self._arr_ids
        esc_ids = self._esc_ids
        occ = mrt._occ_mask
        num_pes = mrt.num_pes
        placements = st.placements
        trap_in, trap_out = self._trap_tables(dfg)
        for u_id, (u_pe, u_t) in placements.items():
            srcs = trap_in[u_id]
            if srcs:
                pending_in = 0
                for s in srcs:
                    if s not in placements:
                        pending_in += 1
                if pending_in:
                    need = 2 if pending_in > 1 else 1
                    base = ((u_t - 1) % ii) * num_pes
                    free = 0
                    for nb in arr_ids[u_pe]:
                        if not occ[base + nb]:
                            free += 1
                            if free >= need:
                                break
                    if free < need:
                        return True
            for d in trap_out[u_id]:
                if d not in placements:
                    base = ((u_t + 1) % ii) * num_pes
                    for nb in esc_ids[u_pe]:
                        if not occ[base + nb]:
                            break
                    else:
                        return True
                    break
        return False

    def _trap_tables(self, dfg: DFG) -> tuple[dict, dict]:
        """Per-op operand-source / consumer tables for the trap check,
        memoized per DFG adjacency epoch.  ``trap_in[u]`` lists the
        non-constant producer of every in-edge (duplicates preserved, one
        per edge, matching the historical per-edge count); ``trap_out[u]``
        lists consumer op ids."""
        adj = dfg._adjacency()
        cache = self._trap_cache
        if cache is not None and cache[0] is adj:
            return cache[1], cache[2]
        ins, outs = adj
        ops = dfg.ops
        trap_in = {
            u: tuple(
                e.src
                for e in edges
                if ops[e.src].opcode is not Opcode.CONST
            )
            for u, edges in ins.items()
        }
        trap_out = {u: tuple(e.dst for e in edges) for u, edges in outs.items()}
        self._trap_cache = (adj, trap_in, trap_out)
        return trap_in, trap_out


def map_dfg(
    dfg: DFG,
    cgra: CGRA,
    *,
    config: MapperConfig | None = None,
    min_ii: int | None = None,
    search=None,
) -> Mapping:
    """Map *dfg* onto the whole *cgra* with the baseline (unconstrained)
    compiler.  This produces the paper's ``II_b`` reference points.

    With a live :class:`repro.compiler.search.SearchContext` as *search*
    the (II, attempt) ladder is raced speculatively over its process pool;
    the result is byte-identical to the exact in-process ladder taken
    without one.
    """
    if search is not None:
        from repro.compiler.search import MapperSpec, portfolio_map

        spec = MapperSpec.for_base(cgra, config or MapperConfig())
        return portfolio_map(spec, dfg, cgra=cgra, min_ii=min_ii, ctx=search)
    return EMSMapper(cgra, config=config).map(dfg, min_ii=min_ii)
