"""The paged compiler: baseline engine + the paper's compile-time constraints.

``map_dfg_paged`` runs the EMS-style mapper restricted to the page-covered
PEs, with the ring-topology hop filter and the fold-safe banked bus model,
and wraps the result with its :class:`~repro.core.page_schedule.PageSchedule`
— the page-level view ``P = {p_(n,t)}`` that the PageMaster transformation
(§VI-D) consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.arch.cgra import CGRA
from repro.compiler.check import validate_mapping
from repro.compiler.constraints import paged_bus_key, ring_hop_filter
from repro.compiler.ems import EMSMapper, MapperConfig
from repro.compiler.mapping import Mapping, materialized_ops
from repro.core.page_schedule import PageSchedule, extract_page_schedule
from repro.core.paging import PageLayout
from repro.dfg.analysis import rec_mii
from repro.util.errors import MappingError

__all__ = ["PagedMapping", "map_dfg_paged", "paged_mapper"]


@dataclass
class PagedMapping:
    """A ring-constrained mapping together with its page-level schedule.

    ``layout`` covers exactly the pages the mapping uses (a prefix
    sub-chain after page-need minimisation); ``full_layout`` is the whole
    array's paging, which the runtime uses to place the schedule on *any*
    contiguous page segment.
    """

    mapping: Mapping
    layout: PageLayout
    page_schedule: PageSchedule
    full_layout: PageLayout | None = None

    def __post_init__(self) -> None:
        if self.full_layout is None:
            self.full_layout = self.layout

    @property
    def ii(self) -> int:
        return self.mapping.ii

    @property
    def num_pages(self) -> int:
        return self.layout.num_pages

    @property
    def wrap_used(self) -> bool:
        """Does the schedule depend on the ring-wrap link (last page feeding
        page 0)?  Wrap-free schedules unlock the optimal grouped fold."""
        last = self.layout.num_pages - 1
        return any(
            src[0] == last and dst[0] == 0 and kind == "ring"
            for (src, dst, kind) in self.page_schedule.deps
        )

    @property
    def pages_used(self) -> int:
        """Pages the mapping occupies.  The compiler minimises this subject
        to preserving the II (§VII-B: "in the cases where schedules do not
        use the entire CGRA ... the thread is simply scheduled to the
        unused portion"), so it doubles as the kernel's page *need*."""
        return self.layout.num_pages

    def activity(self) -> tuple[tuple[bool, ...], ...]:
        """Bitmap [page][modulo time] of non-empty page instances — the
        input to activity-aware PageMaster placement."""
        return tuple(
            tuple(
                bool(self.page_schedule.instance(n, t).items)
                for t in range(self.ii)
            )
            for n in range(self.layout.num_pages)
        )

    def page_deps(self) -> frozenset:
        """The observed page-level transfers ``((n_s, t_s), (n_d, t_d))``."""
        return frozenset((src, dst) for (src, dst, _k) in self.page_schedule.deps)

    def summary(self) -> str:
        return (
            f"{self.mapping.summary()} | {self.layout.num_pages} pages of "
            f"{self.layout.shape[0]}x{self.layout.shape[1]}"
        )


def map_dfg_paged(
    dfg,
    cgra: CGRA,
    layout: PageLayout,
    *,
    config: MapperConfig | None = None,
    min_ii: int | None = None,
    minimize_pages: bool = True,
    search=None,
) -> PagedMapping:
    """Map *dfg* onto the paged CGRA under the §VI-B constraints.

    By default the mapper first tries the *chain* topology (ring minus the
    wrap link — a legal subset per §VI-B — which makes the optimal grouped
    fold available for every divisor page count).  If that fails and the
    layout's wrap pair is physically adjacent, it retries with the full
    ring; the resulting mapping may then only be shrunk with the zigzag
    transformation.  Every mapping is checked by
    :func:`~repro.compiler.check.validate_mapping` against the ring
    constraints before it is returned.

    With ``minimize_pages`` (the default) the compiler then re-maps the
    kernel onto the smallest page *prefix* that preserves the achieved II —
    the paper's Fig. 6 mapping "only uses 3 pages", and §VII-B schedules
    other threads onto the unused portion without any transformation.  The
    returned mapping's layout covers exactly :attr:`PagedMapping.pages_used`
    pages.

    With a live :class:`repro.compiler.search.SearchContext` as *search*
    every inner (II, attempt) ladder — chain pass, ring fallback,
    page-minimisation passes — races speculative probes over its process
    pool with canonical reduction; artifacts are byte-identical to the
    serial path at any worker count.
    """
    if layout.cgra is not cgra:
        raise MappingError("layout was built for a different CGRA instance")
    best = _map_topologies(dfg, cgra, layout, config, min_ii, search)
    if not minimize_pages or best.layout.num_pages <= 1:
        return best
    base_cfg = config or MapperConfig()
    n_mat = len(materialized_ops(dfg))
    slots_per_page = layout.page_size * best.ii
    mem_per_page = layout.shape[0] * cgra.mem_ports_per_row * best.ii
    k_min = max(
        1,
        math.ceil(n_mat / slots_per_page),
        math.ceil(dfg.num_memory_ops / max(1, mem_per_page)),
    )
    tight = replace(base_cfg, max_ii=best.ii)
    for k in range(k_min, best.layout.num_pages):
        try:
            sub = layout.subchain(k)
            candidate = _map_once(
                dfg, cgra, sub, tight, min_ii, full_layout=layout, search=search
            )
        except MappingError:
            continue
        if candidate.ii <= best.ii:
            return candidate
    return best


def _map_topologies(
    dfg,
    cgra: CGRA,
    layout: PageLayout,
    config,
    min_ii,
    search=None,
) -> PagedMapping:
    can_fall_back = not layout.allow_wrap and layout.ring_wrap_adjacent
    first_config = config
    if can_fall_back:
        # bound the chain pass so a hard kernel falls back to the full ring
        # quickly instead of escalating the II all the way to max_ii
        base = config or MapperConfig()
        covered = sum(1 for pe in cgra.coords() if pe in layout.page_of)
        floor_ii = max(
            math.ceil(len(materialized_ops(dfg)) / covered),
            rec_mii(dfg),
            1,
        )
        first_config = replace(base, max_ii=min(base.max_ii, 3 * floor_ii + 6))
    try:
        return _map_once(dfg, cgra, layout, first_config, min_ii, search=search)
    except MappingError as chain_exc:
        if not can_fall_back:
            raise
        # When the bounded chain pass exhausted its ladder (rather than
        # failing before it), it proved every rung up to its II cap fails
        # in exactly the context the unbounded retry below re-enters —
        # same layout, mapper geometry and config apart from max_ii.  The
        # retry resumes above the cap; rng anchoring keeps it byte-equal.
        probed = getattr(chain_exc, "ladder_probed", None)
        ring_layout = PageLayout(cgra, layout.shape, allow_wrap=True)
        try:
            return _map_once(dfg, cgra, ring_layout, config, min_ii, search=search)
        except MappingError:
            # last resort: the chain again, unbounded II
            return _map_once(
                dfg, cgra, layout, config, min_ii, search=search,
                resume_ii=probed[1] + 1 if probed is not None else None,
            )


def paged_mapper(
    cgra: CGRA, layout: PageLayout, config: MapperConfig | None
) -> EMSMapper:
    """The ring-constrained mapper of *layout*: the §VI-B wiring (covered
    PEs, ring hop filter, banked bus key, page-rank bias) shared by the
    serial path and the portfolio's :class:`~repro.compiler.search.
    MapperSpec`."""
    allowed = [pe for pe in cgra.coords() if pe in layout.page_of]
    mem_slots = layout.num_pages * layout.shape[0] * cgra.mem_ports_per_row
    return EMSMapper(
        cgra,
        allowed_pes=allowed,
        hop_allowed=ring_hop_filter(layout),
        mem_slots_per_cycle=mem_slots,
        bus_key=paged_bus_key(layout),
        pe_rank=lambda pe: layout.page_of[pe],
        config=config,
    )


def _map_once(
    dfg,
    cgra: CGRA,
    layout: PageLayout,
    config,
    min_ii,
    full_layout: PageLayout | None = None,
    search=None,
    resume_ii=None,
) -> PagedMapping:
    hop = ring_hop_filter(layout)
    allowed = [pe for pe in cgra.coords() if pe in layout.page_of]
    if search is not None:
        from repro.compiler.search import MapperSpec, portfolio_map

        spec = MapperSpec.for_paged(cgra, layout, config or MapperConfig())
        mapping = portfolio_map(
            spec, dfg, cgra=cgra, min_ii=min_ii, resume_ii=resume_ii,
            ctx=search,
        )
    else:
        mapping = paged_mapper(cgra, layout, config).map(
            dfg, min_ii=min_ii, resume_ii=resume_ii
        )
    validate_mapping(
        mapping,
        allowed_pes=allowed,
        hop_allowed=hop,
        bus_key=paged_bus_key(layout),
    )
    schedule = extract_page_schedule(mapping, layout)
    return PagedMapping(mapping, layout, schedule, full_layout)
