//! The generic speculative two-stage pipeline kernel shared by every router
//! scheme in the workspace.
//!
//! # Pipeline (Peh & Dally, HPCA 2001; paper Figs. 2 and 6)
//!
//! | cycle | stage |
//! |-------|-------|
//! | t     | **BW** — arriving flit written into its input-VC buffer |
//! | t + 1 | **VA ∥ SA** — headers get an output VC; switch arbitration runs speculatively in parallel |
//! | t + 2 | **ST** — granted flit traverses the crossbar (lookahead RC folded in) |
//!
//! [`PipelineKernel`] owns everything the paper's schemes have in common:
//! input-VC state, output-port credit books and VC allocation, the separable
//! round-robin VA and SA allocators over word-resident request masks,
//! ST-grant queues, the zero-allocation scratch storage, and the full
//! stats/energy/metrics/trace plumbing. A scheme plugs in through
//! [`SchemeHooks`]: the pseudo-circuit router (`pseudo-circuit` crate)
//! implements circuit termination/reuse/bypass/speculation on top of the
//! kernel, the EVC router (`noc-evc` crate) the express latch and the
//! NVC/EVC split — each as a thin hook set rather than a second copy of the
//! pipeline.
//!
//! # Structure-of-arrays state (DESIGN.md §15)
//!
//! Per-VC and per-output-VC state is stored in flat parallel arrays indexed
//! by `in_port * vcs + vc` (and `out_port * vcs + vc` on the output side),
//! not in nested per-port structs: the VA/SA mask loops re-check candidates
//! by walking set bits of masks whose bit positions ARE those slot indices,
//! so each re-check is a couple of contiguous array loads instead of two
//! pointer chases. The layout is private; scheme hooks go through the
//! accessor methods (`input_route`, `claim_input_vc`, `credits_available`,
//! `claim_out_vc`, `in_busy`, …), which also keep the incremental candidate
//! masks coherent. Behavioral equivalence with the pre-SoA kernel is pinned
//! by the byte-identical golden reports under `tests/golden/`.
//!
//! # Word-resident allocator masks (DESIGN.md §14)
//!
//! Every allocator mask is flat `u64` word storage (`noc_base::bitset`), bit
//! `i` in word `i / 64`:
//!
//! | mask | positions | words |
//! |------|-----------|-------|
//! | `va_cand`, each `va_req` row | `in_ports * vcs` slots | `ceil(slots / 64)` |
//! | `sa_cand`, `sa_credit`, first-stage SA requests | one port's VCs | 1 (`vcs ≤ 64`) |
//! | each `sa_out_*` row | input ports | `ceil(in_ports / 64)` |
//! | `va_out_pending`, `sa_out_pending`, `out_busy` | output ports | `ceil(out_ports / 64)` |
//! | `in_busy` | input ports | `ceil(in_ports / 64)` |
//!
//! A per-port family (`va_req`, `sa_out_*`) is one `MaskRows` allocation,
//! one row per output port; the per-port VC masks are one `u64` per port,
//! and the first-stage SA requests are two `u64` locals. On every router
//! whose masks fit 64 positions — every mesh, CMesh, ring, and the paper's
//! MECS and flattened butterfly at 4 VCs — each mask is a single word: a
//! scan reads one `u64` out of a contiguous array and a grant is one
//! rotate-and-count-trailing-zeros ([`BitArbiter::grant_word`]). Wider
//! routers run the same scans and [`BitArbiter::grant`] over more words;
//! there is no second kernel path. [`NetworkConfig::MAX_VCS_PER_PORT`]
//! bounds the one dimension the layout fixes, and the CLI and campaign front
//! ends reject larger VC counts before a simulation is built.
//! `tests/wide_masks.rs` pins reports of routers whose masks span two and
//! three words.
//!
//! Beside the allocator masks, each output sub-channel has one credit
//! availability word (bit `vc` set iff that VC's counter is nonzero). It
//! flips at the same 0↔1 counter transitions that maintain the SA credit
//! gate and answers [`PipelineKernel::sub_has_credit`] — the port-level
//! credit condition of the pseudo-circuit hooks — with one load.

use crate::blocks::FifoBank;
use crate::metrics::RouterObservation;
use crate::metrics::{MetricsConfig, MetricsLevel, PipelineStage, TraceEventKind, TraceRing};
use crate::probe::{Probe, RouterCounters};
use crate::router::{RouterOutputs, RouterStats, SentFlit};
use crate::{lookahead_route, NetworkConfig};
use noc_base::bitset::{any_bit, assign_bit, clear_bit, clear_words, set_bit, test_bit, words_for};
use noc_base::{BitArbiter, MaskRows};
use noc_base::{Credit, Flit, FlitPool, FlitRef, PortIndex, RouteInfo, RouterId, VcIndex};
use noc_energy::{EnergyCounters, EnergyEvent};
use noc_topology::SharedTopology;
use std::sync::Arc;

/// A switch-arbitration grant waiting for its switch-traversal cycle.
#[derive(Copy, Clone, Debug)]
struct StGrant {
    in_port: PortIndex,
    vc: VcIndex,
}

/// Scheme-specific extension points of the pipeline kernel.
///
/// [`PipelineKernel::step`] calls these in a fixed order (the phase letters
/// mirror the pre-kernel routers):
///
/// 1. [`begin_cycle`](Self::begin_cycle) — before any traversal (phase A:
///    pseudo-circuit credit-exhaustion termination);
/// 2. ST drain of last cycle's SA grants (kernel);
/// 3. [`drain_reuse`](Self::drain_reuse) — scheme-driven traversals from the
///    buffers (phase C: pseudo-circuit reuse);
/// 4. arrival acceptance (kernel), each arrival first offered to
///    [`try_arrival_intercept`](Self::try_arrival_intercept) (phase D:
///    buffer bypass / express latch);
/// 5. VC allocation (kernel), candidate classification via
///    [`allocate_out_vc`](Self::allocate_out_vc) (phase E);
/// 6. switch arbitration (kernel), with
///    [`sa_skip`](Self::sa_skip) filtering candidates and
///    [`on_sa_grant`](Self::on_sa_grant) fired per grant (phase F);
/// 7. [`end_cycle`](Self::end_cycle) — after all allocation (phase G:
///    speculation, stat mirrors, invariant checks).
///
/// Hooks receive `&mut PipelineKernel` and use its accessor methods and
/// helpers ([`PipelineKernel::send_flit`],
/// [`PipelineKernel::traverse_from_buffer`], [`PipelineKernel::trace`])
/// freely; the kernel guarantees no internal borrow is held across a hook
/// call. The claim/release accessors refresh the incremental candidate masks
/// themselves, so hooks never touch tracked VC state behind the masks' back.
pub trait SchemeHooks {
    /// Runs before any traversal of the cycle.
    fn begin_cycle(&mut self, _k: &mut PipelineKernel, _cycle: u64) {}

    /// Runs after the ST drain, before arrivals: scheme-driven buffer
    /// traversals that skip switch arbitration.
    fn drain_reuse(&mut self, _k: &mut PipelineKernel, _cycle: u64, _out: &mut RouterOutputs) {}

    /// Offered each arriving flit before it is buffered. Returning `true`
    /// consumes the flit (it was forwarded through a latch and must not be
    /// written to the buffer). `r` is the flit's pool handle (what a latch
    /// forwards via [`PipelineKernel::send_flit`]); schemes that need the
    /// flit's fields read them through `k.pool().get(r)` — after their cheap
    /// port-state early-outs, so the common non-intercepted arrival never
    /// touches the flit body here.
    fn try_arrival_intercept(
        &mut self,
        _k: &mut PipelineKernel,
        _cycle: u64,
        _in_port: PortIndex,
        _r: FlitRef,
        _out: &mut RouterOutputs,
    ) -> bool {
        false
    }

    /// VC allocation for one header that won the VA arbitration: choose and
    /// claim an output VC on `flit.route.port` for `owner`, or decline.
    /// Returns the VC and the express-hop budget to store in the input VC's
    /// state (0 for non-express schemes).
    fn allocate_out_vc(
        &mut self,
        k: &mut PipelineKernel,
        flit: &Flit,
        owner: (PortIndex, VcIndex),
    ) -> Option<(VcIndex, u8)>;

    /// Whether an otherwise-eligible SA candidate must not request the
    /// switch this cycle (pseudo-circuit: flits covered by a live matching
    /// circuit drain through the held connection instead, §III.B).
    fn sa_skip(&self, _in_port: PortIndex, _vc: VcIndex, _route: RouteInfo) -> bool {
        false
    }

    /// Fired for every switch-arbitration grant, after the kernel has
    /// reserved the credit and queued the traversal (pseudo-circuit:
    /// (re)establish the connection's circuit).
    fn on_sa_grant(
        &mut self,
        _k: &mut PipelineKernel,
        _cycle: u64,
        _in_port: PortIndex,
        _vc: VcIndex,
        _route: RouteInfo,
    ) {
    }

    /// Runs after all allocation of the cycle (pseudo-circuit: speculation,
    /// termination-counter mirrors, invariant checks).
    fn end_cycle(&mut self, _k: &mut PipelineKernel, _cycle: u64) {}
}

/// The shared speculative two-stage pipeline core. See the module docs for
/// the kernel/hooks split and the structure-of-arrays layout.
pub struct PipelineKernel {
    /// This router's id.
    pub id: RouterId,
    /// The network topology (for lookahead routing and express walks).
    pub topo: SharedTopology,
    /// Local (injection/ejection) ports per router.
    pub concentration: usize,
    /// Buffered flits per input port across all its VCs; lets the VA/SA
    /// scans and scheme hooks skip empty ports without touching their VC
    /// state (every candidate in those scans requires a buffered flit).
    pub in_occupancy: Vec<u32>,
    /// Aggregate router statistics.
    pub stats: RouterStats,
    /// Energy event counters.
    pub energy: EnergyCounters,
    /// Per-port observability counters; `None` (one null test per event)
    /// unless built at [`MetricsLevel::Full`] — see [`crate::probe`].
    pub counters: Option<Box<RouterCounters>>,
    /// Lifecycle tracer; `None` unless this router was selected by a
    /// [`crate::TraceSpec`].
    pub tracer: Option<Box<TraceRing>>,
    /// Whether `send_flit` counts header crossbar traversals into
    /// [`RouterStats::header_traversals`] (the pseudo-circuit reuse-rate
    /// denominator; schemes without that stat leave it 0).
    count_header_traversals: bool,
    vcs: usize,
    in_ports: usize,
    out_ports: usize,
    // Crossbar connections taken this cycle, one bit per input / output
    // port (read through `in_busy` / `out_busy`).
    in_busy: Vec<u64>,
    out_busy: Vec<u64>,
    // The shared flit slab; buffers and emissions move `FlitRef`s, flit
    // bodies are read/written in place through the pool.
    pool: Arc<FlitPool>,
    // Input-VC state, structure-of-arrays over slot `in_port * vcs + vc`
    // (DESIGN.md §15). Each array holds one field for every input VC, so
    // the mask-loop re-checks touch only the arrays they need.
    //
    // Every VC's flit buffer, as one bank of fixed-stride ring buffers over
    // two contiguous arrays (DESIGN.md §19) indexed by the same slot scheme.
    bank: FifoBank,
    // Route of the packet currently holding the VC (set when its header
    // traverses or is granted VA; cleared at the tail).
    routes: Vec<Option<RouteInfo>>,
    // Output VC allocated to the current packet.
    out_vcs: Vec<Option<VcIndex>>,
    // Cycle at which VA was granted (marks same-cycle SA requests as
    // speculative); `u64::MAX` when no grant is pending.
    va_cycles: Vec<u64>,
    // Express-hop budget the packet's flits carry out of this router (EVC:
    // `l_max - 1` for an express segment, 0 otherwise; decided at VA).
    express: Vec<u8>,
    // Whether the VC was claimed by an express stream latching through (no
    // flits buffered, but the output VC is held). Cleared whenever a flit
    // is buffered into the VC.
    pass_through: Vec<bool>,
    // Output-side state, flattened. `out_owners` is indexed
    // `out_port * vcs + vc`. Sub-channels are numbered port by port:
    // `(out_port, sub)` is sub-channel `sub_base[out_port] + sub` (ports have
    // differing sub-channel counts, so a per-port base offset replaces a
    // fixed stride), with `sub_base[out_ports]` the total. The credit
    // counters are indexed `sub_channel * vcs + vc`.
    out_owners: Vec<Option<(PortIndex, VcIndex)>>,
    credits: Vec<u32>,
    sub_base: Vec<usize>,
    credit_capacity: u32,
    // One word per sub-channel, bit `vc` set iff that VC's credit counter is
    // nonzero (`vcs ≤ 64`, so one word covers a sub-channel). Flipped only at
    // a counter's 0↔1 transitions, in `note_credit_gate`; read by
    // `sub_has_credit`, the port-level credit condition of the
    // pseudo-circuit hooks (termination §III.C, speculation §IV.A), in one
    // load instead of a sum over the counters.
    credit_avail: Vec<u64>,
    arrivals: Vec<(PortIndex, FlitRef)>,
    st_pending: Vec<StGrant>,
    last_connection: Vec<Option<PortIndex>>,
    // Per `(out_port, out_vc)` slot: the lookahead route the last *header*
    // sent through that connection computed. Body/tail flits reuse it —
    // wormhole ordering means a packet's header traverses first on its
    // claimed output VC, and `dst`/`mode`/the connection's route are
    // per-packet constants, so the cached value is exact for the packet's
    // remaining flits (they'd recompute the identical `RouteInfo`). Saves
    // two virtual topology calls + coordinate arithmetic per non-header
    // traversal.
    lookahead_cache: Vec<Option<RouteInfo>>,
    in_arb: Vec<BitArbiter>,
    va_arb: Vec<BitArbiter>,
    out_arb: Vec<BitArbiter>,
    // Allocator masks (DESIGN.md §14), all flat word storage: a mask over
    // ≤ 64 positions is one `u64`, a per-port family is one `MaskRows`
    // allocation, and wider routers use the same code over more words.
    //
    // The candidate masks are maintained incrementally — by
    // `refresh_vc_masks` at every VC state transition, NOT rebuilt per
    // cycle; the VA/SA scans visit only their set bits. A stale bit here is
    // a correctness bug (a candidate the allocators never see), which is why
    // all writes to the tracked fields funnel through the kernel helpers and
    // claim/release accessors.
    //
    // Bit `in_port * vcs + vc` (`words_for(in_ports * vcs)` words): the VC
    // holds flits and no route/output VC — it may request VA once its head
    // is ready.
    va_cand: Vec<u64>,
    // One word per input port, bit `vc` (the config bounds `vcs` to one
    // word): the VC holds flits, has route + output VC, and is not an
    // express pass-through claim — it may request SA.
    sa_cand: Vec<u64>,
    // One word per input port, bit `vc`: the claimed VC's gating credit
    // counter `(route.port, route.hops-1, out_vc)` is nonzero. Maintained
    // exactly: `refresh_credit_gate` recomputes it at every claim/release
    // and `note_credit_gate` propagates every 0↔1 transition of a counter to
    // its owner's bit, so the SA scan ANDs it with `sa_cand` and skips
    // credit-starved VCs without visiting them — at saturation most
    // candidates are credit-blocked every cycle, which is exactly when the
    // scan is longest. Bits of unclaimed VCs are clear (never read: the AND
    // with `sa_cand` masks them out).
    sa_credit: Vec<u64>,
    // Reusable per-cycle working storage, so `step` never allocates once the
    // queues reach steady-state capacity.
    st_scratch: Vec<StGrant>,
    arrivals_scratch: Vec<(PortIndex, FlitRef)>,
    // One row per output port: this cycle's VA requests over the
    // `in_ports * vcs` flattened slots; plus the mask of output ports with
    // any request. All clear between cycles.
    va_req: MaskRows,
    va_out_pending: Vec<u64>,
    sa_winners: Vec<Option<(VcIndex, RouteInfo, VcIndex, bool)>>,
    sa_picks: Vec<(PortIndex, VcIndex, RouteInfo, VcIndex)>,
    // One row per output port: this cycle's second-stage SA requests over
    // input ports, split non-speculative / speculative; plus the mask of
    // output ports with any first-stage winner. All clear between cycles.
    sa_out_nonspec: MaskRows,
    sa_out_spec: MaskRows,
    sa_out_pending: Vec<u64>,
}

impl PipelineKernel {
    /// Builds the kernel for one router. `count_header_traversals` selects
    /// whether header crossbar traversals feed
    /// [`RouterStats::header_traversals`]. `pool` is the network-wide flit
    /// slab the router's buffers reference into.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`NetworkConfig::validate`] on `topo`.
    pub fn new(
        id: RouterId,
        topo: SharedTopology,
        config: NetworkConfig,
        count_header_traversals: bool,
        pool: Arc<FlitPool>,
    ) -> Self {
        let in_ports = topo.in_ports(id);
        let out_ports = topo.out_ports(id);
        config
            .validate(topo.as_ref())
            .unwrap_or_else(|e| panic!("invalid network configuration: {e}"));
        let vcs = config.vcs_per_port as usize;
        let slots = in_ports * vcs;
        // Per-port sub-channel ranges: `channel_len` sub-channels each, laid
        // out back to back in output-port order.
        let mut sub_base = Vec::with_capacity(out_ports + 1);
        let mut total_subs = 0usize;
        sub_base.push(0);
        for p in 0..out_ports {
            total_subs += topo.channel_len(id, PortIndex::new(p)) as usize;
            sub_base.push(total_subs);
        }
        // Every counter starts at the (nonzero) buffer depth: all VCs of
        // every sub-channel available.
        let all_vcs = u64::MAX >> (64 - vcs);
        Self {
            id,
            concentration: topo.concentration(),
            topo,
            // All per-cycle queues are reserved to their structural maxima so
            // steady-state stepping never allocates (tests/zero_alloc.rs).
            in_occupancy: vec![0; in_ports],
            stats: RouterStats::default(),
            energy: EnergyCounters::default(),
            counters: None,
            tracer: None,
            count_header_traversals,
            vcs,
            in_ports,
            out_ports,
            in_busy: vec![0; words_for(in_ports)],
            out_busy: vec![0; words_for(out_ports)],
            pool,
            bank: FifoBank::new(slots, config.buffer_depth as usize),
            routes: vec![None; slots],
            out_vcs: vec![None; slots],
            va_cycles: vec![u64::MAX; slots],
            express: vec![0; slots],
            pass_through: vec![false; slots],
            out_owners: vec![None; out_ports * vcs],
            credits: vec![config.buffer_depth; total_subs * vcs],
            sub_base,
            credit_capacity: config.buffer_depth,
            credit_avail: vec![all_vcs; total_subs],
            arrivals: Vec::with_capacity(in_ports),
            st_pending: Vec::with_capacity(in_ports),
            last_connection: vec![None; in_ports],
            lookahead_cache: vec![None; out_ports * vcs],
            in_arb: (0..in_ports).map(|_| BitArbiter::new(vcs)).collect(),
            va_arb: (0..out_ports)
                .map(|_| BitArbiter::new(in_ports * vcs))
                .collect(),
            out_arb: (0..out_ports).map(|_| BitArbiter::new(in_ports)).collect(),
            va_cand: vec![0; words_for(slots)],
            sa_cand: vec![0; in_ports],
            sa_credit: vec![0; in_ports],
            st_scratch: Vec::with_capacity(in_ports),
            arrivals_scratch: Vec::with_capacity(in_ports),
            va_req: MaskRows::new(out_ports, slots),
            va_out_pending: vec![0; words_for(out_ports)],
            sa_winners: vec![None; in_ports],
            sa_picks: Vec::with_capacity(out_ports),
            sa_out_nonspec: MaskRows::new(out_ports, in_ports),
            sa_out_spec: MaskRows::new(out_ports, in_ports),
            sa_out_pending: vec![0; words_for(out_ports)],
        }
    }

    /// The flat slot of input VC `(in_port, vc)`: `in_port * vcs + vc`, the
    /// same index the VA candidate mask uses for its bits.
    #[inline]
    fn slot(&self, in_port: PortIndex, vc: VcIndex) -> usize {
        debug_assert!(in_port.index() < self.in_ports && vc.index() < self.vcs);
        in_port.index() * self.vcs + vc.index()
    }

    /// The flat slot of output VC `(out_port, vc)` in the owner table.
    #[inline]
    fn out_slot(&self, out_port: PortIndex, vc: VcIndex) -> usize {
        debug_assert!(out_port.index() < self.out_ports && vc.index() < self.vcs);
        out_port.index() * self.vcs + vc.index()
    }

    /// The flat index of sub-channel `(out_port, sub)`: the index of its
    /// availability word; its credit counters follow at `index * vcs + vc`.
    #[inline]
    fn sub_channel(&self, out_port: PortIndex, sub: usize) -> usize {
        let idx = self.sub_base[out_port.index()] + sub;
        debug_assert!(
            idx < self.sub_base[out_port.index() + 1],
            "sub-channel {sub} out of range on {out_port}"
        );
        idx
    }

    /// The flat index of the `(out_port, sub, vc)` credit counter.
    #[inline]
    fn credit_slot(&self, out_port: PortIndex, sub: usize, vc: VcIndex) -> usize {
        self.sub_channel(out_port, sub) * self.vcs + vc.index()
    }

    /// Re-derives the VA/SA candidate-mask bits of one input VC from its
    /// current state (DESIGN.md §14). The kernel calls this after every state
    /// transition it owns (buffer push, buffer pop, VA grant, tail release);
    /// the claim/release accessors scheme hooks mutate VC state through call
    /// it internally — a missed refresh silently hides the VC from the
    /// allocators, which is a correctness bug, not a performance bug.
    #[inline]
    pub fn refresh_vc_masks(&mut self, in_port: PortIndex, vc: VcIndex) {
        let slot = self.slot(in_port, vc);
        let has_flits = !self.bank.is_empty(slot);
        let claimed = self.routes[slot].is_some() && self.out_vcs[slot].is_some();
        let unclaimed = self.routes[slot].is_none() && self.out_vcs[slot].is_none();
        assign_bit(&mut self.va_cand, slot, has_flits && unclaimed);
        assign_vc_bit(
            &mut self.sa_cand[in_port.index()],
            vc,
            has_flits && claimed && !self.pass_through[slot],
        );
    }

    /// Recomputes the [`sa_credit`](Self::sa_credit) bit of `(in_port, vc)`
    /// from its claim's gating counter. Called at every claim/release of
    /// the VC's route + output VC — NOT at buffer push/pop, which cannot
    /// change the gating counter; 0↔1 counter transitions between claims
    /// are propagated by [`note_credit_gate`](Self::note_credit_gate).
    #[inline]
    fn refresh_credit_gate(&mut self, in_port: PortIndex, vc: VcIndex) {
        let slot = self.slot(in_port, vc);
        let credit_ok = match (self.routes[slot], self.out_vcs[slot]) {
            (Some(route), Some(out_vc)) => {
                self.credits_available(route.port, route.hops as usize - 1, out_vc) > 0
            }
            _ => false,
        };
        assign_vc_bit(&mut self.sa_credit[in_port.index()], vc, credit_ok);
    }

    /// Whether input port `port`'s crossbar connection is taken this cycle.
    #[inline]
    pub fn in_busy(&self, port: PortIndex) -> bool {
        test_bit(&self.in_busy, port.index())
    }

    /// Whether output port `port`'s crossbar connection is taken this cycle.
    #[inline]
    pub fn out_busy(&self, port: PortIndex) -> bool {
        test_bit(&self.out_busy, port.index())
    }

    /// Virtual channels per port.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// The shared flit slab this router references into.
    #[inline]
    pub fn pool(&self) -> &Arc<FlitPool> {
        &self.pool
    }

    /// Input ports of this router.
    pub fn num_in_ports(&self) -> usize {
        self.in_ports
    }

    /// Output ports of this router.
    pub fn num_out_ports(&self) -> usize {
        self.out_ports
    }

    /// Route held by input VC `(in_port, vc)`, if any.
    #[inline]
    pub fn input_route(&self, in_port: PortIndex, vc: VcIndex) -> Option<RouteInfo> {
        self.routes[self.slot(in_port, vc)]
    }

    /// Output VC held by input VC `(in_port, vc)`, if any.
    #[inline]
    pub fn input_out_vc(&self, in_port: PortIndex, vc: VcIndex) -> Option<VcIndex> {
        self.out_vcs[self.slot(in_port, vc)]
    }

    /// Whether `(in_port, vc)` is held by an express pass-through claim.
    #[inline]
    pub fn input_pass_through(&self, in_port: PortIndex, vc: VcIndex) -> bool {
        self.pass_through[self.slot(in_port, vc)]
    }

    /// Whether the buffer of `(in_port, vc)` is empty.
    #[inline]
    pub fn input_empty(&self, in_port: PortIndex, vc: VcIndex) -> bool {
        self.bank.is_empty(self.slot(in_port, vc))
    }

    /// The head flit of `(in_port, vc)` if it is ready at `cycle`, read in
    /// place from the pool.
    #[inline]
    pub fn input_head_ready(&self, in_port: PortIndex, vc: VcIndex, cycle: u64) -> Option<&Flit> {
        self.bank
            .head_ready(self.slot(in_port, vc), cycle)
            .map(|r| self.pool.get(r))
    }

    /// Claims input VC `(in_port, vc)` for a packet: stores its route and
    /// output VC and refreshes the candidate masks. Used by scheme paths
    /// that grant VA outside the kernel's VA phase (pseudo-circuit reuse and
    /// bypass); the VA-grant cycle stays unset, marking later SA requests
    /// non-speculative.
    pub fn claim_input_vc(
        &mut self,
        in_port: PortIndex,
        vc: VcIndex,
        route: RouteInfo,
        out_vc: VcIndex,
    ) {
        let slot = self.slot(in_port, vc);
        self.routes[slot] = Some(route);
        self.out_vcs[slot] = Some(out_vc);
        self.refresh_vc_masks(in_port, vc);
        self.refresh_credit_gate(in_port, vc);
    }

    /// Claims input VC `(in_port, vc)` for an express stream latching
    /// through (EVC): like [`claim_input_vc`](Self::claim_input_vc) but
    /// marks the claim pass-through, which keeps the VC out of the SA
    /// candidate mask until a flit actually buffers.
    pub fn claim_pass_through(
        &mut self,
        in_port: PortIndex,
        vc: VcIndex,
        route: RouteInfo,
        out_vc: VcIndex,
    ) {
        let slot = self.slot(in_port, vc);
        self.routes[slot] = Some(route);
        self.out_vcs[slot] = Some(out_vc);
        self.pass_through[slot] = true;
        self.refresh_vc_masks(in_port, vc);
        self.refresh_credit_gate(in_port, vc);
    }

    /// Releases every per-packet claim of input VC `(in_port, vc)` (route,
    /// output VC, VA cycle, express budget, pass-through) and refreshes the
    /// candidate masks. The tail-flit counterpart of the claim accessors;
    /// the output-VC allocation itself is released separately via
    /// [`release_out_vc`](Self::release_out_vc).
    pub fn release_input_vc(&mut self, in_port: PortIndex, vc: VcIndex) {
        let slot = self.slot(in_port, vc);
        self.routes[slot] = None;
        self.out_vcs[slot] = None;
        self.va_cycles[slot] = u64::MAX;
        self.express[slot] = 0;
        self.pass_through[slot] = false;
        self.refresh_vc_masks(in_port, vc);
        assign_vc_bit(&mut self.sa_credit[in_port.index()], vc, false);
    }

    /// Whether output VC `(out_port, vc)` is unallocated.
    #[inline]
    pub fn out_vc_is_free(&self, out_port: PortIndex, vc: VcIndex) -> bool {
        self.out_owners[self.out_slot(out_port, vc)].is_none()
    }

    /// Allocates output VC `(out_port, vc)` to `owner`.
    ///
    /// # Panics
    ///
    /// Panics if the VC is already allocated.
    pub fn claim_out_vc(&mut self, out_port: PortIndex, vc: VcIndex, owner: (PortIndex, VcIndex)) {
        let slot = self.out_slot(out_port, vc);
        assert!(
            self.out_owners[slot].is_none(),
            "output VC {vc} on {out_port} already allocated"
        );
        self.out_owners[slot] = Some(owner);
    }

    /// Frees output VC `(out_port, vc)` (idempotent).
    pub fn release_out_vc(&mut self, out_port: PortIndex, vc: VcIndex) {
        let slot = self.out_slot(out_port, vc);
        self.out_owners[slot] = None;
    }

    /// Downstream credits of `(out_port, sub, vc)`.
    #[inline]
    pub fn credits_available(&self, out_port: PortIndex, sub: usize, vc: VcIndex) -> u32 {
        self.credits[self.credit_slot(out_port, sub, vc)]
    }

    /// Whether any VC of `(out_port, sub)` has a downstream credit: one
    /// availability-word load. The port-level credit condition of circuit
    /// termination (§III.C) and speculation (§IV.A).
    #[inline]
    pub fn sub_has_credit(&self, out_port: PortIndex, sub: usize) -> bool {
        let sc = self.sub_channel(out_port, sub);
        debug_assert_eq!(
            self.credit_avail[sc],
            self.credits[sc * self.vcs..(sc + 1) * self.vcs]
                .iter()
                .enumerate()
                .fold(0u64, |w, (vc, &c)| w | u64::from(c > 0) << vc),
            "stale credit availability word at {out_port} sub {sub}"
        );
        self.credit_avail[sc] != 0
    }

    /// Reserves one downstream credit of `(out_port, sub, vc)`.
    ///
    /// # Panics
    ///
    /// Panics on credit underflow (a flow-control bug).
    pub fn consume_credit(&mut self, out_port: PortIndex, sub: usize, vc: VcIndex) {
        let slot = self.credit_slot(out_port, sub, vc);
        assert!(
            self.credits[slot] > 0,
            "credit underflow at {out_port} sub {sub} {vc}"
        );
        self.credits[slot] -= 1;
        if self.credits[slot] == 0 {
            self.note_credit_gate(out_port, sub, vc, false);
        }
    }

    /// Propagates a 0↔1 transition of the `(out_port, sub, vc)` credit
    /// counter into the sub-channel's availability word and the owning
    /// input VC's [`sa_credit`](Self::sa_credit) bit — the latter only when
    /// that counter is the owner's gating counter (the owner's route decides
    /// which sub-channel its flits traverse, so a transition on another sub
    /// leaves the owner's bit untouched).
    #[inline]
    fn note_credit_gate(&mut self, out_port: PortIndex, sub: usize, vc: VcIndex, avail: bool) {
        let sc = self.sub_channel(out_port, sub);
        assign_vc_bit(&mut self.credit_avail[sc], vc, avail);
        let Some((ip, ivc)) = self.out_owners[self.out_slot(out_port, vc)] else {
            return;
        };
        let slot = self.slot(ip, ivc);
        let (Some(route), Some(out_vc)) = (self.routes[slot], self.out_vcs[slot]) else {
            return; // output VC claimed, input-side claim not stored yet
        };
        if route.port == out_port && out_vc == vc && route.hops as usize - 1 == sub {
            assign_vc_bit(&mut self.sa_credit[ip.index()], ivc, avail);
        }
    }

    /// Enables observability per `metrics`: per-port counters at
    /// [`MetricsLevel::Full`], and a lifecycle trace ring when this router is
    /// selected by the trace spec. Call before the first `step`.
    pub fn enable_metrics(&mut self, metrics: &MetricsConfig) {
        if metrics.level == MetricsLevel::Full {
            self.counters = Some(Box::new(RouterCounters::new(
                self.id.index(),
                self.in_ports,
                self.out_ports,
            )));
        }
        if let Some(spec) = &metrics.trace {
            if spec.selects(self.id.index()) {
                self.tracer = Some(Box::new(TraceRing::new(self.id.index(), spec.capacity)));
            }
        }
    }

    /// Records a lifecycle event when tracing is enabled.
    pub fn trace(
        &mut self,
        cycle: u64,
        kind: TraceEventKind,
        in_port: PortIndex,
        out_port: PortIndex,
    ) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record(cycle, kind, in_port.index(), out_port.index());
        }
    }

    /// Exports the observability counters, if enabled.
    pub fn observation(&self) -> Option<RouterObservation> {
        self.counters.as_ref().map(|c| c.export())
    }

    /// The lifecycle tracer, if enabled.
    pub fn trace_ring(&self) -> Option<&TraceRing> {
        self.tracer.as_deref()
    }

    /// Queues an arriving flit for this cycle's arrival phase. The router
    /// takes ownership of the pool slot behind `flit`.
    pub fn receive_flit(&mut self, in_port: PortIndex, flit: FlitRef) {
        debug_assert!(in_port.index() < self.in_ports, "bad input port");
        self.arrivals.push((in_port, flit));
    }

    /// Returns a downstream credit to its (sub, VC) counter.
    pub fn receive_credit(&mut self, out_port: PortIndex, credit: Credit) {
        let slot = self.credit_slot(out_port, credit.sub as usize, credit.vc);
        assert!(
            self.credits[slot] < self.credit_capacity,
            "credit overflow at {out_port} sub {} {}",
            credit.sub,
            credit.vc
        );
        self.credits[slot] += 1;
        if self.credits[slot] == 1 {
            self.note_credit_gate(out_port, credit.sub as usize, credit.vc, true);
        }
    }

    /// The kernel part of the step-is-no-op predicate: nothing staged or
    /// buffered, so every kernel phase falls through without touching
    /// observable state (pass-through VC claims are inert until a flit
    /// arrives, and arbiters do not move on empty request masks). Schemes
    /// with cycle-driven state of their own AND their conditions on top.
    pub fn is_idle_base(&self) -> bool {
        self.arrivals.is_empty()
            && self.st_pending.is_empty()
            && self.in_occupancy.iter().all(|&c| c == 0)
    }

    /// Sends a flit out of the crossbar: records locality, fills in the
    /// downstream VC, the express-hop budget and the lookahead route (all
    /// written in place through the pool), and queues the emission.
    pub fn send_flit(
        &mut self,
        r: FlitRef,
        in_port: PortIndex,
        route: RouteInfo,
        out_vc: VcIndex,
        express_hops: u8,
        out: &mut RouterOutputs,
    ) {
        let (is_head, dst, mode) = {
            let f = self.pool.get(r);
            (f.kind.is_head(), f.dst, f.mode)
        };
        if is_head {
            // Packet-granularity crossbar-connection locality (Fig. 1):
            // body/tail flits trivially follow their header, so only
            // consecutive packets are compared.
            if let Some(prev) = self.last_connection[in_port.index()] {
                self.stats.xbar_locality_total += 1;
                if prev == route.port {
                    self.stats.xbar_locality_hits += 1;
                }
            }
            self.last_connection[in_port.index()] = Some(route.port);
            if self.count_header_traversals {
                self.stats.header_traversals += 1;
            }
        }
        self.stats.flit_traversals += 1;
        self.energy.record(EnergyEvent::CrossbarTraversal);
        if let Some(p) = self.counters.as_deref_mut() {
            p.on_traversal(in_port);
        }
        set_bit(&mut self.in_busy, in_port.index());
        set_bit(&mut self.out_busy, route.port.index());

        let lookahead = (route.port.index() >= self.concentration).then(|| {
            let slot = self.out_slot(route.port, out_vc);
            if is_head {
                let la = lookahead_route(
                    self.topo.as_ref(),
                    self.id,
                    route.port,
                    route.hops,
                    dst,
                    mode,
                );
                self.lookahead_cache[slot] = Some(la);
                la
            } else {
                // Wormhole ordering: this body/tail flit's header traversed
                // this connection first and cached the packet's lookahead.
                self.lookahead_cache[slot].expect("body flit before its header")
            }
        });
        self.pool.update(r, |f| {
            f.vc = out_vc;
            f.express_hops = express_hops;
            if let Some(la) = lookahead {
                f.route = la;
            }
        });
        out.flits.push(SentFlit {
            out_port: route.port,
            hops: route.hops,
            flit: r,
        });
    }

    /// Pops the head flit of `(in_port, vc)` and sends it through the held
    /// route of that VC. `reuse` marks a pseudo-circuit traversal (skipped
    /// SA); credits were pre-reserved for granted traversals and are consumed
    /// here for reuse traversals.
    pub fn traverse_from_buffer(
        &mut self,
        cycle: u64,
        in_port: PortIndex,
        vc: VcIndex,
        reuse: bool,
        out: &mut RouterOutputs,
    ) {
        let slot = self.slot(in_port, vc);
        let (r, ready_at) = self.bank.pop(slot).expect("granted VC has a flit");
        debug_assert!(ready_at <= cycle, "flit traversed before ready");
        let kind = self.pool.get(r).kind;
        if kind.is_head() {
            debug_assert!(
                self.routes[slot].is_some(),
                "header traversing without a route"
            );
        }
        let route = self.routes[slot].expect("active VC has a route");
        let out_vc = self.out_vcs[slot].expect("active VC has an output VC");
        let va_cycle = self.va_cycles[slot];
        let express_hops = self.express[slot];
        if kind.is_tail() {
            self.routes[slot] = None;
            self.out_vcs[slot] = None;
            self.va_cycles[slot] = u64::MAX;
            self.express[slot] = 0;
            self.release_out_vc(route.port, out_vc);
            assign_vc_bit(&mut self.sa_credit[in_port.index()], vc, false);
        }
        self.refresh_vc_masks(in_port, vc);
        if reuse {
            self.consume_credit(route.port, route.hops as usize - 1, out_vc);
            self.stats.pc_reuses += 1;
            if kind.is_head() {
                self.stats.pc_header_reuses += 1;
            }
        }
        self.in_occupancy[in_port.index()] -= 1;
        self.energy.record(EnergyEvent::BufferRead);
        if let Some(p) = self.counters.as_deref_mut() {
            // The flit was written into the buffer the cycle before it
            // became ready (`FifoBank::push(slot, r, cycle + 1)`).
            let arrival = ready_at - 1;
            // Inclusive per-hop router delay: 3 baseline / 2 reuse under no
            // contention (paper Fig. 6), more under contention.
            p.on_stage(PipelineStage::St, cycle - arrival + 1);
            p.on_stage(PipelineStage::Bw, cycle - arrival);
            if kind.is_head() {
                // Reuse-path headers get VA the traversal cycle itself;
                // baseline-path headers were granted at `va_cycle`.
                let va_at = if va_cycle == u64::MAX {
                    cycle
                } else {
                    va_cycle
                };
                p.on_stage(PipelineStage::Va, va_at - arrival);
            }
            if reuse {
                p.on_pc_hit(in_port, false);
            } else {
                // SA granted this traversal one cycle ago. Headers wait from
                // their VA grant (0 = same-cycle speculative SA), body flits
                // from buffer write.
                let grant = cycle - 1;
                let sa_from = if kind.is_head() && va_cycle != u64::MAX {
                    va_cycle
                } else {
                    arrival
                };
                p.on_stage(PipelineStage::Sa, grant.saturating_sub(sa_from));
            }
        }
        if reuse {
            self.trace(cycle, TraceEventKind::Hit, in_port, route.port);
        }
        out.credits.push((in_port, vc));
        self.send_flit(r, in_port, route, out_vc, express_hops, out);
    }

    /// Runs one cycle of the shared pipeline, dispatching to `hooks` at each
    /// scheme extension point (see [`SchemeHooks`] for the phase order).
    pub fn step<H: SchemeHooks>(&mut self, hooks: &mut H, cycle: u64, out: &mut RouterOutputs) {
        clear_words(&mut self.in_busy);
        clear_words(&mut self.out_busy);

        hooks.begin_cycle(self, cycle);

        // Switch traversal of last cycle's grants (SA has priority over any
        // scheme reuse path: its resources were reserved at grant time).
        // Swapped through the scratch buffer so both vectors retain their
        // capacity.
        std::mem::swap(&mut self.st_pending, &mut self.st_scratch);
        for i in 0..self.st_scratch.len() {
            let g = self.st_scratch[i];
            self.traverse_from_buffer(cycle, g.in_port, g.vc, false, out);
        }
        self.st_scratch.clear();

        hooks.drain_reuse(self, cycle, out);
        self.accept_arrivals(hooks, cycle, out);
        self.allocate_vcs(hooks, cycle);
        self.arbitrate_switch(hooks, cycle);
        hooks.end_cycle(self, cycle);
    }

    /// Arrival phase: each flit is offered to the scheme's intercept hook
    /// (bypass latch, express latch) and otherwise written into its VC
    /// buffer, becoming ready next cycle (the BW stage).
    fn accept_arrivals<H: SchemeHooks>(
        &mut self,
        hooks: &mut H,
        cycle: u64,
        out: &mut RouterOutputs,
    ) {
        // Swap into the scratch buffer (both retain capacity) and walk by
        // index so `self` stays free for the intercept/buffer calls.
        std::mem::swap(&mut self.arrivals, &mut self.arrivals_scratch);
        for i in 0..self.arrivals_scratch.len() {
            let (in_port, r) = self.arrivals_scratch[i];
            if hooks.try_arrival_intercept(self, cycle, in_port, r, out) {
                continue;
            }
            self.energy.record(EnergyEvent::BufferWrite);
            self.in_occupancy[in_port.index()] += 1;
            let vc = self.pool.get(r).vc;
            let slot = self.slot(in_port, vc);
            // An express stream that stalls into the buffer continues
            // hop-by-hop; its pass-through claim becomes an ordinary
            // buffered packet claim.
            self.pass_through[slot] = false;
            self.bank
                .push(slot, r, cycle + 1)
                .expect("upstream credits bound buffer occupancy");
            self.refresh_vc_masks(in_port, vc);
        }
        self.arrivals_scratch.clear();
    }

    /// VC allocation for ready headers (separable, per output VC,
    /// round-robin across requesters); the winning header's VC choice is
    /// delegated to [`SchemeHooks::allocate_out_vc`].
    fn allocate_vcs<H: SchemeHooks>(&mut self, hooks: &mut H, cycle: u64) {
        let vcs = self.vcs;
        // Gather requests grouped by output port. Only the set bits of the
        // incremental candidate mask are visited; the per-cycle conditions
        // (ready head, header kind) are the only ones re-checked here —
        // the stable part of the predicate (buffered flits, no route, no
        // output VC) is the mask invariant itself. The mask's bit index IS
        // the SoA slot, so each re-check is a handful of flat array loads.
        debug_assert!(!any_bit(&self.va_out_pending));
        debug_assert!((0..self.out_ports).all(|p| !any_bit(self.va_req.row(p))));
        for wi in 0..self.va_cand.len() {
            // Word copied out so no borrow of the mask is held while the
            // request masks are written.
            let mut word = self.va_cand[wi];
            while word != 0 {
                let slot = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                debug_assert!(
                    !self.bank.is_empty(slot)
                        && self.routes[slot].is_none()
                        && self.out_vcs[slot].is_none(),
                    "stale VA candidate bit (missed refresh_vc_masks)"
                );
                let Some(r) = self.bank.head_ready(slot, cycle) else {
                    continue;
                };
                let head = self.pool.get(r);
                if !head.kind.is_head() {
                    continue;
                }
                let out_port = head.route.port.index();
                set_bit(self.va_req.row_mut(out_port), slot);
                set_bit(&mut self.va_out_pending, out_port);
            }
        }
        // Taken out of `self` so the grant loop can hand `&mut self` to the
        // scheme hook; the rows keep their storage (the default `MaskRows`
        // does not allocate, and the buffer is restored below).
        let mut requests = std::mem::take(&mut self.va_req);
        for wi in 0..self.va_out_pending.len() {
            // Taken, not copied: the pending mask is clear again once every
            // port in it has been served.
            let mut word = std::mem::take(&mut self.va_out_pending[wi]);
            while word != 0 {
                let out_port = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                // Round-robin over the flattened (input port, VC) space,
                // until every request on this port is granted or declined.
                let row = requests.row_mut(out_port);
                while let Some(slot) = self.va_arb[out_port].grant(row) {
                    clear_bit(row, slot);
                    let in_port = PortIndex::new(slot / vcs);
                    let vc = VcIndex::new(slot % vcs);
                    let flit = *self.pool.get(
                        self.bank
                            .head_ready(slot, cycle)
                            .expect("request implies ready head"),
                    );
                    if let Some((out_vc, express_hops)) =
                        hooks.allocate_out_vc(self, &flit, (in_port, vc))
                    {
                        self.routes[slot] = Some(flit.route);
                        self.out_vcs[slot] = Some(out_vc);
                        self.va_cycles[slot] = cycle;
                        self.express[slot] = express_hops;
                        self.refresh_vc_masks(in_port, vc);
                        self.refresh_credit_gate(in_port, vc);
                        self.stats.va_grants += 1;
                        self.energy.record(EnergyEvent::Arbitration);
                        if let Some(p) = self.counters.as_deref_mut() {
                            p.on_va_grant(in_port);
                        }
                    }
                }
            }
        }
        self.va_req = requests;
    }

    /// Separable switch arbitration. Non-speculative requests (VC held
    /// before this cycle) beat speculative ones (VC granted this cycle, Peh &
    /// Dally HPCA 2001). Grants reserve a credit, traverse next cycle, and
    /// fire [`SchemeHooks::on_sa_grant`].
    fn arbitrate_switch<H: SchemeHooks>(&mut self, hooks: &mut H, cycle: u64) {
        // Input-first stage: one winning VC per input port. Each port's
        // candidates are one word — SA-eligible VCs (`sa_cand`) ANDed with
        // the credit gate (`sa_credit`), so credit-starved VCs are never
        // visited and a port with no survivor is skipped (an empty request
        // word grants nothing and leaves the arbiter's pointer put). Only
        // the per-cycle conditions — ready head, scheme skip — are
        // re-checked per bit, against the flat SoA arrays, plus the credit
        // re-check that cross-checks the gate.
        self.sa_winners.fill(None);
        debug_assert!(!any_bit(&self.sa_out_pending));
        for in_port in 0..self.in_ports {
            let mut word = self.sa_cand[in_port] & self.sa_credit[in_port];
            if word == 0 {
                continue;
            }
            let in_port_i = PortIndex::new(in_port);
            // This port's first-stage requests, by VC.
            let mut nonspec = 0u64;
            let mut spec = 0u64;
            while word != 0 {
                let vc = word.trailing_zeros() as usize;
                word &= word - 1;
                let slot = in_port * self.vcs + vc;
                debug_assert!(
                    !self.bank.is_empty(slot) && !self.pass_through[slot],
                    "stale SA candidate bit (missed refresh_vc_masks)"
                );
                let (Some(route), Some(out_vc)) = (self.routes[slot], self.out_vcs[slot]) else {
                    unreachable!("SA candidate bit requires route and output VC")
                };
                if self.bank.head_ready(slot, cycle).is_none() {
                    continue;
                }
                if hooks.sa_skip(in_port_i, VcIndex::new(vc), route) {
                    continue;
                }
                let sub = route.hops as usize - 1;
                if self.credits_available(route.port, sub, out_vc) == 0 {
                    debug_assert!(false, "stale SA credit bit (missed note_credit_gate)");
                    continue;
                }
                if self.va_cycles[slot] == cycle {
                    spec |= 1 << vc;
                } else {
                    nonspec |= 1 << vc;
                }
            }
            // Non-speculative requests win; the speculative set is only
            // arbitrated when there are none.
            let speculative = nonspec == 0;
            let pick = self.in_arb[in_port].grant_word(if speculative { spec } else { nonspec });
            if let Some(vc) = pick {
                let slot = in_port * self.vcs + vc;
                let route = self.routes[slot].expect("winner has route");
                self.sa_winners[in_port] = Some((
                    VcIndex::new(vc),
                    route,
                    self.out_vcs[slot].expect("winner has output VC"),
                    speculative,
                ));
                let out_port = route.port.index();
                if speculative {
                    set_bit(self.sa_out_spec.row_mut(out_port), in_port);
                } else {
                    set_bit(self.sa_out_nonspec.row_mut(out_port), in_port);
                }
                set_bit(&mut self.sa_out_pending, out_port);
            }
        }
        // Output stage: one winner per output port, non-speculative first.
        // Decisions depend only on `sa_winners` and each port's own arbiter,
        // so they are computed for every port first and their effects (credit
        // reservation, grant queueing, scheme hook) applied after — which
        // lets the hook borrow the whole kernel. Only output ports with a
        // first-stage winner are visited.
        debug_assert!(self.sa_picks.is_empty());
        let mut picks = std::mem::take(&mut self.sa_picks);
        for wi in 0..self.sa_out_pending.len() {
            let mut word = std::mem::take(&mut self.sa_out_pending[wi]);
            while word != 0 {
                let out_port = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let nonspec = self.sa_out_nonspec.row(out_port);
                let pick = if any_bit(nonspec) {
                    self.out_arb[out_port].grant(nonspec)
                } else {
                    self.out_arb[out_port].grant(self.sa_out_spec.row(out_port))
                };
                if let Some(in_port) = pick {
                    let (vc, route, out_vc, _) =
                        self.sa_winners[in_port].expect("picked winner exists");
                    picks.push((PortIndex::new(in_port), vc, route, out_vc));
                }
                clear_words(self.sa_out_nonspec.row_mut(out_port));
                clear_words(self.sa_out_spec.row_mut(out_port));
            }
        }
        for &(in_port, vc, route, out_vc) in picks.iter() {
            self.consume_credit(route.port, route.hops as usize - 1, out_vc);
            self.st_pending.push(StGrant { in_port, vc });
            self.stats.sa_grants += 1;
            self.energy.record(EnergyEvent::Arbitration);
            if let Some(p) = self.counters.as_deref_mut() {
                p.on_sa_grant(in_port);
            }
            hooks.on_sa_grant(self, cycle, in_port, vc, route);
        }
        picks.clear();
        self.sa_picks = picks;
    }
}

/// Sets or clears VC `vc`'s bit in a one-word per-port mask.
#[inline]
fn assign_vc_bit(mask: &mut u64, vc: VcIndex, value: bool) {
    let bit = 1u64 << vc.index();
    if value {
        *mask |= bit;
    } else {
        *mask &= !bit;
    }
}
