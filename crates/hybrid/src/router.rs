//! The profiled-hybrid router: the shared speculative two-stage pipeline
//! kernel ([`noc_sim::pipeline`]) plus an online profile phase and a
//! hot-flow-gated held-circuit path, plugged in through [`SchemeHooks`].
//!
//! The circuit registers themselves are the pseudo-circuit paper's §III
//! state machine, reused verbatim ([`PseudoCircuitUnit`]); what differs is
//! *when* a circuit is established — only for flows the profile window
//! marked hot — and that neither speculation nor buffer bypassing runs.

use noc_base::{
    Credit, Flit, FlitPool, FlitRef, NodeId, PortIndex, RouteInfo, RouterId, VaPolicy, VcIndex,
    VcPartition,
};
use noc_energy::{EnergyCounters, EnergyEvent};
use noc_sim::{
    MetricsConfig, NetworkConfig, PipelineKernel, Probe, RouterBuildContext, RouterFactory,
    RouterModel, RouterObservation, RouterOutputs, RouterStats, SchemeHooks, Termination,
    TraceEventKind, TraceRing,
};
use noc_topology::SharedTopology;
use pseudo_circuit::PseudoCircuitUnit;
use std::sync::Arc;

/// Upper bound on the flow table size; `(src, dst)` pairs beyond it share
/// slots (see the crate docs on collision semantics).
pub const FLOW_TABLE_CAP: usize = 1 << 16;

/// The hybrid scheme state: the profile counters, the frozen hot-flow table,
/// and the circuit registers the hot path drives.
struct HybridHooks {
    va_policy: VaPolicy,
    partition: VcPartition,
    pcu: PseudoCircuitUnit,
    /// First cycle of the hybrid phase; the profile window is `0..profile_cycles`.
    profile_cycles: u64,
    /// Header count at which a profiled flow becomes hot.
    hot_threshold: u32,
    frozen: bool,
    num_nodes: usize,
    /// Per-flow header counts gathered during the profile window.
    counts: Vec<u32>,
    /// Bitset over flow slots, filled at freeze time.
    hot: Vec<u64>,
}

impl HybridHooks {
    fn slot(&self, src: NodeId, dst: NodeId) -> usize {
        (src.index() * self.num_nodes + dst.index()) % self.counts.len()
    }

    fn is_hot(&self, src: NodeId, dst: NodeId) -> bool {
        let slot = self.slot(src, dst);
        self.hot[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// Freezes the profile: marks every flow whose header count reached the
    /// threshold as hot. Writes into the pre-sized bitset — no allocation.
    fn freeze(&mut self) {
        for (slot, &count) in self.counts.iter().enumerate() {
            if count >= self.hot_threshold {
                self.hot[slot / 64] |= 1 << (slot % 64);
            }
        }
        self.frozen = true;
    }

    /// Allocates an output VC for a header (VA); see
    /// `PcHooks::allocate_vc` — identical policy, shared kernel state.
    fn allocate_vc(
        &self,
        k: &mut PipelineKernel,
        route: RouteInfo,
        class: u8,
        dst: NodeId,
        owner: (PortIndex, VcIndex),
        require_credit: bool,
    ) -> Option<VcIndex> {
        let sub = route.hops as usize - 1;
        let port = route.port;
        let chosen = match self.va_policy {
            VaPolicy::Static => {
                let vc = self.partition.static_vc(class, dst);
                (k.out_vc_is_free(port, vc)
                    && (!require_credit || k.credits_available(port, sub, vc) > 0))
                    .then_some(vc)
            }
            VaPolicy::Dynamic => self
                .partition
                .class_range(class)
                .map(|v| VcIndex::new(v as usize))
                .filter(|&v| k.out_vc_is_free(port, v))
                .filter(|&v| !require_credit || k.credits_available(port, sub, v) > 0)
                .max_by_key(|&v| k.credits_available(port, sub, v)),
        }?;
        k.claim_out_vc(port, chosen, owner);
        Some(chosen)
    }

    /// Terminates held circuits whose output has no downstream credit at the
    /// held drop position — the §III.C buffer-overflow protection, kept for
    /// hybrid circuits unchanged.
    fn terminate_creditless_circuits(&mut self, k: &mut PipelineKernel, cycle: u64) {
        for out_port in 0..k.num_out_ports() {
            let port = PortIndex::new(out_port);
            let Some(holder) = self.pcu.holder(port) else {
                continue;
            };
            let reg = self.pcu.registers(holder);
            let sub = reg.hops as usize - 1;
            if k.credits_at_sub(port, sub) == 0 {
                self.pcu.terminate(holder, Termination::CreditExhausted);
                if let Some(p) = k.counters.as_deref_mut() {
                    p.on_pc_terminated(holder, Termination::CreditExhausted);
                }
                k.trace(cycle, TraceEventKind::TerminateCredit, holder, port);
            }
        }
    }

    /// Drains buffered flits through held circuits, bypassing SA — the same
    /// drain as `PcHooks::reuse_circuits`. Hotness gates only circuit
    /// *establishment*: once a connection is held, any flit whose route
    /// matches rides it (`sa_skip` already withheld its SA request, so the
    /// drain must accept it regardless of its flow's temperature).
    fn reuse_circuits(&mut self, k: &mut PipelineKernel, cycle: u64, out: &mut RouterOutputs) {
        for in_port in 0..k.num_in_ports() {
            if k.in_occupancy[in_port] == 0 {
                continue; // reuse only drains buffered flits
            }
            let in_port = PortIndex::new(in_port);
            if k.in_busy(in_port) {
                continue;
            }
            let Some(pc) = self.pcu.live(in_port) else {
                continue;
            };
            if k.out_busy(pc.out_port) {
                continue;
            }
            let vc = pc.in_vc;
            let Some(flit) = k.input_head_ready(in_port, vc, cycle) else {
                continue;
            };
            let (is_head, flit_route) = (flit.kind.is_head(), flit.route);
            let (class, dst) = (flit.class, flit.dst);
            let pc_route = RouteInfo {
                port: pc.out_port,
                hops: pc.hops,
            };
            let sub = pc.hops as usize - 1;
            if is_head && k.input_route(in_port, vc).is_none() {
                if flit_route != pc_route {
                    continue; // mismatch: the flit takes the baseline pipeline
                }
                let Some(out_vc) = self.allocate_vc(k, pc_route, class, dst, (in_port, vc), true)
                else {
                    continue; // VA failed: baseline pipeline, no penalty
                };
                k.claim_input_vc(in_port, vc, pc_route, out_vc);
                k.stats.va_grants += 1;
                k.energy.record(EnergyEvent::Arbitration);
                if let Some(p) = k.counters.as_deref_mut() {
                    p.on_va_grant(in_port);
                }
            } else {
                // Mid-packet (or a header that already holds VA state): the
                // packet's route must match the circuit.
                if k.input_route(in_port, vc) != Some(pc_route) {
                    continue;
                }
                let out_vc = k
                    .input_out_vc(in_port, vc)
                    .expect("routed VC has an output VC");
                if k.credits_available(pc.out_port, sub, out_vc) == 0 {
                    continue; // per-VC back-pressure; port-level handled above
                }
            }
            k.traverse_from_buffer(cycle, in_port, vc, true, out);
        }
    }

    /// Tears down circuits conflicting with a cold grant: SA reconfigured
    /// the crossbar, so a circuit holding either side of the granted
    /// connection no longer exists physically.
    fn terminate_conflicts(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        out_port: PortIndex,
    ) {
        if let Some(holder) = self.pcu.holder(out_port) {
            self.pcu.terminate(holder, Termination::Conflict);
            if let Some(p) = k.counters.as_deref_mut() {
                p.on_pc_terminated(holder, Termination::Conflict);
            }
            k.trace(cycle, TraceEventKind::TerminateConflict, holder, out_port);
        }
        if let Some(pc) = self.pcu.live(in_port) {
            let victim_out = pc.out_port;
            self.pcu.terminate(in_port, Termination::Conflict);
            if let Some(p) = k.counters.as_deref_mut() {
                p.on_pc_terminated(in_port, Termination::Conflict);
            }
            k.trace(
                cycle,
                TraceEventKind::TerminateConflict,
                in_port,
                victim_out,
            );
        }
    }
}

impl SchemeHooks for HybridHooks {
    fn begin_cycle(&mut self, k: &mut PipelineKernel, cycle: u64) {
        if !self.frozen {
            if cycle < self.profile_cycles {
                return; // profile window: pure wormhole, no circuits exist
            }
            // The freeze may run later than `profile_cycles` when the router
            // idled across the boundary — counts cannot have changed in
            // between (idle means no flits), so the hot table is identical.
            self.freeze();
        }
        self.terminate_creditless_circuits(k, cycle);
    }

    fn drain_reuse(&mut self, k: &mut PipelineKernel, cycle: u64, out: &mut RouterOutputs) {
        if self.frozen {
            self.reuse_circuits(k, cycle, out);
        }
    }

    /// VA for one header. During the profile window this is also the flow
    /// sampling point: every header that reaches VC allocation at this
    /// router bumps its flow's count (reuse never runs before the freeze,
    /// so each header is sampled at most once per hop).
    fn allocate_out_vc(
        &mut self,
        k: &mut PipelineKernel,
        flit: &Flit,
        owner: (PortIndex, VcIndex),
    ) -> Option<(VcIndex, u8)> {
        if !self.frozen {
            let slot = self.slot(flit.src, flit.dst);
            self.counts[slot] = self.counts[slot].saturating_add(1);
        }
        self.allocate_vc(k, flit.route, flit.class, flit.dst, owner, false)
            .map(|vc| (vc, 0))
    }

    /// Flits covered by a live matching circuit bypass SA entirely; they
    /// drain through the held connection in `drain_reuse`.
    fn sa_skip(&self, in_port: PortIndex, vc: VcIndex, route: RouteInfo) -> bool {
        self.frozen
            && self.pcu.live(in_port).is_some_and(|pc| {
                pc.in_vc == vc && pc.out_port == route.port && pc.hops == route.hops
            })
    }

    /// Hot-flow grants (re)establish the circuit of their connection; cold
    /// grants only tear down circuits they conflict with.
    fn on_sa_grant(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        vc: VcIndex,
        route: RouteInfo,
    ) {
        if !self.frozen {
            return;
        }
        // The granted flit is still buffered at the head of its VC (it
        // drains at the next cycle's ST phase) and was ready this cycle.
        let hot = k
            .input_head_ready(in_port, vc, cycle)
            .is_some_and(|f| self.is_hot(f.src, f.dst));
        if !hot {
            self.terminate_conflicts(k, cycle, in_port, route.port);
            return;
        }
        let outcome = self.pcu.establish(in_port, vc, route.port, route.hops);
        if let Some(p) = k.counters.as_deref_mut() {
            p.on_pc_established(in_port, outcome.created);
            for (victim, _) in outcome.terminated.into_iter().flatten() {
                p.on_pc_terminated(victim, Termination::Conflict);
            }
        }
        if k.tracer.is_some() {
            for (victim, victim_out) in outcome.terminated.into_iter().flatten() {
                k.trace(cycle, TraceEventKind::TerminateConflict, victim, victim_out);
            }
            if outcome.created {
                k.trace(cycle, TraceEventKind::Establish, in_port, route.port);
            }
        }
    }

    fn end_cycle(&mut self, k: &mut PipelineKernel, _cycle: u64) {
        k.stats.pc_terminations_conflict = self.pcu.terminations_conflict();
        k.stats.pc_terminations_credit = self.pcu.terminations_credit();
        debug_assert!(self.pcu.check_invariants().is_ok());
    }
}

/// The profiled-hybrid router: the shared [`PipelineKernel`] plus the
/// profile/hot-flow [`SchemeHooks`].
pub struct HybridRouter {
    kernel: PipelineKernel,
    hooks: HybridHooks,
}

impl HybridRouter {
    /// Builds a hybrid router that profiles for `profile_cycles` cycles and
    /// then holds circuits for flows whose header count reached
    /// `hot_threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `profile_cycles` is zero (the profile window must exist)
    /// or `hot_threshold` is zero (every flow would be hot, including
    /// never-seen ones).
    pub fn new(
        id: RouterId,
        topo: SharedTopology,
        config: NetworkConfig,
        profile_cycles: u64,
        hot_threshold: u32,
        pool: Arc<FlitPool>,
    ) -> Self {
        assert!(
            profile_cycles > 0,
            "hybrid switching needs a profile window"
        );
        assert!(hot_threshold > 0, "a zero threshold marks unseen flows hot");
        let in_ports = topo.in_ports(id);
        let out_ports = topo.out_ports(id);
        let num_nodes = topo.num_nodes();
        let partition = config.partition_for(topo.as_ref());
        let table = (num_nodes * num_nodes).clamp(1, FLOW_TABLE_CAP);
        Self {
            kernel: PipelineKernel::new(id, topo, config, true, pool),
            hooks: HybridHooks {
                va_policy: config.va_policy,
                partition,
                pcu: PseudoCircuitUnit::new(in_ports, out_ports),
                profile_cycles,
                hot_threshold,
                frozen: false,
                num_nodes,
                counts: vec![0; table],
                hot: vec![0; table.div_ceil(64)],
            },
        }
    }

    /// Enables observability per `metrics` (counters at
    /// [`noc_sim::MetricsLevel::Full`], tracing when selected). Call before
    /// the first `step`.
    pub fn enable_metrics(&mut self, metrics: &MetricsConfig) {
        self.kernel.enable_metrics(metrics);
    }

    /// Whether the profile window has been frozen into the hot-flow table
    /// (exposed for white-box tests).
    pub fn profile_frozen(&self) -> bool {
        self.hooks.frozen
    }

    /// Whether the (frozen) hot-flow table marks `src → dst` hot (exposed
    /// for white-box tests).
    pub fn flow_is_hot(&self, src: NodeId, dst: NodeId) -> bool {
        self.hooks.is_hot(src, dst)
    }

    /// The circuit unit (exposed for white-box tests).
    pub fn pseudo_unit(&self) -> &PseudoCircuitUnit {
        &self.hooks.pcu
    }

    /// The flit slab this router reads and writes flit bodies through
    /// (exposed so tests can allocate arrival flits and inspect emissions).
    pub fn pool(&self) -> &Arc<FlitPool> {
        self.kernel.pool()
    }
}

impl RouterModel for HybridRouter {
    fn receive_flit(&mut self, in_port: PortIndex, flit: FlitRef) {
        self.kernel.receive_flit(in_port, flit);
    }

    fn receive_credit(&mut self, out_port: PortIndex, credit: Credit) {
        self.kernel.receive_credit(out_port, credit);
    }

    fn step(&mut self, cycle: u64, out: &mut RouterOutputs) {
        self.kernel.step(&mut self.hooks, cycle, out);
    }

    /// Exact step-is-no-op predicate: the kernel base predicate plus "no
    /// held circuit the credit check would terminate". A pending freeze does
    /// not block idling — an idle router has no flits, so freezing now or at
    /// its next busy cycle produces the same table and the same behavior
    /// (see `begin_cycle`).
    fn is_idle(&self) -> bool {
        if !self.kernel.is_idle_base() {
            return false;
        }
        let (k, h) = (&self.kernel, &self.hooks);
        for out_port in 0..k.num_out_ports() {
            let port = PortIndex::new(out_port);
            if let Some(holder) = h.pcu.holder(port) {
                let reg = h.pcu.registers(holder);
                let sub = reg.hops as usize - 1;
                if k.credits_at_sub(port, sub) == 0 {
                    return false; // begin_cycle would terminate this circuit
                }
            }
        }
        true
    }

    fn stats(&self) -> RouterStats {
        self.kernel.stats
    }

    fn energy(&self) -> EnergyCounters {
        self.kernel.energy
    }

    fn observation(&self) -> Option<RouterObservation> {
        self.kernel.observation()
    }

    fn tracer(&self) -> Option<&TraceRing> {
        self.kernel.trace_ring()
    }
}

/// Builds [`HybridRouter`]s with a fixed profile window and hot threshold.
#[derive(Copy, Clone, Debug)]
pub struct HybridRouterFactory {
    /// Length of the online profile window, in cycles.
    pub profile_cycles: u64,
    /// Header count at which a profiled flow becomes hot.
    pub hot_threshold: u32,
}

impl Default for HybridRouterFactory {
    fn default() -> Self {
        Self {
            profile_cycles: 1_000,
            hot_threshold: 4,
        }
    }
}

impl RouterFactory for HybridRouterFactory {
    fn build(&self, ctx: RouterBuildContext<'_>) -> Box<dyn RouterModel> {
        let mut router = HybridRouter::new(
            ctx.id,
            ctx.topology.clone(),
            *ctx.config,
            self.profile_cycles,
            self.hot_threshold,
            ctx.pool.clone(),
        );
        router.enable_metrics(ctx.metrics);
        Box::new(router)
    }
}
