//! The profiled-hybrid router: the shared speculative two-stage pipeline
//! kernel ([`noc_sim::pipeline`]) plus an online profile phase and a
//! hot-flow-gated held-circuit path, plugged in through [`SchemeHooks`].
//!
//! The circuit registers themselves are the pseudo-circuit paper's §III
//! state machine ([`PseudoCircuitUnit`]), driven through the same
//! [`CircuitPaths`] as the pseudo-circuit router (VC allocation,
//! credit-exhaustion termination, reuse, establishment); what differs is
//! *when* a circuit is established — only for flows the profile window
//! marked hot — and that neither speculation nor buffer bypassing runs.

use noc_base::{Credit, Flit, FlitPool, FlitRef, NodeId, PortIndex, RouteInfo, RouterId, VcIndex};
use noc_energy::EnergyCounters;
use noc_sim::{
    MetricsConfig, NetworkConfig, PipelineKernel, Probe, RouterBuildContext, RouterFactory,
    RouterModel, RouterObservation, RouterOutputs, RouterStats, SchemeHooks, Termination,
    TraceEventKind, TraceRing,
};
use noc_topology::SharedTopology;
use pseudo_circuit::{CircuitPaths, PseudoCircuitUnit};
use std::sync::Arc;

/// Upper bound on the flow table size; `(src, dst)` pairs beyond it share
/// slots (see the crate docs on collision semantics).
pub const FLOW_TABLE_CAP: usize = 1 << 16;

/// The hybrid scheme state: the profile counters, the frozen hot-flow table,
/// and the circuit registers the hot path drives.
struct HybridHooks {
    circuits: CircuitPaths,
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
        let pcu = self.circuits.unit_mut();
        if let Some(holder) = pcu.holder(out_port) {
            pcu.terminate(holder, Termination::Conflict);
            if let Some(p) = k.counters.as_deref_mut() {
                p.on_pc_terminated(holder, Termination::Conflict);
            }
            k.trace(cycle, TraceEventKind::TerminateConflict, holder, out_port);
        }
        if let Some(pc) = pcu.live(in_port) {
            let victim_out = pc.out_port;
            pcu.terminate(in_port, Termination::Conflict);
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
        self.circuits.terminate_creditless_circuits(k, cycle);
    }

    fn drain_reuse(&mut self, k: &mut PipelineKernel, cycle: u64, out: &mut RouterOutputs) {
        if self.frozen {
            self.circuits.reuse_circuits(k, cycle, out);
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
        self.circuits
            .allocate_vc(k, flit.route, flit.class, flit.dst, owner, false)
            .map(|vc| (vc, 0))
    }

    /// Flits covered by a live matching circuit bypass SA entirely; they
    /// drain through the held connection in `drain_reuse`.
    fn sa_skip(&self, in_port: PortIndex, vc: VcIndex, route: RouteInfo) -> bool {
        self.frozen
            && self.circuits.unit().live(in_port).is_some_and(|pc| {
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
        self.circuits.establish(k, cycle, in_port, vc, route);
    }

    fn end_cycle(&mut self, k: &mut PipelineKernel, _cycle: u64) {
        self.circuits.end_cycle(k);
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
                circuits: CircuitPaths::new(in_ports, out_ports, config.va_policy, partition),
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
        self.hooks.circuits.unit()
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
        self.kernel.is_idle_base() && !self.hooks.circuits.would_terminate(&self.kernel)
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
