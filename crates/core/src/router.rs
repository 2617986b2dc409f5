//! The pseudo-circuit scheme as hooks over the shared pipeline kernel
//! (also the baseline router when the scheme is [`Scheme::baseline`]).
//!
//! The speculative two-stage pipeline itself — BW, VA∥SA, ST, the separable
//! round-robin allocators, credit bookkeeping and observability plumbing —
//! lives in [`noc_sim::pipeline`]; this module plugs the paper's scheme into
//! its [`SchemeHooks`] extension points. Per-hop router delay: 3 cycles
//! baseline, plus one cycle of link traversal. With a matching
//! **pseudo-circuit**, the flit skips VA∥SA (the route comparison fits
//! inside ST, §III.B): BW at `t`, ST at `t + 1` — 2 cycles. With **buffer
//! bypassing** it also skips BW: ST at `t` — 1 cycle.
//!
//! # Scheme mechanics
//!
//! The circuit paths this router shares with the profiled-hybrid router
//! (termination, reuse, establishment, speculation) live in
//! [`crate::circuits`]; the bypass latch and the scheme's gating live here.
//!
//! - every switch-arbitration grant (re)establishes the pseudo-circuit for
//!   its connection, terminating circuits that conflict on either port;
//!   SA always has priority over pseudo-circuit reuse (starvation freedom,
//!   §III.C);
//! - a circuit whose output port has no downstream credit is terminated
//!   immediately (buffer-overflow protection, §III.C);
//! - headers reusing a circuit still acquire an output VC the same cycle
//!   (VA is independent of SA, §III.B); on VA failure they fall back to the
//!   full pipeline with no added penalty;
//! - speculation restores the most recently terminated circuit of an idle
//!   output port, guarded by the per-output history register (§IV.A);
//! - the bypass latch forwards an arriving flit straight to the crossbar
//!   when its VC buffer is empty and the circuit matches (§IV.B); bypassed
//!   flits are charged no buffer read/write energy.

use crate::circuits::CircuitPaths;
use crate::config::Scheme;
use crate::probe::Probe;
use crate::pseudo::PseudoCircuitUnit;
use noc_base::{Credit, Flit, FlitPool, FlitRef, PortIndex, RouteInfo, RouterId, VcIndex};
use noc_energy::{EnergyCounters, EnergyEvent};
use noc_sim::{
    MetricsConfig, NetworkConfig, PipelineKernel, PipelineStage, RouterBuildContext, RouterFactory,
    RouterModel, RouterObservation, RouterOutputs, RouterStats, SchemeHooks, TraceEventKind,
    TraceRing,
};
use noc_topology::SharedTopology;
use std::sync::Arc;

/// The pseudo-circuit scheme state and hook implementations: the scheme's
/// flags plus the shared circuit paths.
struct PcHooks {
    scheme: Scheme,
    circuits: CircuitPaths,
}

impl PcHooks {
    /// Attempts to forward an arriving flit through the bypass latch
    /// (§IV.B). Returns whether the flit was consumed. `r` is the arriving
    /// flit's pool slot; its fields are read in place (after the cheap
    /// port-state early-outs) and a consumed flit is forwarded by reference,
    /// never re-stored.
    fn try_bypass(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        r: FlitRef,
        out: &mut RouterOutputs,
    ) -> bool {
        if !self.scheme.buffer_bypass || k.in_busy(in_port) {
            return false;
        }
        let Some(pc) = self.circuits.unit().live(in_port) else {
            return false;
        };
        if k.out_busy(pc.out_port) {
            return false;
        }
        let (vc, kind, flit_route, class, dst) = {
            let f = k.pool().get(r);
            (f.vc, f.kind, f.route, f.class, f.dst)
        };
        if pc.in_vc != vc {
            return false;
        }
        if !k.input_empty(in_port, vc) {
            return false;
        }
        let pc_route = RouteInfo {
            port: pc.out_port,
            hops: pc.hops,
        };
        let sub = pc.hops as usize - 1;
        let out_vc;
        let is_tail = kind.is_tail();
        if kind.is_head() && k.input_route(in_port, vc).is_none() {
            if flit_route != pc_route {
                return false;
            }
            let Some(allocated) =
                self.circuits
                    .allocate_vc(k, pc_route, class, dst, (in_port, vc), true)
            else {
                return false;
            };
            out_vc = allocated;
            k.stats.va_grants += 1;
            k.energy.record(EnergyEvent::Arbitration);
            if let Some(p) = k.counters.as_deref_mut() {
                p.on_va_grant(in_port);
            }
            if !is_tail {
                k.claim_input_vc(in_port, vc, pc_route, out_vc);
            } else {
                k.release_out_vc(pc_route.port, allocated);
            }
        } else {
            if k.input_route(in_port, vc) != Some(pc_route) {
                return false;
            }
            out_vc = k
                .input_out_vc(in_port, vc)
                .expect("routed VC has an output VC");
            if k.credits_available(pc.out_port, sub, out_vc) == 0 {
                return false;
            }
            if is_tail {
                k.release_input_vc(in_port, vc);
                k.release_out_vc(pc_route.port, out_vc);
            }
        }
        k.consume_credit(pc_route.port, sub, out_vc);
        k.stats.pc_reuses += 1;
        k.stats.buffer_bypasses += 1;
        if kind.is_head() {
            k.stats.pc_header_reuses += 1;
            k.stats.pc_header_bypasses += 1;
        }
        if let Some(p) = k.counters.as_deref_mut() {
            p.on_pc_hit(in_port, true);
            // Arrival, VA (headers) and traversal all happen this cycle:
            // the 1-cycle hop of paper Fig. 6. Bypassed flits never reside
            // in the buffer and skip SA, so BW/SA record no sample.
            p.on_stage(PipelineStage::St, 1);
            if kind.is_head() {
                p.on_stage(PipelineStage::Va, 0);
            }
        }
        k.trace(cycle, TraceEventKind::BypassHit, in_port, pc_route.port);
        // The write-through latch never occupies a buffer slot: the upstream
        // credit returns immediately.
        out.credits.push((in_port, vc));
        k.send_flit(r, in_port, pc_route, out_vc, 0, out);
        true
    }
}

impl SchemeHooks for PcHooks {
    fn begin_cycle(&mut self, k: &mut PipelineKernel, cycle: u64) {
        if self.scheme.pseudo_circuit {
            self.circuits.terminate_creditless_circuits(k, cycle);
        }
    }

    fn drain_reuse(&mut self, k: &mut PipelineKernel, cycle: u64, out: &mut RouterOutputs) {
        if self.scheme.pseudo_circuit {
            self.circuits.reuse_circuits(k, cycle, out);
        }
    }

    fn try_arrival_intercept(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        r: FlitRef,
        out: &mut RouterOutputs,
    ) -> bool {
        self.try_bypass(k, cycle, in_port, r, out)
    }

    fn allocate_out_vc(
        &mut self,
        k: &mut PipelineKernel,
        flit: &Flit,
        owner: (PortIndex, VcIndex),
    ) -> Option<(VcIndex, u8)> {
        self.circuits
            .allocate_vc(k, flit.route, flit.class, flit.dst, owner, false)
            .map(|vc| (vc, 0))
    }

    /// Flits covered by a live matching pseudo-circuit bypass SA entirely:
    /// they drain through the held connection (§III.B, "the following flits
    /// coming to the same VC can bypass SA ... until the pseudo-circuit is
    /// terminated").
    fn sa_skip(&self, in_port: PortIndex, vc: VcIndex, route: RouteInfo) -> bool {
        if !self.scheme.pseudo_circuit {
            return false;
        }
        self.circuits
            .unit()
            .live(in_port)
            .is_some_and(|pc| pc.in_vc == vc && pc.out_port == route.port && pc.hops == route.hops)
    }

    /// Each grant (re)establishes the pseudo-circuit of its connection.
    fn on_sa_grant(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        vc: VcIndex,
        route: RouteInfo,
    ) {
        if self.scheme.pseudo_circuit {
            self.circuits.establish(k, cycle, in_port, vc, route);
        }
    }

    fn end_cycle(&mut self, k: &mut PipelineKernel, cycle: u64) {
        if self.scheme.speculation {
            self.circuits.speculate(k, cycle);
        }
        self.circuits.end_cycle(k);
    }
}

/// The pseudo-circuit router (also the baseline router when the scheme is
/// [`Scheme::baseline`]): the shared [`PipelineKernel`] plus the scheme's
/// [`SchemeHooks`] implementation.
pub struct PcRouter {
    kernel: PipelineKernel,
    hooks: PcHooks,
}

impl PcRouter {
    /// Builds a router.
    ///
    /// # Panics
    ///
    /// Panics if the scheme is inconsistent (see [`Scheme::validate`]).
    pub fn new(
        id: RouterId,
        topo: SharedTopology,
        config: NetworkConfig,
        scheme: Scheme,
        pool: Arc<FlitPool>,
    ) -> Self {
        scheme.validate().unwrap_or_else(|e| panic!("{e}"));
        let in_ports = topo.in_ports(id);
        let out_ports = topo.out_ports(id);
        let partition = config.partition_for(topo.as_ref());
        Self {
            kernel: PipelineKernel::new(id, topo, config, true, pool),
            hooks: PcHooks {
                scheme,
                circuits: CircuitPaths::new(in_ports, out_ports, config.va_policy, partition),
            },
        }
    }

    /// The scheme this router runs.
    pub fn scheme(&self) -> Scheme {
        self.hooks.scheme
    }

    /// Enables observability per `metrics`: per-port counters at
    /// [`noc_sim::MetricsLevel::Full`], and a lifecycle trace ring when this
    /// router is selected by the trace spec. Call before the first `step`.
    pub fn enable_metrics(&mut self, metrics: &MetricsConfig) {
        self.kernel.enable_metrics(metrics);
    }

    /// The pseudo-circuit unit (exposed for white-box tests).
    pub fn pseudo_unit(&self) -> &PseudoCircuitUnit {
        self.hooks.circuits.unit()
    }

    /// The flit slab this router reads and writes flit bodies through
    /// (exposed so tests can allocate arrival flits and inspect emissions).
    pub fn pool(&self) -> &Arc<FlitPool> {
        self.kernel.pool()
    }
}

impl RouterModel for PcRouter {
    fn receive_flit(&mut self, in_port: PortIndex, flit: FlitRef) {
        self.kernel.receive_flit(in_port, flit);
    }

    fn receive_credit(&mut self, out_port: PortIndex, credit: Credit) {
        self.kernel.receive_credit(out_port, credit);
    }

    fn step(&mut self, cycle: u64, out: &mut RouterOutputs) {
        self.kernel.step(&mut self.hooks, cycle, out);
    }

    /// Exact step-is-no-op predicate, mirroring every phase of `step`:
    /// nothing staged or buffered (the kernel phases have no work), no held
    /// circuit that phase A would terminate for credit exhaustion, and no
    /// restorable circuit that phase G would speculatively restore. Arbiters
    /// do not move on empty request masks, so a skipped step is
    /// bit-identical to an executed one. Both circuit checks visit only the
    /// set bits of the unit's port masks.
    fn is_idle(&self) -> bool {
        let (k, h) = (&self.kernel, &self.hooks);
        k.is_idle_base()
            && !(h.scheme.pseudo_circuit && h.circuits.would_terminate(k))
            && !(h.scheme.speculation && h.circuits.would_restore(k))
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

/// Builds [`PcRouter`]s with a fixed scheme.
#[derive(Copy, Clone, Debug, Default)]
pub struct PcRouterFactory {
    /// The scheme every router in the network runs.
    pub scheme: Scheme,
}

impl PcRouterFactory {
    /// Creates a factory for `scheme`.
    pub fn new(scheme: Scheme) -> Self {
        Self { scheme }
    }
}

impl RouterFactory for PcRouterFactory {
    fn build(&self, ctx: RouterBuildContext<'_>) -> Box<dyn RouterModel> {
        let mut router = PcRouter::new(
            ctx.id,
            ctx.topology.clone(),
            *ctx.config,
            self.scheme,
            ctx.pool.clone(),
        );
        router.enable_metrics(ctx.metrics);
        Box::new(router)
    }
}
