//! The EVC router: the shared speculative two-stage pipeline kernel
//! ([`noc_sim::pipeline`]) plus the express-latch path and the NVC/EVC
//! split, plugged in through [`SchemeHooks`].
//!
//! Riding on the kernel gives the EVC comparator the same observability the
//! pseudo-circuit router has: per-stage latency histograms and per-port
//! counters at `--metrics=full`, lifecycle tracing (express latches record
//! [`TraceEventKind::ExpressLatch`]), and manifest router dumps.

use noc_base::{
    Credit, Flit, FlitPool, FlitRef, NodeId, PortIndex, RouteInfo, RouterId, VaPolicy, VcIndex,
};
use noc_energy::EnergyCounters;
use noc_sim::probe::Probe;
use noc_sim::{
    MetricsConfig, NetworkConfig, PipelineKernel, PipelineStage, RouterBuildContext, RouterFactory,
    RouterModel, RouterObservation, RouterOutputs, RouterStats, SchemeHooks, TraceEventKind,
    TraceRing,
};
use noc_topology::SharedTopology;
use std::sync::Arc;

/// The EVC scheme state and hook implementations: the NVC/EVC split plus the
/// express-segment length bound.
struct EvcHooks {
    va_policy: VaPolicy,
    vcs: usize,
    nvcs: usize,
    l_max: u8,
}

impl EvcHooks {
    fn is_evc(&self, vc: VcIndex) -> bool {
        vc.index() >= self.nvcs
    }

    /// Whether a packet leaving through `route` continues for at least
    /// `l_max` hops in the same direction (same output-port index at each
    /// router along the way) — the express-eligibility test.
    fn express_eligible(
        &self,
        k: &PipelineKernel,
        route: RouteInfo,
        dst: NodeId,
        mode: noc_base::RouteMode,
    ) -> bool {
        if route.port.index() < k.concentration {
            return false;
        }
        let mut router = k.id;
        let mut step = route;
        for _ in 0..self.l_max - 1 {
            let Some(end) = k.topo.link(router, step.port, step.hops) else {
                return false;
            };
            let next = k.topo.route(end.router, dst, mode);
            if next.port != step.port || next.hops != step.hops {
                return false;
            }
            router = end.router;
            step = next;
        }
        true
    }

    /// Attempts the express latch for an arriving flit with remaining
    /// express hops. Returns whether the flit was consumed. `r` is the pool
    /// slot behind `flit` (a pre-read copy); a latched flit is forwarded by
    /// reference, never re-stored.
    fn try_latch(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        r: FlitRef,
        out: &mut RouterOutputs,
    ) -> bool {
        if k.in_busy(in_port) {
            return false;
        }
        let (express_hops, route, vc, kind) = {
            let f = k.pool().get(r);
            (f.express_hops, f.route, f.vc, f.kind)
        };
        if express_hops == 0 {
            return false;
        }
        if route.port.index() < k.concentration || k.out_busy(route.port) {
            return false;
        }
        debug_assert!(self.is_evc(vc), "express flit on a normal VC");
        if !k.input_empty(in_port, vc) {
            return false;
        }
        let sub = route.hops as usize - 1;
        let is_head = kind.is_head();
        let is_tail = kind.is_tail();
        if is_head {
            if k.input_route(in_port, vc).is_some() {
                return false;
            }
            if !k.out_vc_is_free(route.port, vc) || k.credits_available(route.port, sub, vc) == 0 {
                return false;
            }
            k.claim_out_vc(route.port, vc, (in_port, vc));
            if !is_tail {
                k.claim_pass_through(in_port, vc, route, vc);
            } else {
                k.release_out_vc(route.port, vc);
            }
        } else {
            if !k.input_pass_through(in_port, vc)
                || k.input_route(in_port, vc) != Some(route)
                || k.input_out_vc(in_port, vc) != Some(vc)
            {
                return false;
            }
            if k.credits_available(route.port, sub, vc) == 0 {
                return false;
            }
            if is_tail {
                k.release_input_vc(in_port, vc);
                k.release_out_vc(route.port, vc);
            }
        }
        k.consume_credit(route.port, sub, vc);
        k.stats.express_bypasses += 1;
        if let Some(p) = k.counters.as_deref_mut() {
            // Arrival and traversal happen this cycle: a 1-cycle latch hop.
            // Latched flits never reside in the buffer and skip VA/SA, so
            // those stages record no sample.
            p.on_stage(PipelineStage::St, 1);
        }
        k.trace(cycle, TraceEventKind::ExpressLatch, in_port, route.port);
        out.credits.push((in_port, vc));
        k.send_flit(r, in_port, route, vc, express_hops - 1, out);
        true
    }
}

impl SchemeHooks for EvcHooks {
    fn try_arrival_intercept(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        r: FlitRef,
        out: &mut RouterOutputs,
    ) -> bool {
        self.try_latch(k, cycle, in_port, r, out)
    }

    /// VC allocation for one header: express packets take EVCs, others NVCs.
    /// Falls back from EVC to NVC when no express VC is free. Returns the VC
    /// and the express-hop budget the packet's flits will carry.
    fn allocate_out_vc(
        &mut self,
        k: &mut PipelineKernel,
        flit: &Flit,
        owner: (PortIndex, VcIndex),
    ) -> Option<(VcIndex, u8)> {
        let route = flit.route;
        let dst = flit.dst;
        let sub = route.hops as usize - 1;
        let express = self.express_eligible(k, route, dst, flit.mode);
        let port = route.port;
        let policy = self.va_policy;
        let pick = |k: &PipelineKernel, range: std::ops::Range<usize>| match policy {
            VaPolicy::Static => {
                let vc = VcIndex::new(range.start + dst.index() % range.len());
                k.out_vc_is_free(port, vc).then_some(vc)
            }
            VaPolicy::Dynamic => range
                .map(VcIndex::new)
                .filter(|&v| k.out_vc_is_free(port, v))
                .max_by_key(|&v| k.credits_available(port, sub, v)),
        };
        // Local (ejection) ports have no express discipline: any VC.
        if route.port.index() < k.concentration {
            let vc = pick(k, 0..self.vcs)?;
            k.claim_out_vc(port, vc, owner);
            return Some((vc, 0));
        }
        if express {
            if let Some(vc) = pick(k, self.nvcs..self.vcs) {
                k.claim_out_vc(port, vc, owner);
                return Some((vc, self.l_max - 1));
            }
        }
        let vc = pick(k, 0..self.nvcs)?;
        k.claim_out_vc(port, vc, owner);
        Some((vc, 0))
    }
}

/// The Express-Virtual-Channel router (dynamic EVCs, configurable `l_max`):
/// the shared [`PipelineKernel`] plus the EVC [`SchemeHooks`].
pub struct EvcRouter {
    kernel: PipelineKernel,
    hooks: EvcHooks,
}

impl EvcRouter {
    /// Builds an EVC router. Half the VCs are normal, half express.
    ///
    /// # Panics
    ///
    /// Panics if the routing policy uses more than one deadlock class (EVC's
    /// VC partition replaces O1TURN's), if the VC count is odd, or if
    /// `l_max < 2`.
    pub fn new(
        id: RouterId,
        topo: SharedTopology,
        config: NetworkConfig,
        l_max: u8,
        pool: Arc<FlitPool>,
    ) -> Self {
        assert_eq!(
            config.routing.num_classes().max(topo.min_classes()),
            1,
            "EVC requires a single-class routing policy (XY or YX) \
             on a topology without extra deadlock classes"
        );
        assert!(
            config.vcs_per_port.is_multiple_of(2),
            "EVC splits VCs in half"
        );
        assert!(l_max >= 2, "express segments span at least two hops");
        let vcs = config.vcs_per_port as usize;
        Self {
            kernel: PipelineKernel::new(id, topo, config, false, pool),
            hooks: EvcHooks {
                va_policy: config.va_policy,
                vcs,
                nvcs: vcs / 2,
                l_max,
            },
        }
    }

    /// Enables observability per `metrics` (counters at
    /// [`noc_sim::MetricsLevel::Full`], tracing when selected). Call before
    /// the first `step`.
    pub fn enable_metrics(&mut self, metrics: &MetricsConfig) {
        self.kernel.enable_metrics(metrics);
    }

    /// The flit slab this router reads and writes flit bodies through
    /// (exposed so tests can allocate arrival flits and inspect emissions).
    pub fn pool(&self) -> &Arc<FlitPool> {
        self.kernel.pool()
    }
}

impl RouterModel for EvcRouter {
    fn receive_flit(&mut self, in_port: PortIndex, flit: FlitRef) {
        self.kernel.receive_flit(in_port, flit);
    }

    fn receive_credit(&mut self, out_port: PortIndex, credit: Credit) {
        self.kernel.receive_credit(out_port, credit);
    }

    fn step(&mut self, cycle: u64, out: &mut RouterOutputs) {
        self.kernel.step(&mut self.hooks, cycle, out);
    }

    /// Exact step-is-no-op predicate: the EVC hooks carry no cycle-driven
    /// state of their own, so the kernel's base predicate is the whole
    /// answer.
    fn is_idle(&self) -> bool {
        self.kernel.is_idle_base()
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

/// Builds [`EvcRouter`]s with a fixed `l_max` (default 2, the paper's
/// configuration).
#[derive(Copy, Clone, Debug)]
pub struct EvcRouterFactory {
    /// Express-segment length bound.
    pub l_max: u8,
}

impl Default for EvcRouterFactory {
    fn default() -> Self {
        Self { l_max: 2 }
    }
}

impl RouterFactory for EvcRouterFactory {
    fn build(&self, ctx: RouterBuildContext<'_>) -> Box<dyn RouterModel> {
        let mut router = EvcRouter::new(
            ctx.id,
            ctx.topology.clone(),
            *ctx.config,
            self.l_max,
            ctx.pool.clone(),
        );
        router.enable_metrics(ctx.metrics);
        Box::new(router)
    }
}
