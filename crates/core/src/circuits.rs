//! The circuit paths shared by every router that holds crossbar connections
//! in a [`PseudoCircuitUnit`]: the pseudo-circuit router ([`crate::PcRouter`])
//! and the profiled-hybrid router (`noc-hybrid`).
//!
//! [`CircuitPaths`] bundles the unit with the VC-allocation policy and
//! implements, once, the scheme-independent pieces of both routers' kernel
//! hooks: VC allocation for the reuse paths, credit-exhaustion termination
//! (phase A, §III.C), reuse from the input buffers (phase C, §III.B),
//! establishment on a switch grant, speculation (phase G, §IV.A), and the
//! two idle checks that mirror phases A and G. The routers decide *when*
//! each piece runs (the hybrid router, for instance, establishes circuits
//! only for hot flows and never speculates).
//!
//! Phases A and G and their idle checks walk only the set bits of the
//! unit's held and restorable port masks and read the kernel's per
//! sub-channel credit availability ([`PipelineKernel::sub_has_credit`]),
//! so a router with no circuits pays nothing per port.

use crate::pseudo::{PseudoCircuitUnit, Termination};
use noc_base::{NodeId, PortIndex, RouteInfo, VaPolicy, VcIndex, VcPartition};
use noc_energy::EnergyEvent;
use noc_sim::{PipelineKernel, Probe, RouterOutputs, TraceEventKind};

/// The circuit registers plus the VC-allocation policy the circuit paths
/// consult.
#[derive(Clone, Debug)]
pub struct CircuitPaths {
    va_policy: VaPolicy,
    partition: VcPartition,
    unit: PseudoCircuitUnit,
}

impl CircuitPaths {
    /// Circuit state for a router with the given port counts, allocating
    /// output VCs by `va_policy` within `partition`'s classes.
    pub fn new(
        in_ports: usize,
        out_ports: usize,
        va_policy: VaPolicy,
        partition: VcPartition,
    ) -> Self {
        Self {
            va_policy,
            partition,
            unit: PseudoCircuitUnit::new(in_ports, out_ports),
        }
    }

    /// The circuit registers.
    pub fn unit(&self) -> &PseudoCircuitUnit {
        &self.unit
    }

    /// The circuit registers, mutably (for scheme-specific terminations).
    pub fn unit_mut(&mut self) -> &mut PseudoCircuitUnit {
        &mut self.unit
    }

    /// Allocates an output VC for a header (VA). `require_credit` makes the
    /// allocation fail unless the chosen VC has a downstream credit — used by
    /// the reuse/bypass paths that traverse the same cycle.
    pub fn allocate_vc(
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

    /// Whether the circuit of `input` toward `out_port` has a downstream
    /// credit on any VC of its drop position's sub-channel.
    #[inline]
    fn has_credit(&self, k: &PipelineKernel, input: PortIndex, out_port: PortIndex) -> bool {
        k.sub_has_credit(out_port, self.unit.registers(input).hops as usize - 1)
    }

    /// Phase A: terminates the circuits whose output has no downstream
    /// credit at the held drop position (§III.C). Visits held ports only.
    pub fn terminate_creditless_circuits(&mut self, k: &mut PipelineKernel, cycle: u64) {
        for wi in 0..self.unit.held_ports().len() {
            // Copied out: a termination clears its own port's bit only.
            let mut word = self.unit.held_ports()[wi];
            while word != 0 {
                let port = PortIndex::new(wi * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
                let holder = self.unit.holder(port).expect("held port has a holder");
                if self.has_credit(k, holder, port) {
                    continue;
                }
                self.unit.terminate(holder, Termination::CreditExhausted);
                if let Some(p) = k.counters.as_deref_mut() {
                    p.on_pc_terminated(holder, Termination::CreditExhausted);
                }
                k.trace(cycle, TraceEventKind::TerminateCredit, holder, port);
            }
        }
    }

    /// Whether phase A has work: some held circuit has no downstream credit.
    pub fn would_terminate(&self, k: &PipelineKernel) -> bool {
        any_port(self.unit.held_ports(), |port| {
            let holder = self.unit.holder(port).expect("held port has a holder");
            !self.has_credit(k, holder, port)
        })
    }

    /// Phase C: circuit reuse from the input buffers. A buffered, ready
    /// head-of-VC flit whose route matches the live circuit traverses
    /// immediately, bypassing SA. Whatever gated the circuit's
    /// establishment, once a connection is held any flit whose route matches
    /// rides it (`sa_skip` already withheld its SA request).
    pub fn reuse_circuits(&mut self, k: &mut PipelineKernel, cycle: u64, out: &mut RouterOutputs) {
        for in_port in 0..k.num_in_ports() {
            if k.in_occupancy[in_port] == 0 {
                continue; // reuse only drains buffered flits
            }
            let in_port = PortIndex::new(in_port);
            if k.in_busy(in_port) {
                continue;
            }
            let Some(pc) = self.unit.live(in_port) else {
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
                // A new packet: compare its routing information against the
                // circuit (§III.B) and acquire an output VC in parallel.
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
                    continue; // per-VC back-pressure; port-level handled in phase A
                }
            }
            k.traverse_from_buffer(cycle, in_port, vc, true, out);
        }
    }

    /// (Re)establishes the circuit of a granted connection, reporting the
    /// creation and any conflict terminations to the probe and tracer.
    pub fn establish(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        vc: VcIndex,
        route: RouteInfo,
    ) {
        let outcome = self.unit.establish(in_port, vc, route.port, route.hops);
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

    /// Phase G: speculation — restores the most recently terminated circuit
    /// of every idle output port with downstream credit (§IV.A). Visits
    /// restorable ports only.
    pub fn speculate(&mut self, k: &mut PipelineKernel, cycle: u64) {
        for wi in 0..self.unit.restorable_ports().len() {
            // Copied out: a restore clears its own port's bit only (the
            // restored input's registers point at no other port).
            let mut word = self.unit.restorable_ports()[wi];
            while word != 0 {
                let port = PortIndex::new(wi * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
                let h = self
                    .unit
                    .history(port)
                    .expect("restorable port has history");
                if !self.has_credit(k, h, port) {
                    continue;
                }
                let restored = self.unit.try_restore(port);
                debug_assert!(restored, "restorable bit implies a restore");
                k.stats.pc_speculative_restores += 1;
                if let Some(p) = k.counters.as_deref_mut() {
                    p.on_pc_restored(port);
                }
                k.trace(cycle, TraceEventKind::Restore, h, port);
            }
        }
    }

    /// Whether phase G has work: some restorable port has downstream credit.
    pub fn would_restore(&self, k: &PipelineKernel) -> bool {
        any_port(self.unit.restorable_ports(), |port| {
            let h = self
                .unit
                .history(port)
                .expect("restorable port has history");
            self.has_credit(k, h, port)
        })
    }

    /// End-of-cycle bookkeeping: mirrors the termination counters into the
    /// kernel's stats and checks the unit's invariants (debug builds).
    pub fn end_cycle(&self, k: &mut PipelineKernel) {
        k.stats.pc_terminations_conflict = self.unit.terminations_conflict();
        k.stats.pc_terminations_credit = self.unit.terminations_credit();
        debug_assert!(self.unit.check_invariants().is_ok());
    }
}

/// Whether `test` holds for any port whose bit is set in `mask`.
#[inline]
fn any_port(mask: &[u64], mut test: impl FnMut(PortIndex) -> bool) -> bool {
    for (wi, &w) in mask.iter().enumerate() {
        let mut word = w;
        while word != 0 {
            let port = PortIndex::new(wi * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
            if test(port) {
                return true;
            }
        }
    }
    false
}
