//! The pseudo-circuit unit: per-input-port registers, held crossbar
//! connections, and per-output-port history for speculation (paper §III–IV).
//!
//! A *pseudo-circuit* is a crossbar connection left configured after a flit
//! traversal, recorded as `(input VC, output port, drop distance)` in the
//! input port's register. Invariants maintained here:
//!
//! - at most one live pseudo-circuit per input port **and** per output port
//!   (a pseudo-circuit *is* a held crossbar connection);
//! - invalidation clears only the valid bit — the registers retain their
//!   contents so speculation can restore the circuit later (§IV.A);
//! - every output port remembers the input port of its most recently
//!   terminated pseudo-circuit (the speculation history register).
//!
//! # Port masks
//!
//! The unit also keeps two masks over output ports, one [`MaskRows`]
//! allocation with a row each, so the per-cycle circuit checks visit only
//! the ports they can act on instead of scanning every port:
//!
//! - **held** — bit `o` is set iff output `o` has a holder
//!   ([`holder`](PseudoCircuitUnit::holder) is `Some`); the candidates of
//!   credit-exhaustion termination (§III.C);
//! - **restorable** — bit `o` is set iff output `o` has no holder, has a
//!   history input `h`, and `h`'s registers are invalid and still point at
//!   `o`; exactly the ports where [`try_restore`](PseudoCircuitUnit::try_restore)
//!   succeeds, the candidates of speculation (§IV.A).
//!
//! Both are maintained inside `establish`, `terminate` and `try_restore`,
//! the only mutators. A port's bits depend on its holder, its history
//! register and the registers of its history input; a change to input `i`'s
//! registers can only move the bit of the port `i` pointed at before and
//! the one it points at after (restorable requires `out_port == o`), so
//! each mutator re-derives the bits of at most two ports.
//! [`check_invariants`](PseudoCircuitUnit::check_invariants) compares both
//! masks with their definitions on every port.

use noc_base::bitset::{assign_bit, test_bit, words_for};
use noc_base::{MaskRows, PortIndex, VcIndex};
// `Termination` lives next to the `Probe` trait that carries it (the kernel's
// observability surface in `noc-sim`); re-exported here so the circuit state
// machine and its termination causes stay importable from one place.
pub use noc_sim::Termination;

/// What an [`PseudoCircuitUnit::establish`] call did, reported so the router
/// can fire per-port observability hooks without a callback.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct EstablishOutcome {
    /// Whether the grant configured a connection that was not already live.
    /// A refresh of the same `(input port, output port)` pair — even with a
    /// new VC — is not a creation.
    pub created: bool,
    /// Circuits terminated by conflict, as `(input port, its output port)`:
    /// slot 0 is the granting input's previous circuit, slot 1 the previous
    /// holder of the granted output port.
    pub terminated: [Option<(PortIndex, PortIndex)>; 2],
}

/// Per-input-port pseudo-circuit registers. Contents persist across
/// invalidation (only `valid` clears).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PcRegisters {
    /// Whether the stored circuit is currently live.
    pub valid: bool,
    /// Input VC the circuit serves.
    pub in_vc: VcIndex,
    /// Output port of the held connection.
    pub out_port: PortIndex,
    /// Drop distance on the output channel (1 for point-to-point links).
    pub hops: u8,
}

impl PcRegisters {
    fn empty() -> Self {
        Self {
            valid: false,
            in_vc: VcIndex::new(0),
            out_port: PortIndex::new(0),
            hops: 1,
        }
    }
}

/// The per-output-port registers: the port's holder and its speculation
/// history (both indexed by output port, so kept in one array).
#[derive(Copy, Clone, Debug, Default)]
struct OutPortRegs {
    /// The input port holding the crossbar connection, if any.
    holder: Option<PortIndex>,
    /// The input port of the most recently terminated circuit here.
    history: Option<PortIndex>,
}

/// Row of the unit's port masks holding the held-port mask.
const HELD: usize = 0;
/// Row of the unit's port masks holding the restorable-port mask.
const RESTORABLE: usize = 1;

/// Pseudo-circuit state for one router.
#[derive(Clone, Debug)]
pub struct PseudoCircuitUnit {
    regs: Vec<PcRegisters>,
    outs: Vec<OutPortRegs>,
    // The held and restorable output-port masks (module docs), rows `HELD`
    // and `RESTORABLE`.
    ports: MaskRows,
    terminations_conflict: u64,
    terminations_credit: u64,
}

impl PseudoCircuitUnit {
    /// Creates the unit for a router with the given port counts.
    pub fn new(in_ports: usize, out_ports: usize) -> Self {
        Self {
            regs: vec![PcRegisters::empty(); in_ports],
            outs: vec![OutPortRegs::default(); out_ports],
            ports: MaskRows::new(2, out_ports),
            terminations_conflict: 0,
            terminations_credit: 0,
        }
    }

    /// The held-port mask: bit `o` set iff output `o` has a holder.
    #[inline]
    pub fn held_ports(&self) -> &[u64] {
        self.ports.row(HELD)
    }

    /// The restorable-port mask: bit `o` set iff
    /// [`try_restore`](Self::try_restore) on output `o` would succeed.
    #[inline]
    pub fn restorable_ports(&self) -> &[u64] {
        self.ports.row(RESTORABLE)
    }

    /// The restorable condition of `out_port` evaluated from the registers:
    /// no holder, and a history input whose stale registers point here.
    fn restorable_by_definition(&self, out_port: PortIndex) -> bool {
        let port = self.outs[out_port.index()];
        port.holder.is_none()
            && port.history.is_some_and(|h| {
                let reg = self.regs[h.index()];
                !reg.valid && reg.out_port == out_port
            })
    }

    /// Re-derives both mask bits of `out_port` from the registers.
    #[inline]
    fn refresh_port(&mut self, out_port: PortIndex) {
        let o = out_port.index();
        let held = self.outs[o].holder.is_some();
        let restorable = self.restorable_by_definition(out_port);
        assign_bit(self.ports.row_mut(HELD), o, held);
        assign_bit(self.ports.row_mut(RESTORABLE), o, restorable);
    }

    /// The registers of an input port (live or stale).
    pub fn registers(&self, in_port: PortIndex) -> PcRegisters {
        self.regs[in_port.index()]
    }

    /// The live pseudo-circuit at `in_port`, if any.
    pub fn live(&self, in_port: PortIndex) -> Option<PcRegisters> {
        let r = self.regs[in_port.index()];
        r.valid.then_some(r)
    }

    /// The input port holding `out_port`'s crossbar connection, if any.
    pub fn holder(&self, out_port: PortIndex) -> Option<PortIndex> {
        self.outs[out_port.index()].holder
    }

    /// The speculation history register of `out_port`: the input port of the
    /// most recently terminated pseudo-circuit there.
    pub fn history(&self, out_port: PortIndex) -> Option<PortIndex> {
        self.outs[out_port.index()].history
    }

    /// Conflict terminations so far.
    pub fn terminations_conflict(&self) -> u64 {
        self.terminations_conflict
    }

    /// Credit-exhaustion terminations so far.
    pub fn terminations_credit(&self) -> u64 {
        self.terminations_credit
    }

    /// Establishes (or refreshes) the pseudo-circuit for a granted crossbar
    /// connection, terminating any live circuits that conflict on the input
    /// or output port. Returns what happened (conflict terminations, whether
    /// a new connection was created) for observability.
    pub fn establish(
        &mut self,
        in_port: PortIndex,
        in_vc: VcIndex,
        out_port: PortIndex,
        hops: u8,
    ) -> EstablishOutcome {
        let mut outcome = EstablishOutcome::default();
        // Terminate the previous circuit from this input port (if any and
        // different).
        if let Some(prev) = self.live(in_port) {
            if prev.out_port != out_port {
                self.terminate(in_port, Termination::Conflict);
                outcome.terminated[0] = Some((in_port, prev.out_port));
            }
        }
        // Terminate whichever circuit currently holds the output port.
        if let Some(holder) = self.outs[out_port.index()].holder {
            if holder != in_port {
                self.terminate(holder, Termination::Conflict);
                outcome.terminated[1] = Some((holder, out_port));
            }
        }
        outcome.created = self.outs[out_port.index()].holder != Some(in_port);
        // The input's registers move to `out_port`: the port they pointed
        // at before may lose its restorable bit.
        let previous_out = self.regs[in_port.index()].out_port;
        self.regs[in_port.index()] = PcRegisters {
            valid: true,
            in_vc,
            out_port,
            hops,
        };
        self.outs[out_port.index()].holder = Some(in_port);
        self.refresh_port(previous_out);
        self.refresh_port(out_port);
        outcome
    }

    /// Terminates the live pseudo-circuit at `in_port` (no-op when none),
    /// recording it in the output port's history register.
    pub fn terminate(&mut self, in_port: PortIndex, why: Termination) {
        let reg = &mut self.regs[in_port.index()];
        if !reg.valid {
            return;
        }
        reg.valid = false;
        let out = reg.out_port;
        debug_assert_eq!(self.outs[out.index()].holder, Some(in_port), "hold desync");
        self.outs[out.index()].holder = None;
        self.outs[out.index()].history = Some(in_port);
        self.refresh_port(out);
        match why {
            Termination::Conflict => self.terminations_conflict += 1,
            Termination::CreditExhausted => self.terminations_credit += 1,
        }
    }

    /// Attempts the speculative restoration of `out_port`'s most recent
    /// pseudo-circuit (paper §IV.A). Succeeds only when the output port is
    /// free, the history input port has no live circuit, and its stale
    /// registers still point at this output port. Returns whether a circuit
    /// was restored; the caller is responsible for the downstream-credit
    /// check.
    pub fn try_restore(&mut self, out_port: PortIndex) -> bool {
        if !test_bit(self.restorable_ports(), out_port.index()) {
            return false;
        }
        let h = self.outs[out_port.index()]
            .history
            .expect("restorable port has a history input");
        self.regs[h.index()].valid = true;
        self.outs[out_port.index()].holder = Some(h);
        self.refresh_port(out_port);
        true
    }

    /// Checks the one-per-port invariants and both port masks against their
    /// definitions; used by debug assertions and property tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let width = words_for(self.outs.len()) * 64;
        for o in 0..width {
            let (held, restorable) = if o < self.outs.len() {
                let port = PortIndex::new(o);
                (
                    self.outs[o].holder.is_some(),
                    self.restorable_by_definition(port),
                )
            } else {
                (false, false) // padding bits of the last word stay clear
            };
            if test_bit(self.held_ports(), o) != held {
                return Err(format!("held mask bit {o} disagrees with the holders"));
            }
            if test_bit(self.restorable_ports(), o) != restorable {
                return Err(format!(
                    "restorable mask bit {o} disagrees with the registers"
                ));
            }
        }
        for (i, reg) in self.regs.iter().enumerate() {
            if reg.valid && self.outs[reg.out_port.index()].holder != Some(PortIndex::new(i)) {
                return Err(format!("input {i} valid but output not held by it"));
            }
        }
        for (o, h) in self.outs.iter().map(|regs| &regs.holder).enumerate() {
            if let Some(input) = h {
                if !self.regs[input.index()].valid {
                    return Err(format!("output {o} held by invalid input {input}"));
                }
                if self.regs[input.index()].out_port.index() != o {
                    return Err(format!("output {o} holder points elsewhere"));
                }
                // Quadratic duplicate scan instead of a hash set: the port
                // count is tiny, and this runs inside a per-step
                // debug_assert, which must stay allocation-free
                // (tests/zero_alloc.rs counts debug builds too).
                if self.outs[..o].iter().any(|regs| regs.holder == *h) {
                    return Err(format!("input {input} holds two outputs"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> PortIndex {
        PortIndex::new(i)
    }

    fn v(i: usize) -> VcIndex {
        VcIndex::new(i)
    }

    #[test]
    fn establish_creates_a_live_circuit() {
        let mut u = PseudoCircuitUnit::new(4, 4);
        u.establish(p(1), v(2), p(3), 1);
        let live = u.live(p(1)).unwrap();
        assert_eq!(live.in_vc, v(2));
        assert_eq!(live.out_port, p(3));
        assert_eq!(u.holder(p(3)), Some(p(1)));
        u.check_invariants().unwrap();
    }

    #[test]
    fn output_conflict_terminates_previous_holder() {
        // Fig. 4(c): a new flit at a different input claims the same output.
        let mut u = PseudoCircuitUnit::new(4, 4);
        u.establish(p(0), v(0), p(3), 1);
        u.establish(p(1), v(1), p(3), 1);
        assert!(u.live(p(0)).is_none(), "previous circuit terminated");
        assert_eq!(u.holder(p(3)), Some(p(1)));
        assert_eq!(u.terminations_conflict(), 1);
        // Registers persist after invalidation.
        let stale = u.registers(p(0));
        assert!(!stale.valid);
        assert_eq!(stale.out_port, p(3));
        u.check_invariants().unwrap();
    }

    #[test]
    fn input_conflict_terminates_previous_output() {
        let mut u = PseudoCircuitUnit::new(4, 4);
        u.establish(p(0), v(0), p(2), 1);
        u.establish(p(0), v(1), p(3), 1);
        assert_eq!(u.holder(p(2)), None);
        assert_eq!(u.holder(p(3)), Some(p(0)));
        assert_eq!(u.live(p(0)).unwrap().in_vc, v(1));
        u.check_invariants().unwrap();
    }

    #[test]
    fn refresh_same_connection_is_not_a_termination() {
        let mut u = PseudoCircuitUnit::new(4, 4);
        u.establish(p(0), v(0), p(2), 1);
        u.establish(p(0), v(1), p(2), 1); // same ports, new VC
        assert_eq!(u.terminations_conflict(), 0);
        assert_eq!(u.live(p(0)).unwrap().in_vc, v(1));
        u.check_invariants().unwrap();
    }

    #[test]
    fn credit_termination_updates_history() {
        let mut u = PseudoCircuitUnit::new(4, 4);
        u.establish(p(2), v(0), p(1), 1);
        u.terminate(p(2), Termination::CreditExhausted);
        assert_eq!(u.terminations_credit(), 1);
        assert_eq!(u.history(p(1)), Some(p(2)));
        assert!(u.live(p(2)).is_none());
        u.check_invariants().unwrap();
    }

    #[test]
    fn terminate_without_live_circuit_is_noop() {
        let mut u = PseudoCircuitUnit::new(2, 2);
        u.terminate(p(0), Termination::Conflict);
        assert_eq!(u.terminations_conflict(), 0);
    }

    #[test]
    fn speculation_restores_most_recent_circuit() {
        // Fig. 5(a): the output reconnects to the input it last served.
        let mut u = PseudoCircuitUnit::new(4, 4);
        u.establish(p(0), v(3), p(2), 1);
        u.terminate(p(0), Termination::Conflict);
        assert!(u.try_restore(p(2)));
        let live = u.live(p(0)).unwrap();
        assert_eq!(live.in_vc, v(3), "restored circuit keeps its stored VC");
        assert_eq!(u.holder(p(2)), Some(p(0)));
        u.check_invariants().unwrap();
    }

    #[test]
    fn speculation_respects_conflicts() {
        // Fig. 5(b): restoration only when the history input is free and its
        // registers still point here.
        let mut u = PseudoCircuitUnit::new(4, 4);
        u.establish(p(0), v(0), p(2), 1);
        u.terminate(p(0), Termination::Conflict);
        // The input has since formed a circuit elsewhere: its registers now
        // point to output 3, so output 2 must not restore.
        u.establish(p(0), v(0), p(3), 1);
        assert!(!u.try_restore(p(2)));
        // A held output never restores.
        assert!(!u.try_restore(p(3)));
        // An output with no history never restores.
        assert!(!u.try_restore(p(1)));
        u.check_invariants().unwrap();
    }

    #[test]
    fn history_tracks_most_recent_termination() {
        let mut u = PseudoCircuitUnit::new(4, 4);
        u.establish(p(0), v(0), p(2), 1);
        u.establish(p(1), v(0), p(2), 1); // terminates p0's circuit
        u.terminate(p(1), Termination::Conflict);
        assert_eq!(u.history(p(2)), Some(p(1)), "most recent wins");
        assert!(u.try_restore(p(2)));
        assert_eq!(u.holder(p(2)), Some(p(1)));
    }

    #[test]
    fn establish_outcome_reports_creations_and_conflicts() {
        let mut u = PseudoCircuitUnit::new(4, 4);
        let first = u.establish(p(0), v(0), p(2), 1);
        assert!(first.created);
        assert_eq!(first.terminated, [None, None]);
        // Same connection, new VC: a refresh, not a creation.
        let refresh = u.establish(p(0), v(1), p(2), 1);
        assert!(!refresh.created);
        assert_eq!(refresh.terminated, [None, None]);
        // A different input claims the output: holder terminated, created.
        let steal = u.establish(p(1), v(0), p(2), 1);
        assert!(steal.created);
        assert_eq!(steal.terminated, [None, Some((p(0), p(2)))]);
        // The thief moves to another output: its own circuit terminated.
        let moved = u.establish(p(1), v(0), p(3), 1);
        assert!(moved.created);
        assert_eq!(moved.terminated, [Some((p(1), p(2))), None]);
        u.check_invariants().unwrap();
    }

    #[test]
    fn multidrop_hops_are_stored() {
        let mut u = PseudoCircuitUnit::new(2, 2);
        u.establish(p(0), v(0), p(1), 3);
        assert_eq!(u.live(p(0)).unwrap().hops, 3);
    }
}
