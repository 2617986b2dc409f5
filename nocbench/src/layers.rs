//! Traced-run decorators: host-time attribution from outside the library.
//!
//! [`TracedFactory`] wraps a [`RouterFactory`] so every router it builds is a
//! [`TracedRouter`] shim, and [`TracedTraffic`] wraps a [`TrafficModel`].
//! Both delegate every trait method unchanged; they only time (or count) the
//! calls the engine makes into the layer they wrap. A traced run therefore
//! simulates exactly what an untraced run does — the benchmark checks this
//! by comparing report hashes on every traced run.
//!
//! Tallies are `AtomicU64`s with exactly one writer each (the shim that owns
//! them), updated by a relaxed load + store rather than a read-modify-write:
//! on x86-64 that is a plain `mov`, so a tally costs no more than a local
//! counter while keeping the shims `Send` as the traits require. The
//! harness reads them only after `Simulation::run` has returned.

use noc_base::{Credit, FlitRef, PortIndex};
use noc_energy::EnergyCounters;
use noc_sim::{
    RouterBuildContext, RouterFactory, RouterModel, RouterObservation, RouterOutputs, RouterStats,
    TraceRing,
};
use noc_traffic::{DeliveredPacket, PacketRequest, TrafficModel};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Adds `by` to a tally that only the calling shim writes.
fn bump(tally: &AtomicU64, by: u64) {
    tally.store(tally.load(Relaxed) + by, Relaxed);
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One router's tallies.
#[derive(Default, Debug)]
pub struct RouterTally {
    /// Host nanoseconds inside `RouterModel::step`.
    pub step_ns: AtomicU64,
    /// `step` calls.
    pub steps: AtomicU64,
    /// `receive_flit` + `receive_credit` calls (counted, not timed: a timer
    /// costs as much as the call).
    pub receives: AtomicU64,
}

/// A router that delegates to `inner`, timing `step` and counting receipts.
pub struct TracedRouter {
    inner: Box<dyn RouterModel>,
    tally: Arc<RouterTally>,
}

impl RouterModel for TracedRouter {
    fn receive_flit(&mut self, in_port: PortIndex, flit: FlitRef) {
        bump(&self.tally.receives, 1);
        self.inner.receive_flit(in_port, flit);
    }

    fn receive_credit(&mut self, out_port: PortIndex, credit: Credit) {
        bump(&self.tally.receives, 1);
        self.inner.receive_credit(out_port, credit);
    }

    fn step(&mut self, cycle: u64, out: &mut RouterOutputs) {
        let start = Instant::now();
        self.inner.step(cycle, out);
        bump(&self.tally.step_ns, nanos_since(start));
        bump(&self.tally.steps, 1);
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    fn stats(&self) -> RouterStats {
        self.inner.stats()
    }

    fn energy(&self) -> EnergyCounters {
        self.inner.energy()
    }

    fn observation(&self) -> Option<RouterObservation> {
        self.inner.observation()
    }

    fn tracer(&self) -> Option<&TraceRing> {
        self.inner.tracer()
    }
}

/// A factory that wraps every router `inner` builds in a [`TracedRouter`].
pub struct TracedFactory<'a> {
    inner: &'a dyn RouterFactory,
    tallies: Mutex<Vec<Arc<RouterTally>>>,
}

impl<'a> TracedFactory<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn RouterFactory) -> Self {
        Self {
            inner,
            tallies: Mutex::new(Vec::new()),
        }
    }

    /// Sums the tallies of every router built so far:
    /// `(step_ns, steps, receives)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        let tallies = self
            .tallies
            .lock()
            .expect("no shim panics holding the tally list");
        tallies.iter().fold((0, 0, 0), |(ns, steps, rx), t| {
            (
                ns + t.step_ns.load(Relaxed),
                steps + t.steps.load(Relaxed),
                rx + t.receives.load(Relaxed),
            )
        })
    }
}

impl RouterFactory for TracedFactory<'_> {
    fn build(&self, ctx: RouterBuildContext<'_>) -> Box<dyn RouterModel> {
        let tally = Arc::new(RouterTally::default());
        self.tallies
            .lock()
            .expect("no shim panics holding the tally list")
            .push(tally.clone());
        Box::new(TracedRouter {
            inner: self.inner.build(ctx),
            tally,
        })
    }
}

/// The traffic layer's tallies.
#[derive(Default, Debug)]
pub struct TrafficTally {
    /// Host nanoseconds inside `generate`.
    pub generate_ns: AtomicU64,
    /// `generate` calls.
    pub generate_calls: AtomicU64,
    /// Packet requests emitted by `generate`.
    pub packets_generated: AtomicU64,
    /// Host nanoseconds inside `deliver`.
    pub deliver_ns: AtomicU64,
    /// `deliver` calls (packets delivered).
    pub packets_delivered: AtomicU64,
    /// Host nanoseconds inside `next_injection_cycle` (the fast-forward
    /// lookahead; near zero on the benchmark's workloads).
    pub lookahead_ns: AtomicU64,
}

impl TrafficTally {
    /// Host nanoseconds spent in the traffic layer.
    pub fn total_ns(&self) -> u64 {
        self.generate_ns.load(Relaxed)
            + self.deliver_ns.load(Relaxed)
            + self.lookahead_ns.load(Relaxed)
    }
}

/// A traffic model that delegates to `inner`, timing every call.
pub struct TracedTraffic {
    inner: Box<dyn TrafficModel>,
    tally: Arc<TrafficTally>,
}

impl TracedTraffic {
    /// Wraps `inner`; the returned tally stays readable after the model is
    /// moved into a simulation.
    pub fn new(inner: Box<dyn TrafficModel>) -> (Self, Arc<TrafficTally>) {
        let tally = Arc::new(TrafficTally::default());
        (
            Self {
                inner,
                tally: tally.clone(),
            },
            tally,
        )
    }
}

impl TrafficModel for TracedTraffic {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn generate(&mut self, cycle: u64, sink: &mut dyn FnMut(PacketRequest)) {
        let mut emitted = 0;
        let start = Instant::now();
        self.inner.generate(cycle, &mut |request| {
            emitted += 1;
            sink(request);
        });
        bump(&self.tally.generate_ns, nanos_since(start));
        bump(&self.tally.generate_calls, 1);
        bump(&self.tally.packets_generated, emitted);
    }

    fn next_injection_cycle(&mut self, from: u64, horizon: u64) -> Option<u64> {
        let start = Instant::now();
        let next = self.inner.next_injection_cycle(from, horizon);
        bump(&self.tally.lookahead_ns, nanos_since(start));
        next
    }

    fn deliver(&mut self, cycle: u64, packet: &DeliveredPacket) {
        let start = Instant::now();
        self.inner.deliver(cycle, packet);
        bump(&self.tally.deliver_ns, nanos_since(start));
        bump(&self.tally.packets_delivered, 1);
    }

    fn has_pending_work(&self) -> bool {
        self.inner.has_pending_work()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}
