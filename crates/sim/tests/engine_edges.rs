//! Engine edge cases: degenerate run specifications, empty traffic, tiny
//! topologies, report consistency, and which routers the worklist steps.

use noc_base::{Credit, FlitRef, NodeId, PacketClass, PortIndex, RoutingPolicy, VaPolicy};
use noc_energy::EnergyCounters;
use noc_sim::test_model::WireRouterFactory;
use noc_sim::{
    NetworkConfig, RouterBuildContext, RouterFactory, RouterModel, RouterOutputs, RouterStats,
    RunSpec, Simulation,
};
use noc_topology::Mesh;
use noc_traffic::{PacketRequest, TrafficModel};
use std::sync::{Arc, Mutex};

struct Silence;

impl TrafficModel for Silence {
    fn name(&self) -> &str {
        "silence"
    }
    fn generate(&mut self, _cycle: u64, _sink: &mut dyn FnMut(PacketRequest)) {}
}

struct Burst {
    at: u64,
    count: usize,
}

impl TrafficModel for Burst {
    fn name(&self) -> &str {
        "burst"
    }
    fn generate(&mut self, cycle: u64, sink: &mut dyn FnMut(PacketRequest)) {
        if cycle == self.at {
            for i in 0..self.count {
                sink(PacketRequest {
                    src: NodeId::new(0),
                    dst: NodeId::new(1 + i % 3),
                    len: 2,
                    class: PacketClass::Data,
                });
            }
        }
    }
}

fn config() -> NetworkConfig {
    NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Dynamic,
        ..NetworkConfig::paper()
    }
}

fn sim(traffic: Box<dyn TrafficModel>) -> Simulation {
    Simulation::new(
        Arc::new(Mesh::new(2, 2, 1)),
        config(),
        traffic,
        &WireRouterFactory::default(),
        1,
    )
}

#[test]
fn idle_network_produces_an_empty_clean_report() {
    let mut s = sim(Box::new(Silence));
    let report = s.run(RunSpec::new(100, 500, 100));
    assert_eq!(report.measured_injected, 0);
    assert_eq!(report.measured_delivered, 0);
    assert_eq!(report.avg_latency, 0.0);
    assert_eq!(report.throughput, 0.0);
    assert!(report.drained);
    assert_eq!(report.final_backlog, 0);
    assert!(report.energy.is_empty());
}

#[test]
fn zero_measure_window_measures_nothing() {
    let mut s = sim(Box::new(Burst { at: 5, count: 4 }));
    let report = s.run(RunSpec::new(50, 0, 100));
    assert_eq!(report.measured_injected, 0);
    assert_eq!(report.throughput, 0.0);
    // Packets still flowed, just unmeasured.
    assert!(report.delivered_packets > 0);
}

#[test]
fn zero_warmup_measures_from_the_first_cycle() {
    let mut s = sim(Box::new(Burst { at: 0, count: 2 }));
    let report = s.run(RunSpec::new(0, 10, 200));
    assert_eq!(report.measured_injected, 2);
    assert_eq!(report.measured_delivered, 2);
}

#[test]
fn zero_drain_reports_undrained_in_flight_packets() {
    // Packets injected in the last measured cycle cannot complete without a
    // drain budget.
    let mut s = sim(Box::new(Burst { at: 9, count: 6 }));
    let report = s.run(RunSpec::new(0, 10, 0));
    assert_eq!(report.measured_injected, 6);
    assert!(!report.drained, "nothing had time to complete");
    assert!(report.measured_delivered < 6);
}

#[test]
fn consecutive_runs_use_fresh_measurement_windows() {
    let mut s = sim(Box::new(Burst { at: 5, count: 3 }));
    let first = s.run(RunSpec::new(0, 50, 200));
    assert_eq!(first.measured_injected, 3);
    // The burst already fired; a second run over the same simulation must
    // observe an idle network, not stale statistics.
    let second = s.run(RunSpec::new(0, 50, 200));
    assert_eq!(second.measured_injected, 0);
    assert!(second.cycles > first.cycles, "cycle counter advances");
}

#[test]
fn single_router_network_works() {
    // 1x1 mesh with two local nodes: pure local switching, no links.
    let topo = Arc::new(Mesh::new(1, 1, 2));
    let mut s = Simulation::new(
        topo,
        config(),
        Box::new(Burst { at: 0, count: 1 }),
        &WireRouterFactory::default(),
        3,
    );
    let report = s.run(RunSpec::new(0, 10, 100));
    assert_eq!(report.measured_delivered, 1);
    assert!(report.drained);
}

#[test]
#[should_panic(expected = "unknown node")]
fn out_of_range_destination_is_rejected() {
    // A traffic model that emits an invalid destination.
    struct Bad;
    impl TrafficModel for Bad {
        fn name(&self) -> &str {
            "bad"
        }
        fn generate(&mut self, cycle: u64, sink: &mut dyn FnMut(PacketRequest)) {
            if cycle == 0 {
                sink(PacketRequest {
                    src: NodeId::new(0),
                    dst: NodeId::new(999),
                    len: 1,
                    class: PacketClass::Data,
                });
            }
        }
    }
    let mut s = Simulation::new(
        Arc::new(Mesh::new(2, 2, 1)),
        config(),
        Box::new(Bad),
        &WireRouterFactory::default(),
        1,
    );
    let _ = s.run(RunSpec::new(0, 5, 10));
}

/// What one [`Counted`] router saw.
#[derive(Default, Debug)]
struct StepLog {
    /// `step` calls.
    steps: u64,
    /// Steps in a cycle whose only arrivals were credits.
    credit_only_steps: u64,
    /// A flit arrived since the last `step`.
    flit_waiting: bool,
    /// A credit arrived since the last `step`.
    credit_waiting: bool,
    /// The router answered `is_idle` after its last step (or when the
    /// engine built its worklist): it is off the worklist.
    off_worklist: bool,
    /// An event that must step the router this cycle arrived since the last
    /// `step`: a flit, or a credit that left an off-worklist router busy.
    wake_pending: bool,
    /// Steps of an off-worklist router that no waking event preceded.
    unwoken_steps: u64,
}

/// How a [`Counted`] router answers `is_idle`.
#[derive(Copy, Clone, PartialEq, Debug)]
enum Idle {
    /// Always `false`, as the trait's conservative default does.
    Never,
    /// The wrapped wire router's exact answer (credits never change it).
    Exact,
    /// The exact answer, except that every credit leaves the router busy
    /// until its next step — a stand-in for a credit that enables work
    /// (a pseudo-circuit router's speculative restore).
    CreditWakes,
}

/// A wire router that logs its steps and the events delivered before each.
struct Counted {
    inner: Box<dyn RouterModel>,
    log: Arc<Mutex<StepLog>>,
    idle: Idle,
    /// A credit arrived under [`Idle::CreditWakes`] and no step ran since.
    owes_step: bool,
}

impl RouterModel for Counted {
    fn receive_flit(&mut self, in_port: PortIndex, flit: FlitRef) {
        let mut log = self.log.lock().unwrap();
        log.flit_waiting = true;
        log.wake_pending = true;
        self.inner.receive_flit(in_port, flit);
    }

    fn receive_credit(&mut self, out_port: PortIndex, credit: Credit) {
        self.inner.receive_credit(out_port, credit);
        self.owes_step |= self.idle == Idle::CreditWakes;
        let busy = !self.is_idle();
        let mut log = self.log.lock().unwrap();
        log.credit_waiting = true;
        if log.off_worklist && busy {
            log.wake_pending = true;
        }
    }

    fn step(&mut self, cycle: u64, out: &mut RouterOutputs) {
        self.inner.step(cycle, out);
        self.owes_step = false;
        let idle = self.is_idle();
        let mut log = self.log.lock().unwrap();
        log.steps += 1;
        if log.credit_waiting && !log.flit_waiting {
            log.credit_only_steps += 1;
        }
        if log.off_worklist && !log.wake_pending {
            log.unwoken_steps += 1;
        }
        log.flit_waiting = false;
        log.credit_waiting = false;
        log.wake_pending = false;
        log.off_worklist = idle;
    }

    fn is_idle(&self) -> bool {
        match self.idle {
            Idle::Never => false,
            Idle::Exact => self.inner.is_idle(),
            Idle::CreditWakes => self.inner.is_idle() && !self.owes_step,
        }
    }

    fn stats(&self) -> RouterStats {
        self.inner.stats()
    }

    fn energy(&self) -> EnergyCounters {
        self.inner.energy()
    }
}

/// Builds [`Counted`] wire routers and keeps each one's log, by router index.
struct CountingFactory {
    idle: Idle,
    logs: Mutex<Vec<Arc<Mutex<StepLog>>>>,
}

impl CountingFactory {
    fn new(idle: Idle) -> Self {
        Self {
            idle,
            logs: Mutex::new(Vec::new()),
        }
    }

    fn logs(&self) -> Vec<Arc<Mutex<StepLog>>> {
        self.logs.lock().unwrap().clone()
    }
}

impl RouterFactory for CountingFactory {
    fn build(&self, ctx: RouterBuildContext<'_>) -> Box<dyn RouterModel> {
        let log = Arc::new(Mutex::new(StepLog::default()));
        self.logs.lock().unwrap().push(log.clone());
        let router = Counted {
            inner: WireRouterFactory::default().build(ctx),
            log: log.clone(),
            idle: self.idle,
            owes_step: false,
        };
        // The engine seeds its worklist from this same answer.
        log.lock().unwrap().off_worklist = router.is_idle();
        Box::new(router)
    }
}

fn counted_sim(
    traffic: Box<dyn TrafficModel>,
    idle: Idle,
) -> (Simulation, Vec<Arc<Mutex<StepLog>>>) {
    let factory = CountingFactory::new(idle);
    let s = Simulation::new(Arc::new(Mesh::new(2, 2, 1)), config(), traffic, &factory, 1);
    (s, factory.logs())
}

#[test]
fn router_that_never_reports_idle_steps_every_cycle() {
    let (mut s, logs) = counted_sim(Box::new(Silence), Idle::Never);
    for _ in 0..50 {
        s.step();
    }
    for (r, log) in logs.iter().enumerate() {
        assert_eq!(log.lock().unwrap().steps, 50, "router {r}");
    }
}

/// The worklist contract: a flit steps its router in the same cycle; a
/// credit to a router off the worklist steps it in the same cycle if, and
/// only if, the router does not report `is_idle` after the receipt; and a
/// router off the worklist never steps without one of those events.
#[test]
fn idle_routers_step_only_when_an_event_reaches_them() {
    for threads in [1, 2] {
        for idle in [Idle::Never, Idle::Exact, Idle::CreditWakes] {
            // One packet 0 -> 1 crosses routers 0 and 1 (XY); routers 2 and
            // 3 receive no event in 60 cycles.
            let (mut s, logs) = counted_sim(Box::new(Burst { at: 0, count: 1 }), idle);
            s.set_threads(threads);
            let at = |r: usize| format!("threads {threads}, {idle:?}: router {r}");
            for cycle in 0..60 {
                s.step();
                for (r, log) in logs.iter().enumerate() {
                    let log = log.lock().unwrap();
                    assert!(
                        !log.wake_pending,
                        "{} got a waking event in cycle {cycle} but did not step",
                        at(r)
                    );
                    assert_eq!(log.unwoken_steps, 0, "{} stepped unwoken", at(r));
                }
            }
            let steps: Vec<u64> = logs.iter().map(|l| l.lock().unwrap().steps).collect();
            assert!(steps[0] > 0 && steps[1] > 0, "{}: {steps:?}", at(0));
            if idle == Idle::Never {
                assert_eq!(steps, [60; 4], "threads {threads}: every router steps");
            } else {
                assert_eq!(
                    steps[2..],
                    [0, 0],
                    "threads {threads}: untouched routers stepped"
                );
            }
            // Router 0 gets router 1's credit back, and router 1 the
            // destination interface's ejection credit, each after going
            // idle. That lone credit steps the router only where it ends
            // the router's idleness: always when idleness is never
            // reported, never for the exact wire router (a credit changes
            // nothing it does).
            for r in [0, 1] {
                let credit_only = logs[r].lock().unwrap().credit_only_steps;
                if idle == Idle::Exact {
                    assert_eq!(credit_only, 0, "{}", at(r));
                } else {
                    assert!(credit_only > 0, "{}", at(r));
                }
            }
        }
    }
}

#[test]
fn network_config_validation_names_the_broken_constraint() {
    let mesh = Mesh::new(2, 2, 1);
    let with = |vcs_per_port, buffer_depth, routing| NetworkConfig {
        vcs_per_port,
        buffer_depth,
        routing,
        ..config()
    };
    assert_eq!(with(64, 1, RoutingPolicy::O1Turn).validate(&mesh), Ok(()));
    let cases = [
        (with(0, 4, RoutingPolicy::Xy), "between 1 and 64"),
        (with(65, 4, RoutingPolicy::Xy), "between 1 and 64"),
        (
            with(4, 0, RoutingPolicy::Xy),
            "buffer depth must be at least 1",
        ),
        (
            with(3, 4, RoutingPolicy::O1Turn),
            "multiple of the 2 deadlock-avoidance VC classes",
        ),
    ];
    for (config, needle) in cases {
        let e = config.validate(&mesh).unwrap_err();
        assert!(e.contains(needle), "{config:?}: {e}");
    }
}

#[test]
#[should_panic(expected = "invalid network configuration: buffer depth must be at least 1")]
fn simulation_rejects_an_unbuildable_configuration() {
    let _ = Simulation::new(
        Arc::new(Mesh::new(2, 2, 1)),
        NetworkConfig {
            buffer_depth: 0,
            ..config()
        },
        Box::new(Silence),
        &WireRouterFactory::default(),
        1,
    );
}
