//! Cross-crate integration tests: full simulations over every router scheme,
//! topology family and traffic model.

use noc_base::{RoutingPolicy, VaPolicy};
use noc_evc::EvcRouterFactory;
use noc_sim::{NetworkConfig, RunSpec, Simulation};
use noc_topology::{FlattenedButterfly, Mecs, Mesh, SharedTopology};
use noc_traffic::{
    BenchmarkProfile, DeliveredPacket, PacketRequest, SyntheticPattern, SyntheticTraffic,
    TrafficModel,
};
use pseudo_circuit::experiment::cmp_traffic_for;
use pseudo_circuit::{ExperimentBuilder, PcRouterFactory, Scheme};
use std::sync::{Arc, Mutex};

fn builder(topo: SharedTopology) -> ExperimentBuilder {
    ExperimentBuilder::new(topo)
        .routing(RoutingPolicy::Xy)
        .va_policy(VaPolicy::Static)
        .phases(500, 2_000, 20_000)
        .seed(99)
}

#[test]
fn every_scheme_delivers_everything_on_every_topology() {
    let topologies: Vec<SharedTopology> = vec![
        Arc::new(Mesh::new(4, 4, 1)),
        Arc::new(Mesh::new(2, 2, 4)),
        Arc::new(Mecs::new(3, 3, 2)),
        Arc::new(FlattenedButterfly::new(3, 3, 2)),
    ];
    for topo in topologies {
        for scheme in Scheme::paper_lineup() {
            let n = topo.num_nodes();
            let traffic =
                SyntheticTraffic::new(SyntheticPattern::UniformRandom, n / 2, 2, 3, 0.08, 5);
            let report = builder(topo.clone()).scheme(scheme).run(Box::new(traffic));
            assert!(report.drained, "{} / {scheme}: stuck packets", topo.name());
            assert!(report.measured_delivered > 0);
            assert_eq!(report.measured_injected, report.measured_delivered);
        }
    }
}

#[test]
fn latency_ordering_matches_the_paper() {
    // At low load: baseline >= pseudo >= pseudo+bb (strictly, with margin).
    let topo: SharedTopology = Arc::new(Mesh::new(6, 6, 1));
    let run = |scheme| {
        let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 6, 6, 5, 0.10, 17);
        builder(topo.clone()).scheme(scheme).run(Box::new(traffic))
    };
    let base = run(Scheme::baseline());
    let pseudo = run(Scheme::pseudo());
    let bb = run(Scheme::pseudo_ps_bb());
    assert!(
        base.avg_latency > pseudo.avg_latency,
        "base {} <= pseudo {}",
        base.avg_latency,
        pseudo.avg_latency
    );
    assert!(
        pseudo.avg_latency > bb.avg_latency,
        "pseudo {} <= bb {}",
        pseudo.avg_latency,
        bb.avg_latency
    );
    assert_eq!(base.reusability(), 0.0);
    assert!(pseudo.reusability() > 0.2);
    assert!(bb.bypass_rate() > 0.05);
}

#[test]
fn cmp_closed_loop_self_throttles_and_drains() {
    let topo: SharedTopology = Arc::new(Mesh::new(4, 4, 4));
    let bench = *BenchmarkProfile::by_name("streamcluster").unwrap();
    let traffic = cmp_traffic_for(topo.as_ref(), bench, 3);
    let report = ExperimentBuilder::new(topo)
        .scheme(Scheme::pseudo_ps_bb())
        .phases(500, 5_000, 100_000)
        .run(Box::new(traffic));
    assert!(report.drained, "coherence transactions must complete");
    assert!(report.measured_delivered > 500, "traffic flowed");
    // Self-throttling keeps the network out of saturation.
    assert!(report.avg_latency < 100.0, "latency {}", report.avg_latency);
}

#[test]
fn o1turn_survives_heavy_adversarial_traffic() {
    // Transpose at high load with O1TURN: the VC-class partition must keep
    // the network deadlock-free; the run must keep delivering.
    let topo: SharedTopology = Arc::new(Mesh::new(6, 6, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::Transpose, 6, 6, 5, 0.6, 23);
    let report = ExperimentBuilder::new(topo)
        .routing(RoutingPolicy::O1Turn)
        .va_policy(VaPolicy::Dynamic)
        .scheme(Scheme::pseudo_ps_bb())
        .phases(500, 3_000, 10_000)
        .run(Box::new(traffic));
    // Saturated, so not drained — but thousands of packets must still flow.
    assert!(
        report.delivered_packets > 2_000,
        "only {} delivered",
        report.delivered_packets
    );
}

#[test]
fn evc_router_integrates_with_the_builder() {
    let topo: SharedTopology = Arc::new(Mesh::new(6, 6, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 6, 6, 5, 0.10, 31);
    let report = builder(topo)
        .va_policy(VaPolicy::Dynamic)
        .run_with_factory(Box::new(traffic), &EvcRouterFactory::default());
    assert!(report.drained);
    assert!(report.router_stats.express_bypasses > 0);
}

#[test]
fn facade_crate_reexports_work() {
    use pseudo_circuit_repro::{base, core, topology};
    let topo: base::NodeId = base::NodeId::new(1);
    assert_eq!(topo.index(), 1);
    let mesh = topology::Mesh::new(2, 2, 1);
    let _ = core::Scheme::paper_lineup();
    assert_eq!(topology::Topology::num_routers(&mesh), 4);
}

#[test]
fn multidrop_topology_carries_multiflit_packets() {
    // MECS express channels with credits per drop position: long packets
    // crossing the full row exercise the per-sub credit books.
    let topo: SharedTopology = Arc::new(Mecs::new(4, 4, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::BitComplement, 4, 4, 5, 0.15, 77);
    let report = builder(topo)
        .scheme(Scheme::pseudo_ps_bb())
        .run(Box::new(traffic));
    assert!(report.drained);
    assert!(report.measured_delivered > 100);
}

/// Forwards to a synthetic workload and records `(cycle, dst)` for every
/// delivery the engine reports.
struct DeliveryLog {
    inner: SyntheticTraffic,
    seen: Arc<Mutex<Vec<(u64, usize)>>>,
}

impl TrafficModel for DeliveryLog {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn generate(&mut self, cycle: u64, sink: &mut dyn FnMut(PacketRequest)) {
        self.inner.generate(cycle, sink);
    }

    fn next_injection_cycle(&mut self, from: u64, horizon: u64) -> Option<u64> {
        self.inner.next_injection_cycle(from, horizon)
    }

    fn deliver(&mut self, cycle: u64, packet: &DeliveredPacket) {
        self.seen.lock().unwrap().push((cycle, packet.dst.index()));
        self.inner.deliver(cycle, packet);
    }
}

#[test]
fn deliveries_within_a_cycle_reach_the_workload_in_ascending_node_order() {
    for threads in [1, 2] {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let traffic = DeliveryLog {
            inner: SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 5, 0.30, 13),
            seen: seen.clone(),
        };
        let config = NetworkConfig {
            routing: RoutingPolicy::Xy,
            va_policy: VaPolicy::Static,
            ..NetworkConfig::paper()
        };
        let mut sim = Simulation::new(
            Arc::new(Mesh::new(8, 8, 1)),
            config,
            Box::new(traffic),
            &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
            5,
        );
        sim.set_threads(threads);
        let report = sim.run(RunSpec::new(200, 1_000, 20_000));
        let seen = seen.lock().unwrap();
        assert_eq!(
            seen.len() as u64,
            report.delivered_packets,
            "threads {threads}"
        );
        let mut shared_cycles = 0;
        for same_cycle in seen.chunk_by(|a, b| a.0 == b.0) {
            shared_cycles += usize::from(same_cycle.len() > 1);
            assert!(
                same_cycle.windows(2).all(|w| w[0].1 < w[1].1),
                "threads {threads}: cycle {} delivered out of node order: {same_cycle:?}",
                same_cycle[0].0
            );
        }
        assert!(
            shared_cycles > 0,
            "threads {threads}: no cycle completed two packets"
        );
    }
}
