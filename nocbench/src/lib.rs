//! Host-time benchmark of the pseudo-circuit NoC simulator.
//!
//! Three workloads shaped after the paper's evaluation drive the library's
//! public API at one engine thread: see [`Workload`] and `README.md` for why
//! each was chosen. [`run_once`] builds one simulation, runs it, and returns
//! its report together with the host time of set-up and of the run; with
//! `traced` set it routes the router factory and the traffic model through
//! the decorators in `layers.rs` so the run's host time splits into the engine,
//! router and traffic layers. [`gate`] is the per-run correctness check.

mod layers;

use layers::{TracedFactory, TracedTraffic};
use noc_base::{RoutingPolicy, VaPolicy};
use noc_sim::{manifest::fnv1a64, NetworkConfig, RouterFactory, RunSpec, SimReport, Simulation};
use noc_topology::{Mesh, SharedTopology, Topology};
use noc_traffic::{BenchmarkProfile, SyntheticPattern, SyntheticTraffic, TrafficModel};
use pseudo_circuit::experiment::cmp_traffic_for;
use pseudo_circuit::{PcRouterFactory, Scheme};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// The seed whose report hash is pinned per workload ([`Workload::pinned_hash`]).
pub const DEFAULT_SEED: u64 = 1;

/// Flits per synthetic packet (the paper's 5-flit data packet).
const PACKET_FLITS: u16 = 5;

/// One benchmark workload.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The paper's own substrate (Fig. 8): 4×4 CMesh, concentration 4,
    /// closed-loop `fma3d` CMP traffic, O1TURN + dynamic VA, Pseudo+PS+BB.
    /// Exercises circuit reuse/bypass and the traffic layer's deliver
    /// feedback.
    CmpPseudoCmesh,
    /// Open-loop uniform traffic at 0.20 flits/node/cycle on an 8×8 mesh,
    /// XY + static VA, baseline router: every flit arbitrates, so
    /// `RouterModel::step`'s VA/SA path dominates.
    UniformBaselineMesh8,
    /// Open-loop uniform traffic at 0.005 on a 32×32 mesh, XY + static VA,
    /// Pseudo+PS+BB: per-cycle engine work that scales with node count
    /// dominates, and 1024 routers make set-up and memory visible.
    LowloadPseudoMesh32,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::CmpPseudoCmesh,
        Workload::UniformBaselineMesh8,
        Workload::LowloadPseudoMesh32,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CmpPseudoCmesh => "cmp_pseudo_cmesh",
            Workload::UniformBaselineMesh8 => "uniform_baseline_mesh8",
            Workload::LowloadPseudoMesh32 => "lowload_pseudo_mesh32",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `fnv1a64` of `format!("{report:#?}")` for [`DEFAULT_SEED`], pinned
    /// from the simulator at the commit that defined this benchmark. A
    /// change that only speeds the simulator up must leave it unchanged.
    pub fn pinned_hash(self) -> u64 {
        match self {
            Workload::CmpPseudoCmesh => 0xa594_d9ac_ece7_fa8d,
            Workload::UniformBaselineMesh8 => 0xf771_dd94_4404_da09,
            Workload::LowloadPseudoMesh32 => 0xbce0_7e09_bb32_14eb,
        }
    }

    /// Warmup / measure / drain cycles. The drain caps sit far above the
    /// few hundred cycles a measured packet needs at these loads, so every
    /// seed drains.
    fn spec(self) -> RunSpec {
        match self {
            Workload::CmpPseudoCmesh => RunSpec::new(1_000, 5_000, 50_000),
            Workload::UniformBaselineMesh8 => RunSpec::new(500, 2_000, 20_000),
            Workload::LowloadPseudoMesh32 => RunSpec::new(300, 1_000, 20_000),
        }
    }

    fn mesh(self) -> Mesh {
        match self {
            Workload::CmpPseudoCmesh => Mesh::new(4, 4, 4),
            Workload::UniformBaselineMesh8 => Mesh::new(8, 8, 1),
            Workload::LowloadPseudoMesh32 => Mesh::new(32, 32, 1),
        }
    }

    fn config(self) -> NetworkConfig {
        match self {
            Workload::CmpPseudoCmesh => NetworkConfig::paper(),
            Workload::UniformBaselineMesh8 | Workload::LowloadPseudoMesh32 => NetworkConfig {
                routing: RoutingPolicy::Xy,
                va_policy: VaPolicy::Static,
                ..NetworkConfig::paper()
            },
        }
    }

    fn scheme(self) -> Scheme {
        match self {
            Workload::UniformBaselineMesh8 => Scheme::baseline(),
            Workload::CmpPseudoCmesh | Workload::LowloadPseudoMesh32 => Scheme::pseudo_ps_bb(),
        }
    }

    fn traffic(self, mesh: &Mesh, seed: u64) -> Box<dyn TrafficModel> {
        match self {
            Workload::CmpPseudoCmesh => {
                let fma3d =
                    *BenchmarkProfile::by_name("fma3d").expect("fma3d is a built-in profile");
                Box::new(cmp_traffic_for(mesh, fma3d, seed))
            }
            Workload::UniformBaselineMesh8 => Box::new(uniform_on(mesh, 0.20, seed)),
            Workload::LowloadPseudoMesh32 => Box::new(uniform_on(mesh, 0.005, seed)),
        }
    }
}

/// Uniform-random traffic over a grid taken from the mesh itself, so every
/// node injects. (A grid given by hand can silently cover only part of a
/// larger mesh: an 8×8 grid on a 32×32 mesh injects from nodes 0–63 only.)
///
/// # Panics
///
/// Panics if the mesh's `width × height` grid does not cover exactly its
/// nodes (a concentrated mesh).
pub fn uniform_on(mesh: &Mesh, offered_load: f64, seed: u64) -> SyntheticTraffic {
    let (cols, rows) = (usize::from(mesh.width()), usize::from(mesh.height()));
    assert_eq!(
        cols * rows,
        mesh.num_nodes(),
        "a {cols}×{rows} traffic grid must cover every node of {}",
        mesh.name()
    );
    SyntheticTraffic::new(
        SyntheticPattern::UniformRandom,
        cols,
        rows,
        PACKET_FLITS,
        offered_load,
        seed,
    )
}

/// Host time the traced run attributes to each layer, plus its counts.
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct LayerTimes {
    /// Host nanoseconds inside `RouterModel::step`.
    pub router_step_ns: u64,
    /// `RouterModel::step` calls.
    pub router_steps: u64,
    /// `receive_flit` + `receive_credit` calls.
    pub router_receives: u64,
    /// Host nanoseconds inside `TrafficModel::generate`.
    pub traffic_generate_ns: u64,
    /// `TrafficModel::generate` calls.
    pub traffic_generate_calls: u64,
    /// Host nanoseconds inside `TrafficModel::deliver`.
    pub traffic_deliver_ns: u64,
    /// Host nanoseconds in the traffic layer (generate + deliver +
    /// fast-forward lookahead).
    pub traffic_ns: u64,
    /// Packets the traffic model generated.
    pub packets_generated: u64,
    /// Packets delivered back to the traffic model.
    pub packets_delivered: u64,
}

/// One simulation: its report and host timings.
#[derive(Debug)]
pub struct RunOutcome {
    /// The simulated result.
    pub report: SimReport,
    /// `fnv1a64` of `format!("{report:#?}")`.
    pub hash: u64,
    /// Host seconds in `Simulation::new`.
    pub setup_s: f64,
    /// Host seconds in `Simulation::run`.
    pub run_s: f64,
    /// Simulated cycles `run` advanced (warmup + measure + drain).
    pub cycles: u64,
    /// Of those, cycles skipped by quiescence fast-forwarding.
    pub cycles_fast_forwarded: u64,
    /// Per-layer attribution (traced runs only).
    pub layers: Option<LayerTimes>,
}

/// Builds and runs one simulation of `workload` at one engine thread.
/// Inputs (topology, traffic, router factory) are built before the set-up
/// timer starts; `setup_s` covers `Simulation::new` alone.
pub fn run_once(workload: Workload, seed: u64, traced: bool) -> RunOutcome {
    let mesh = workload.mesh();
    let traffic = workload.traffic(&mesh, seed);
    let topo: SharedTopology = Arc::new(mesh);
    let config = workload.config();
    let sim_seed = seed ^ 0x5eed_5eed;
    let factory = PcRouterFactory::new(workload.scheme());
    let spec = workload.spec();

    let timed = |traffic: Box<dyn TrafficModel>, factory: &dyn RouterFactory| {
        let start = Instant::now();
        let mut sim = Simulation::new(topo, config, traffic, factory, sim_seed);
        let setup_s = start.elapsed().as_secs_f64();
        sim.set_threads(1);
        let start = Instant::now();
        let report = sim.run(spec);
        let run_s = start.elapsed().as_secs_f64();
        (
            report,
            setup_s,
            run_s,
            sim.cycle(),
            sim.fast_forwarded_cycles(),
        )
    };

    let ((report, setup_s, run_s, cycles, cycles_fast_forwarded), layers) = if traced {
        let traced_factory = TracedFactory::new(&factory);
        let (traced_traffic, tally) = TracedTraffic::new(traffic);
        let result = timed(Box::new(traced_traffic), &traced_factory);
        let (router_step_ns, router_steps, router_receives) = traced_factory.totals();
        let layers = LayerTimes {
            router_step_ns,
            router_steps,
            router_receives,
            traffic_generate_ns: tally.generate_ns.load(Relaxed),
            traffic_generate_calls: tally.generate_calls.load(Relaxed),
            traffic_deliver_ns: tally.deliver_ns.load(Relaxed),
            traffic_ns: tally.total_ns(),
            packets_generated: tally.packets_generated.load(Relaxed),
            packets_delivered: tally.packets_delivered.load(Relaxed),
        };
        (result, Some(layers))
    } else {
        (timed(traffic, &factory), None)
    };

    RunOutcome {
        hash: report_hash(&report),
        report,
        setup_s,
        run_s,
        cycles,
        cycles_fast_forwarded,
        layers,
    }
}

/// `fnv1a64` of the report's pretty `Debug` text — the text the repository's
/// golden reports pin.
pub fn report_hash(report: &SimReport) -> u64 {
    fnv1a64(format!("{report:#?}").as_bytes())
}

/// The per-run correctness gate: every measured packet drained and was
/// delivered, and the report hashes to `expected` when one is known.
pub fn gate(outcome: &RunOutcome, expected: Option<u64>) -> Result<(), String> {
    let r = &outcome.report;
    if !r.drained {
        return Err("measured packets did not drain".into());
    }
    if r.measured_delivered != r.measured_injected {
        return Err(format!(
            "delivered {} of {} measured packets",
            r.measured_delivered, r.measured_injected
        ));
    }
    match expected {
        Some(want) if want != outcome.hash => Err(format!(
            "report hash {:016x} differs from expected {want:016x}",
            outcome.hash
        )),
        _ => Ok(()),
    }
}
