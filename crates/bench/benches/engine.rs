//! Engine-throughput harness: cycles per second for the baseline router, the
//! full pseudo-circuit router, and the EVC router on a loaded 8×8 mesh, the
//! paper-default CMesh configuration, and two large meshes (16×16, 32×32)
//! that exercise shard scaling — the regression guard for simulator
//! performance, not a paper figure.
//!
//! Every case is measured at 1, 2, 4 and 8 engine threads (a fresh
//! simulation per point, so no case warms another's caches; the large-mesh
//! cases pin 1/2/4 and fewer cycles) and sampled three times per point; the
//! reported sample is the median by cycles-per-second, so one scheduler
//! hiccup on a loaded host cannot move the tracked number. Results are
//! printed as a table and written to `BENCH_engine.json` at the workspace
//! root — together with the host CPU count, the git revision, the sample
//! count, and each point's shard count, so a snapshot from a 1-CPU container
//! cannot be mistaken for a scaling measurement and every number states the
//! shard layout it was measured under — and the performance trajectory is
//! tracked across PRs (see EXPERIMENTS.md §"Engine throughput methodology");
//! compare two snapshots with `scripts/bench_compare.sh`.
//!
//! `NOC_BENCH_SMOKE=1` runs a single short single-threaded sample per case
//! and skips the snapshot write — the CI gate's "does the release-mode hot
//! path execute" check, not a measurement.
//!
//! `NOC_BENCH_ONLY=case1,case2` restricts a run to the named cases — for
//! quick A/B measurement of one case without paying for the full matrix.
//! Filtered runs never write the snapshot: `BENCH_engine.json` is only
//! ever a complete matrix.

use noc_base::{RoutingPolicy, VaPolicy};
use noc_evc::EvcRouterFactory;
use noc_sim::{NetworkConfig, RouterFactory, Simulation};
use noc_topology::{Mesh, Ring};
use noc_traffic::{SyntheticPattern, SyntheticTraffic, TraceRecorder, TraceReplay, TrafficModel};
use pseudo_circuit::{PcRouterFactory, Scheme};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One benchmarked engine configuration; `build` returns a fresh simulation
/// so each (case, threads) point starts from identical cold state.
struct CaseSpec {
    name: &'static str,
    config: &'static str,
    build: fn() -> Simulation,
    /// Measure through `Simulation::advance` (the run-loop path, including
    /// quiescence fast-forwarding) instead of raw `step` calls. The loaded
    /// cases keep raw stepping so their number isolates per-cycle engine
    /// speed; the `lowload_` cases measure `advance` because skipping
    /// quiescent cycles IS the optimization under test there.
    advance: bool,
    /// Per-case warmup override (`None` = the harness default). The
    /// drain-phase case uses 0 so the measured window covers the burst, the
    /// drain, and the quiescent tail rather than an already-empty network.
    warmup: Option<u64>,
    /// Restrict this case to threads=1. Quiescence fast-forwarding is a
    /// serial-path optimization; its cases' multi-thread points would only
    /// measure shard-handoff overhead on an empty network.
    serial_only: bool,
    /// Per-case thread-count override (`None` = the harness default). The
    /// large-network cases pin 1/2/4 — their point is shard scaling on big
    /// router counts, and 8 threads of a 1024-router mesh would dominate the
    /// harness runtime for no extra signal.
    thread_list: Option<&'static [usize]>,
    /// Per-case measured-cycle override (`None` = the harness default,
    /// scaled by `NOC_SCALE`). Large networks cost far more per cycle, so
    /// they measure fewer cycles for comparable wall time.
    cycle_count: Option<u64>,
}

fn mesh8x8(factory: &dyn RouterFactory) -> Simulation {
    let topo = Arc::new(Mesh::new(8, 8, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 5, 0.15, 5);
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };
    Simulation::new(topo, config, Box::new(traffic), factory, 9)
}

/// A loaded square mesh of arbitrary radix — the shard-scaling cases, where
/// per-shard work is large enough for the parallel phase to amortize its one
/// synchronization point per cycle.
fn big_mesh(radix: u16) -> Simulation {
    let topo = Arc::new(Mesh::new(radix, radix, 1));
    let side = usize::from(radix);
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, side, side, 5, 0.15, 5);
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };
    Simulation::new(
        topo,
        config,
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
        9,
    )
}

fn mesh16x16_sim() -> Simulation {
    big_mesh(16)
}

/// A 16-router bidirectional ring: two-port routers, CW/CCW route modes and
/// dateline VC classes — the cheapest-per-router topology the engine runs,
/// so its number isolates per-router fixed costs from crossbar-size costs.
fn ring16_sim() -> Simulation {
    let topo = Arc::new(Ring::new(16, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 16, 1, 5, 0.10, 5);
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };
    Simulation::new(
        topo,
        config,
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
        9,
    )
}

fn mesh32x32_sim() -> Simulation {
    big_mesh(32)
}

/// The paper-default CMP substrate: 4×4 CMesh (concentration 4, 64 nodes)
/// with O1TURN routing and dynamic VC allocation.
fn cmesh4x4(factory: &dyn RouterFactory) -> Simulation {
    let topo = Arc::new(Mesh::new(4, 4, 4));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 5, 0.10, 7);
    Simulation::new(topo, NetworkConfig::paper(), Box::new(traffic), factory, 9)
}

fn baseline_sim() -> Simulation {
    mesh8x8(&PcRouterFactory::new(Scheme::baseline()))
}

fn pseudo_sim() -> Simulation {
    mesh8x8(&PcRouterFactory::new(Scheme::pseudo_ps_bb()))
}

fn evc_sim() -> Simulation {
    mesh8x8(&EvcRouterFactory::default())
}

fn paper_cmesh_sim() -> Simulation {
    cmesh4x4(&PcRouterFactory::new(Scheme::pseudo_ps_bb()))
}

/// Saturated-churn regime: 4-flit packets at a load past XY-mesh saturation
/// keep every input buffer full, every arbiter contended, and the flit pool
/// recycling slots at its peak rate — the stress case for the ref-based hop
/// path (alloc at injection, 4-byte copies between, free at ejection).
fn highload_churn_sim() -> Simulation {
    let topo = Arc::new(Mesh::new(8, 8, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 4, 0.40, 5);
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };
    Simulation::new(
        topo,
        config,
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
        9,
    )
}

/// Low-load regime: the same 8×8 mesh at 0.02 flits/node/cycle. Individual
/// cycles are mostly idle but full network quiescence is still rare (packets
/// are in flight most of the time), so this tracks the engine's idle-cycle
/// cost with fast-forwarding only occasionally applicable.
fn lowload_uniform_sim() -> Simulation {
    let topo = Arc::new(Mesh::new(8, 8, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 5, 0.02, 5);
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };
    Simulation::new(
        topo,
        config,
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
        9,
    )
}

/// Drain-phase-heavy run: a recorded 400-cycle burst of uniform@0.10 traffic
/// replayed from a trace, then nothing. After the burst drains the network is
/// fully quiescent and the replay's record peek reports no further
/// injections, so `advance` jumps straight to the horizon — the measured
/// window is dominated by the drain phase plus the fast-forwarded tail,
/// exactly the shape of a trace run's end-of-input.
fn lowload_drain_sim() -> Simulation {
    let mut recorder = TraceRecorder::new(SyntheticTraffic::new(
        SyntheticPattern::UniformRandom,
        8,
        8,
        5,
        0.10,
        5,
    ));
    for cycle in 0..400 {
        recorder.generate(cycle, &mut |_| {});
    }
    let (_, records) = recorder.into_parts();
    let traffic = TraceReplay::new("burst400", records);
    let topo = Arc::new(Mesh::new(8, 8, 1));
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };
    Simulation::new(
        topo,
        config,
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
        9,
    )
}

struct Measurement {
    name: String,
    config: String,
    threads: usize,
    /// Execution shards the engine partitioned this point's routers into
    /// (`Simulation::shards` after `set_threads`): the snapshot records the
    /// layout each number was measured under.
    shards: usize,
    cycles: u64,
    secs: f64,
    cycles_per_sec: f64,
    flits_per_sec: f64,
    /// Every sample's cycles-per-second, ascending; the headline numbers
    /// above are the median sample's.
    cps_samples: Vec<f64>,
}

/// Times `cycles` engine cycles after a warmup, returning throughput
/// numbers. Raw `step` loops isolate per-cycle speed; `advance` cases go
/// through the run-loop path with quiescence fast-forwarding.
fn measure_once(
    spec: &CaseSpec,
    threads: usize,
    warmup: u64,
    cycles: u64,
) -> (f64, f64, f64, usize) {
    let mut sim = (spec.build)();
    sim.set_threads(threads);
    let shards = sim.shards();
    let warmup = spec.warmup.unwrap_or(warmup);
    if spec.advance {
        sim.advance(warmup);
    } else {
        for _ in 0..warmup {
            sim.step();
        }
    }
    let flits_before = total_flits(&sim);
    let start = Instant::now();
    if spec.advance {
        sim.advance(cycles);
    } else {
        for _ in 0..cycles {
            sim.step();
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let flits = total_flits(&sim) - flits_before;
    (secs, cycles as f64 / secs, flits as f64 / secs, shards)
}

/// Runs `samples` fresh measurements of one point and reports the median by
/// cycles-per-second (odd `samples`: the true median sample; even: the lower
/// middle — the conservative pick).
fn measure(
    spec: &CaseSpec,
    threads: usize,
    warmup: u64,
    cycles: u64,
    samples: usize,
) -> Measurement {
    let mut runs: Vec<(f64, f64, f64, usize)> = (0..samples.max(1))
        .map(|_| measure_once(spec, threads, warmup, cycles))
        .collect();
    runs.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (secs, cycles_per_sec, flits_per_sec, shards) = runs[(runs.len() - 1) / 2];
    Measurement {
        name: spec.name.to_string(),
        config: spec.config.to_string(),
        threads,
        shards,
        cycles,
        secs,
        cycles_per_sec,
        flits_per_sec,
        cps_samples: runs.iter().map(|r| r.1).collect(),
    }
}

/// The current git revision (short), or `"unknown"` outside a work tree.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn total_flits(sim: &Simulation) -> u64 {
    let routers = sim.topology().num_routers();
    (0..routers)
        .map(|r| {
            sim.router(noc_base::RouterId::new(r))
                .stats()
                .flit_traversals
        })
        .sum()
}

fn main() {
    // `cargo bench` passes harness flags (e.g. `--bench`); ignore them.
    let scale: u64 = std::env::var("NOC_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let smoke = std::env::var_os("NOC_BENCH_SMOKE").is_some();
    let only: Option<Vec<String>> = std::env::var("NOC_BENCH_ONLY")
        .ok()
        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect());
    let warmup = if smoke { 200 } else { 2_000 };
    let cycles = if smoke { 2_000 } else { 50_000 * scale };
    let samples = if smoke { 1 } else { 3 };
    let thread_counts: &[usize] = if smoke { &[1] } else { &[1, 2, 4, 8] };

    let cases = [
        CaseSpec {
            name: "baseline_router",
            config: "mesh8x8 xy static uniform@0.15",
            build: baseline_sim,
            advance: false,
            warmup: None,
            serial_only: false,
            thread_list: None,
            cycle_count: None,
        },
        CaseSpec {
            name: "pseudo_router",
            config: "mesh8x8 xy static uniform@0.15",
            build: pseudo_sim,
            advance: false,
            warmup: None,
            serial_only: false,
            thread_list: None,
            cycle_count: None,
        },
        CaseSpec {
            name: "evc_router",
            config: "mesh8x8 xy static uniform@0.15",
            build: evc_sim,
            advance: false,
            warmup: None,
            serial_only: false,
            thread_list: None,
            cycle_count: None,
        },
        CaseSpec {
            name: "paper_cmesh",
            config: "cmesh4x4c4 o1turn dynamic uniform@0.10",
            build: paper_cmesh_sim,
            advance: false,
            warmup: None,
            serial_only: false,
            thread_list: None,
            cycle_count: None,
        },
        CaseSpec {
            name: "highload_churn",
            config: "mesh8x8 xy static uniform@0.40 pkt4",
            build: highload_churn_sim,
            advance: false,
            warmup: None,
            serial_only: false,
            // Saturation churn is a serial-speed contract: its number tracks
            // the per-hop cost of the pooled flit path, so only threads=1 is
            // measured (multi-thread points would fold in shard handoff).
            thread_list: Some(&[1]),
            cycle_count: None,
        },
        CaseSpec {
            name: "lowload_uniform",
            config: "mesh8x8 xy static uniform@0.02 via advance",
            build: lowload_uniform_sim,
            advance: true,
            warmup: None,
            serial_only: true,
            thread_list: None,
            cycle_count: None,
        },
        CaseSpec {
            name: "lowload_drain",
            config: "mesh8x8 xy static burst400@0.10-replay via advance",
            build: lowload_drain_sim,
            advance: true,
            warmup: Some(0),
            serial_only: true,
            thread_list: None,
            cycle_count: None,
        },
        CaseSpec {
            name: "ring16",
            config: "ring16 cw/ccw static uniform@0.10",
            build: ring16_sim,
            advance: false,
            warmup: None,
            serial_only: false,
            // 16 two-port routers cannot amortize the per-cycle epoch
            // barrier; multi-thread points would measure only handoff.
            thread_list: Some(&[1]),
            cycle_count: None,
        },
        CaseSpec {
            name: "mesh16x16",
            config: "mesh16x16 xy static uniform@0.15",
            build: mesh16x16_sim,
            advance: false,
            warmup: Some(500),
            serial_only: false,
            thread_list: Some(&[1, 2, 4]),
            cycle_count: Some(12_000),
        },
        CaseSpec {
            name: "mesh32x32",
            config: "mesh32x32 xy static uniform@0.15",
            build: mesh32x32_sim,
            advance: false,
            warmup: Some(200),
            serial_only: false,
            thread_list: Some(&[1, 2, 4]),
            cycle_count: Some(4_000),
        },
    ];

    let cases: Vec<&CaseSpec> = cases
        .iter()
        .filter(|c| {
            only.as_ref()
                .is_none_or(|names| names.iter().any(|n| n == c.name))
        })
        .collect();

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = git_rev();
    println!(
        "engine throughput ({cycles} cycles per point after {warmup} warmup; \
         median of {samples} samples; host cores: {host_cpus}; rev {rev})"
    );
    println!(
        "{:<18} {:>7} {:>7} {:>14} {:>14}  config",
        "case", "threads", "shards", "cycles/sec", "flits/sec"
    );
    let mut json = format!(
        "{{\n  \"bench\": \"engine\",\n  \"host_cpus\": {host_cpus},\n  \
         \"git_rev\": \"{rev}\",\n  \"samples\": {samples},\n  \"cases\": [\n"
    );
    let case_threads = |spec: &CaseSpec| -> &[usize] {
        if smoke || spec.serial_only {
            &thread_counts[..1]
        } else {
            spec.thread_list.unwrap_or(thread_counts)
        }
    };
    // Per-case cycle overrides scale with NOC_SCALE like the default; smoke
    // mode flattens everything to one short sample.
    let case_cycles = |spec: &CaseSpec| -> u64 {
        if smoke {
            cycles
        } else {
            spec.cycle_count.map_or(cycles, |c| c * scale)
        }
    };
    let total: usize = cases.iter().map(|c| case_threads(c).len()).sum();
    let mut point = 0;
    for &spec in &cases {
        for &threads in case_threads(spec) {
            let m = measure(spec, threads, warmup, case_cycles(spec), samples);
            println!(
                "{:<18} {:>7} {:>7} {:>14.0} {:>14.0}  {}",
                m.name, m.threads, m.shards, m.cycles_per_sec, m.flits_per_sec, m.config
            );
            point += 1;
            let cps_samples = m
                .cps_samples
                .iter()
                .map(|s| format!("{s:.1}"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                json,
                "    {{\"name\": \"{}\", \"config\": \"{}\", \"threads\": {}, \
                 \"shards\": {}, \"cycles\": {}, \"secs\": {:.6}, \
                 \"cycles_per_sec\": {:.1}, \"flits_per_sec\": {:.1}, \
                 \"cps_samples\": [{}]}}{}",
                m.name,
                m.config,
                m.threads,
                m.shards,
                m.cycles,
                m.secs,
                m.cycles_per_sec,
                m.flits_per_sec,
                cps_samples,
                if point == total { "" } else { "," }
            );
        }
    }
    json.push_str("  ]\n}\n");

    if smoke {
        println!("smoke mode: snapshot not written");
        return;
    }
    if only.is_some() {
        println!("filtered run (NOC_BENCH_ONLY): snapshot not written");
        return;
    }
    // crates/bench/benches → workspace root is two levels up from the
    // manifest directory.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf();
    let out = root.join("BENCH_engine.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}
