//! Report-hash pins for routers whose allocator masks span more than one
//! 64-bit word.
//!
//! Every golden and benchmark router fits its VA/SA masks in a single word
//! (the widest has 40 VA slots), so none of them reaches the multi-word
//! branch of the kernel's mask scans and of `BitArbiter`'s word-level grant.
//! These three shapes do, each under the baseline router and Pseudo+PS+BB:
//!
//! | topology | VCs | VA slots (`in_ports × vcs`) | input / output ports |
//! |----------|-----|-----------------------------|----------------------|
//! | MECS 4×4, concentration 4 | 8 | 80 | 10 / 8 |
//! | CMesh 4×4, concentration 4 | 16 | 128 | 8 / 8 |
//! | flattened butterfly 33×33 | 4 | 260 | 65 / 65 |
//!
//! The flattened butterfly is also the only shape whose per-output-port
//! masks (second-stage SA requests, pending output ports) exceed one word.
//! The hashes were pinned before the kernel's masks moved to flat word
//! storage; like the goldens they are `fnv1a64` of `format!("{report:#?}")`
//! (the `nocbench` convention) and must never be re-blessed for a change
//! that only speeds the simulator up.

use noc_base::{RouterId, RoutingPolicy, VaPolicy};
use noc_sim::manifest::fnv1a64;
use noc_topology::{FlattenedButterfly, Mecs, Mesh, SharedTopology};
use noc_traffic::{SyntheticPattern, SyntheticTraffic};
use pseudo_circuit::{ExperimentBuilder, Scheme};
use std::sync::Arc;

/// One pinned configuration.
struct WideCase {
    name: &'static str,
    topo: fn() -> SharedTopology,
    /// Uniform-traffic grid; `cols × rows` is the node count.
    grid: (usize, usize),
    vcs: u8,
    routing: RoutingPolicy,
    load: f64,
    /// Pinned hashes under the baseline router and Pseudo+PS+BB.
    pins: [u64; 2],
}

const CASES: [WideCase; 3] = [
    WideCase {
        name: "mecs4x4_vc8",
        topo: || Arc::new(Mecs::new(4, 4, 4)),
        grid: (8, 8),
        vcs: 8,
        routing: RoutingPolicy::O1Turn,
        load: 0.25,
        pins: [0x8eac_41bf_45d0_738e, 0xd21d_26c0_8f62_ebd5],
    },
    WideCase {
        name: "cmesh4x4_vc16",
        topo: || Arc::new(Mesh::new(4, 4, 4)),
        grid: (8, 8),
        vcs: 16,
        routing: RoutingPolicy::O1Turn,
        load: 0.25,
        pins: [0xead2_dc18_fe65_4206, 0x72f7_7dc8_38c0_4873],
    },
    WideCase {
        name: "fbfly33x33",
        topo: || Arc::new(FlattenedButterfly::new(33, 33, 1)),
        grid: (33, 33),
        vcs: 4,
        routing: RoutingPolicy::Xy,
        load: 0.01,
        pins: [0xf893_d8f6_6c4a_cbc7, 0x90d1_73c5_ea70_7ced],
    },
];

fn report_hash(case: &WideCase, scheme: Scheme) -> u64 {
    let topo = (case.topo)();
    let widest = (0..topo.num_routers())
        .map(|r| topo.in_ports(RouterId::new(r)) * usize::from(case.vcs))
        .max()
        .unwrap_or(0);
    assert!(
        widest > 64,
        "{}: {widest} VA slots fit one mask word, so the case pins nothing wide",
        case.name
    );
    let (cols, rows) = case.grid;
    let traffic = SyntheticTraffic::new(
        SyntheticPattern::UniformRandom,
        cols,
        rows,
        5,
        case.load,
        0x51de,
    );
    let report = ExperimentBuilder::new(topo)
        .routing(case.routing)
        .va_policy(VaPolicy::Dynamic)
        .vcs(case.vcs)
        .scheme(scheme)
        .seed(0x51de)
        .phases(200, 1_000, 20_000)
        .run(Box::new(traffic));
    assert!(
        report.drained,
        "{}: measured packets did not drain",
        case.name
    );
    assert_eq!(
        report.measured_delivered, report.measured_injected,
        "{}",
        case.name
    );
    fnv1a64(format!("{report:#?}").as_bytes())
}

fn check(case: &WideCase) {
    let actual = [
        report_hash(case, Scheme::baseline()),
        report_hash(case, Scheme::pseudo_ps_bb()),
    ];
    assert_eq!(
        actual.map(|h| format!("{h:#018x}")),
        case.pins.map(|h| format!("{h:#018x}")),
        "{}: report hashes [baseline, pseudo+ps+bb] differ from the pins",
        case.name
    );
}

#[test]
fn mecs_with_eight_vcs_matches_its_pins() {
    check(&CASES[0]);
}

#[test]
fn cmesh_with_sixteen_vcs_matches_its_pins() {
    check(&CASES[1]);
}

#[test]
fn sixty_five_port_flattened_butterfly_matches_its_pins() {
    check(&CASES[2]);
}
