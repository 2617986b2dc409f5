//! The benchmark's own correctness checks: pinned results, traced-run
//! transparency, seed sensitivity, and traffic grids that cover the mesh.
//!
//! Run with `cargo test --release --manifest-path nocbench/Cargo.toml`
//! (debug builds pass too, more slowly).

use noc_topology::{Mesh, Topology};
use noc_traffic::TrafficModel;
use nocbench::{gate, run_once, uniform_on, Workload, DEFAULT_SEED};
use std::collections::BTreeSet;

/// The default seed reproduces each workload's pinned report, and the
/// traced run — router and traffic decorators in place — reproduces the
/// untraced one, so tracing changes no simulated behaviour.
#[test]
fn default_seed_matches_pin_traced_and_untraced() {
    for w in Workload::ALL {
        let plain = run_once(w, DEFAULT_SEED, false);
        gate(&plain, Some(w.pinned_hash())).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(plain.layers.is_none());

        let traced = run_once(w, DEFAULT_SEED, true);
        assert_eq!(
            traced.hash,
            plain.hash,
            "{}: tracing changed the report",
            w.name()
        );
        let layers = traced.layers.expect("traced runs carry layer times");
        assert!(
            layers.router_steps > 0 && layers.router_step_ns > 0,
            "{}",
            w.name()
        );
        assert_eq!(
            layers.traffic_generate_calls,
            traced.cycles - traced.cycles_fast_forwarded,
            "{}: generate runs once per stepped cycle",
            w.name()
        );
        assert_eq!(
            layers.packets_delivered,
            traced.report.delivered_packets,
            "{}",
            w.name()
        );
    }
}

/// Different seeds give different results, and each still drains with every
/// measured packet delivered.
#[test]
fn seeds_change_the_result_and_each_passes_the_gate() {
    for w in Workload::ALL {
        let a = run_once(w, 2, false);
        let b = run_once(w, 3, false);
        gate(&a, None).unwrap_or_else(|e| panic!("{} seed 2: {e}", w.name()));
        gate(&b, None).unwrap_or_else(|e| panic!("{} seed 3: {e}", w.name()));
        assert_ne!(
            a.hash,
            b.hash,
            "{}: seeds 2 and 3 gave one report",
            w.name()
        );
    }
}

/// The gate rejects a report hash that differs from the expected one.
#[test]
fn gate_rejects_a_different_hash() {
    let w = Workload::CmpPseudoCmesh;
    let outcome = run_once(w, DEFAULT_SEED, false);
    assert!(gate(&outcome, Some(w.pinned_hash() ^ 1)).is_err());
}

/// A grid taken from the mesh makes every node of a 32×32 mesh inject —
/// not just the first 64, as an 8×8 grid would.
#[test]
fn traffic_grid_covers_every_node() {
    let mesh = Mesh::new(32, 32, 1);
    let mut traffic = uniform_on(&mesh, 0.5, 7);
    let mut sources = BTreeSet::new();
    for cycle in 0..400 {
        traffic.generate(cycle, &mut |r| {
            sources.insert(r.src.index());
        });
    }
    assert_eq!(sources.len(), mesh.num_nodes());
}

#[test]
#[should_panic(expected = "must cover every node")]
fn traffic_grid_rejects_a_concentrated_mesh() {
    let _ = uniform_on(&Mesh::new(4, 4, 4), 0.1, 7);
}
