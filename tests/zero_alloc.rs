//! Verifies the engine's zero-allocation steady state: once queues, buffers
//! and maps have grown to their working capacity, stepping the simulation
//! performs no heap allocations at all — the property the flattened wiring
//! tables, typed double-buffered event queues, and preallocated router
//! scratch buffers exist to provide.
//!
//! A counting `#[global_allocator]` (each file under `tests/` is its own
//! binary, so this does not leak into other tests) counts `alloc`/`realloc`
//! calls while enabled. The run is fully deterministic (fixed seeds), so the
//! assertion is stable: if a code change reintroduces a per-cycle
//! allocation, this test fails every time.

use noc_base::{RouterId, RoutingPolicy, VaPolicy};
use noc_evc::EvcRouterFactory;
use noc_hybrid::HybridRouterFactory;
use noc_sim::{NetworkConfig, Simulation};
use noc_topology::{Mecs, Mesh, Ring};
use noc_traffic::{SyntheticPattern, SyntheticTraffic};
use pseudo_circuit::{PcRouterFactory, Scheme};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

// Thread-local (const-initialized, so reading them never allocates): each
// test thread counts only its own allocations, keeping the assertion exact
// even though libtest runs the tests in parallel.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

// Worker-pool threads are not test threads, so their allocations are counted
// globally: while WORKER_COUNTING is set, any allocation made on a
// `noc_base::pool` worker increments WORKER_ALLOCS. Both checks read only
// const-initialized TLS and atomics, so counting itself never allocates.
static WORKER_COUNTING: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
static WORKER_ALLOCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn note_alloc() {
    // try_with: the TLS slot may already be gone during thread teardown.
    let _ = COUNTING.try_with(|c| {
        if c.get() {
            let _ = ALLOC_CALLS.try_with(|n| n.set(n.get() + 1));
            if PANIC_ON_ALLOC.load(std::sync::atomic::Ordering::Relaxed) {
                c.set(false); // avoid recursing through the panic machinery
                panic!("alloc in counted region");
            }
        }
    });
    if WORKER_COUNTING.load(std::sync::atomic::Ordering::Relaxed)
        && noc_base::pool::is_worker_thread()
    {
        WORKER_ALLOCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

static PANIC_ON_ALLOC: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Counts heap allocations made by the current thread during `f`.
fn count_allocs(f: impl FnOnce()) -> u64 {
    if std::env::var_os("NOC_ALLOC_PANIC").is_some() {
        PANIC_ON_ALLOC.store(true, std::sync::atomic::Ordering::Relaxed);
    }
    ALLOC_CALLS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOC_CALLS.with(|n| n.get())
}

fn paper_cmesh_sim() -> Simulation {
    let topo = Arc::new(Mesh::new(4, 4, 4));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 5, 0.10, 7);
    Simulation::new(
        topo,
        NetworkConfig::paper(),
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
        9,
    )
}

#[test]
fn steady_state_step_does_not_allocate() {
    let mut sim = paper_cmesh_sim();
    // Warm up until every queue, scratch buffer, reassembly map and
    // histogram has reached its steady-state capacity.
    for _ in 0..20_000 {
        sim.step();
    }
    let cycles = 2_000;
    let allocs = count_allocs(|| {
        for _ in 0..cycles {
            sim.step();
        }
    });
    assert_eq!(
        allocs, 0,
        "engine allocated {allocs} times over {cycles} steady-state cycles"
    );
    // The network was genuinely busy while we counted, not quiescent.
    let traversals: u64 = (0..sim.topology().num_routers())
        .map(|r| sim.router(RouterId::new(r)).stats().flit_traversals)
        .sum();
    assert!(traversals > 100_000, "workload too light to be meaningful");
}

#[test]
fn multi_threaded_steady_state_does_not_allocate_on_any_thread() {
    use std::sync::atomic::Ordering;

    // The sharded engine must stay allocation-free on every thread: the
    // driver (counted thread-locally, including its inline share of shard
    // jobs) and each pool worker (counted globally via WORKER_ALLOCS).
    // Pool startup and shard-outbox growth happen during set_threads and
    // warmup, before counting begins. Eager waking forces workers to
    // actually participate in the epochs even on a single-core host, so the
    // worker-side assertion is never vacuous.
    noc_base::pool::global().set_eager_wake(true);
    let mut sim = paper_cmesh_sim();
    sim.set_threads(4);
    assert!(sim.shards() > 1, "expected a multi-shard partition");
    for _ in 0..20_000 {
        sim.step();
    }
    WORKER_ALLOCS.store(0, Ordering::Relaxed);
    WORKER_COUNTING.store(true, Ordering::Relaxed);
    let cycles = 2_000;
    let allocs = count_allocs(|| {
        for _ in 0..cycles {
            sim.step();
        }
    });
    WORKER_COUNTING.store(false, Ordering::Relaxed);
    let worker_allocs = WORKER_ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "driver thread allocated {allocs} times over {cycles} threaded cycles"
    );
    assert_eq!(
        worker_allocs, 0,
        "pool workers allocated {worker_allocs} times over {cycles} threaded cycles"
    );
}

#[test]
fn ni_reassembly_and_pool_recycling_do_not_allocate_under_churn() {
    // A heavy multi-flit workload keeps every layer the flit pool feeds in
    // constant churn: NI packet queues at their reserved bound, the flat
    // reassembly table cycling entries, and pool slots recycling through
    // free -> global list -> replenish -> shard stack every cycle. None of
    // it may allocate once warm. The load sits just under XY-mesh
    // saturation: an oversaturated node's source queue would genuinely grow
    // forever, which is unbounded backlog, not an engine allocation bug.
    let topo = Arc::new(Mesh::new(8, 8, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 4, 0.25, 11);
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };
    let mut sim = Simulation::new(
        topo,
        config,
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
        9,
    );
    for _ in 0..20_000 {
        sim.step();
    }
    let allocs = count_allocs(|| {
        for _ in 0..2_000 {
            sim.step();
        }
    });
    assert_eq!(allocs, 0, "churn workload allocated {allocs} times");
    let traversals: u64 = (0..sim.topology().num_routers())
        .map(|r| sim.router(RouterId::new(r)).stats().flit_traversals)
        .sum();
    assert!(traversals > 100_000, "workload too light to be meaningful");
}

#[test]
fn steady_state_step_does_not_allocate_with_baseline_router() {
    // The baseline (non-pseudo-circuit) scheme exercises the full VA/SA
    // pipeline every cycle; it must be allocation-free too.
    let topo = Arc::new(Mesh::new(8, 8, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 5, 0.15, 5);
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };
    let mut sim = Simulation::new(
        topo,
        config,
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::baseline()),
        9,
    );
    for _ in 0..20_000 {
        sim.step();
    }
    let allocs = count_allocs(|| {
        for _ in 0..2_000 {
            sim.step();
        }
    });
    assert_eq!(allocs, 0, "baseline engine allocated {allocs} times");
}

#[test]
fn steady_state_step_does_not_allocate_with_evc_router() {
    // The EVC router adds the express-latch path (try_latch) on top of the
    // two-stage pipeline; its steady state must be allocation-free too.
    let topo = Arc::new(Mesh::new(8, 8, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 5, 0.15, 5);
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };
    let mut sim = Simulation::new(
        topo,
        config,
        Box::new(traffic),
        &EvcRouterFactory::default(),
        9,
    );
    for _ in 0..20_000 {
        sim.step();
    }
    let allocs = count_allocs(|| {
        for _ in 0..2_000 {
            sim.step();
        }
    });
    assert_eq!(allocs, 0, "EVC engine allocated {allocs} times");
    // Express latching actually fired: the workload really exercised the
    // EVC-specific path while we counted, not just the shared pipeline.
    let bypasses: u64 = (0..sim.topology().num_routers())
        .map(|r| sim.router(RouterId::new(r)).stats().express_bypasses)
        .sum();
    assert!(
        bypasses > 0,
        "no express bypasses — EVC path never exercised"
    );
}

#[test]
fn steady_state_step_does_not_allocate_on_a_ring() {
    // The ring's two-port routers, dateline VC classes and CW/CCW route
    // modes must flow through the same preallocated kernel paths as the
    // mesh; nothing about the topology generalization may allocate per
    // cycle.
    let topo = Arc::new(Ring::new(8, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 1, 5, 0.10, 5);
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };
    let mut sim = Simulation::new(
        topo,
        config,
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
        9,
    );
    for _ in 0..20_000 {
        sim.step();
    }
    let allocs = count_allocs(|| {
        for _ in 0..2_000 {
            sim.step();
        }
    });
    assert_eq!(allocs, 0, "ring engine allocated {allocs} times");
    let traversals: u64 = (0..sim.topology().num_routers())
        .map(|r| sim.router(RouterId::new(r)).stats().flit_traversals)
        .sum();
    assert!(traversals > 10_000, "workload too light to be meaningful");
}

#[test]
fn steady_state_step_does_not_allocate_with_hybrid_router() {
    // The hybrid router's profile table and hot bitset are sized at
    // construction; counting, the cycle-1000 freeze, and the held-circuit
    // path afterwards must all be allocation-free. The 20k warmup runs
    // well past the default freeze point, so the counted window is the
    // hybrid (post-freeze) phase. The load sits below hybrid saturation:
    // held circuits cost some cold-flow throughput, and an oversaturated
    // node's source queue would keep doubling forever.
    let topo = Arc::new(Mesh::new(8, 8, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 5, 0.10, 5);
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };
    let mut sim = Simulation::new(
        topo,
        config,
        Box::new(traffic),
        &HybridRouterFactory::default(),
        9,
    );
    for _ in 0..20_000 {
        sim.step();
    }
    let reuses_before: u64 = (0..sim.topology().num_routers())
        .map(|r| sim.router(RouterId::new(r)).stats().pc_reuses)
        .sum();
    let allocs = count_allocs(|| {
        for _ in 0..2_000 {
            sim.step();
        }
    });
    assert_eq!(allocs, 0, "hybrid engine allocated {allocs} times");
    // Hot flows were actually riding held circuits during the counted
    // window, so the hybrid-specific path — not just the shared wormhole
    // pipeline — is what stayed allocation-free.
    let reuses_after: u64 = (0..sim.topology().num_routers())
        .map(|r| sim.router(RouterId::new(r)).stats().pc_reuses)
        .sum();
    assert!(
        reuses_after > reuses_before,
        "no circuit reuse during the counted window — hybrid path never exercised"
    );
}

#[test]
fn steady_state_step_does_not_allocate_with_multi_word_masks() {
    // MECS 4×4 routers have 10 input ports; at 8 VCs their VA candidate and
    // request masks span 80 slots, two words each, so the kernel's
    // multi-word scans and grants run every cycle. They index preallocated
    // flat word storage exactly like the one-word masks do.
    let topo = Arc::new(Mecs::new(4, 4, 4));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 5, 0.15, 5);
    let config = NetworkConfig {
        vcs_per_port: 8,
        ..NetworkConfig::paper()
    };
    let mut sim = Simulation::new(
        topo,
        config,
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::baseline()),
        9,
    );
    for _ in 0..20_000 {
        sim.step();
    }
    let allocs = count_allocs(|| {
        for _ in 0..2_000 {
            sim.step();
        }
    });
    assert_eq!(allocs, 0, "multi-word-mask engine allocated {allocs} times");
    let traversals: u64 = (0..sim.topology().num_routers())
        .map(|r| sim.router(RouterId::new(r)).stats().flit_traversals)
        .sum();
    assert!(traversals > 100_000, "workload too light to be meaningful");
}
