//! A persistent worker pool for deterministic fork/join parallelism.
//!
//! Both hot users of parallelism in this workspace — the sharded cycle loop
//! in `noc-sim` (thousands of tiny fork/joins per second) and the campaign /
//! figure-harness sweeps (a handful of long-running jobs) — share one
//! process-global pool of parked threads instead of spawning per call. A
//! batch is an indexed job set `0..len`; threads claim indices dynamically
//! (work stealing at batch-item granularity), so callers get load balancing
//! for free while *result* placement stays index-keyed and therefore
//! deterministic.
//!
//! # The epoch barrier
//!
//! Steady-state batch handoff is lock-free. All live batch state hangs off a
//! single packed *claim word* — `(epoch << INDEX_BITS) | next_index` — plus a
//! `remaining` countdown:
//!
//! - **Publish** (submitter): close the drained epoch by parking its index
//!   at the sentinel `INDEX_MASK`, write the erased job pointer, `len`
//!   (Release), `remaining`, and the helper `slots` budget, then store
//!   `(epoch + 1) << INDEX_BITS` into the claim word. That store is the
//!   entire barrier release; no lock is taken (the `submit` mutex only
//!   serializes *distinct* submitters and is uncontended in the cycle loop).
//! - **Claim** (submitter and workers alike): load `len` (Acquire), then CAS
//!   the claim word from `(e, i)` to `(e, i + 1)` for `i < len`. A stale
//!   claim from a previous batch is impossible: the epoch in the compared
//!   value fails the CAS once the epoch moves on, and a straggler that reads
//!   the *next* batch's staged `len` before that also sees the sentinel, so
//!   its CAS fails too (it can never claim past the drained length and run
//!   a new-batch index twice). Workers only read the job pointer *after* a
//!   successful CAS in the current epoch, and the pointer cannot have been
//!   republished underneath them because publishing epoch `e + 1` requires
//!   epoch `e`'s `remaining` to have hit zero first.
//! - **Join** (workers): advance on the epoch change, then take one of the
//!   batch's `slots` via `fetch_sub`; a non-positive result means the
//!   caller's `max_threads` cap is exhausted and the worker goes back to
//!   waiting. A worker that wakes late may burn a slot of a *newer* epoch
//!   without claiming an index (its claim loop exits immediately) — benign,
//!   because the cap is an upper bound on participation, never a lower one.
//! - **Finish**: every executed (or abandoned) index decrements `remaining`;
//!   whoever brings it to zero publishes the epoch into `done_epoch` and
//!   wakes the submitter if — and only if — it is parked.
//!
//! Blocking happens only at the edges, through [`crate::sync::ParkGate`]
//! (a condvar whose waker pays one atomic load when nobody is parked) with a
//! per-worker [`crate::sync::AdaptiveSpin`] budget in front. On a multi-core
//! host a steady-state cycle batch therefore issues **no syscalls and takes
//! no locks**: the submitter publishes with one store, everyone claims by
//! CAS, and the spin phases absorb the microsecond-scale gaps.
//!
//! # Wake policy
//!
//! Waking a parked worker costs a syscall on the publish path. Whether that
//! buys anything depends on the host and the job shape, so it is explicit:
//!
//! - [`WorkerPool::run_limited`] wakes parked workers only when the pool's
//!   *eager-wake* policy is on. It defaults to on for multi-core hosts and
//!   off for single-core hosts, where a woken worker cannot make the batch
//!   finish sooner — the submitter's own claim loop covers every index and
//!   the "parallel" path degrades to a few atomics. Tests and benches can
//!   force it either way with [`WorkerPool::set_eager_wake`].
//! - [`WorkerPool::run_limited_eager`] always wakes. Long-running jobs
//!   (campaign points, sweep cells) want every worker participating even if
//!   it costs a wakeup; spinning workers join either way.
//!
//! # Everything else
//!
//! Design constraints carried over from the locked predecessor, still in
//! order:
//!
//! 1. **Determinism is the caller's to keep, and easy to keep.** The pool
//!    never reorders results — a job is identified by its index and writes
//!    only to index-keyed state. Which thread runs which index is
//!    unspecified; nothing else is.
//! 2. **Zero allocation per batch.** All batch state lives in the pool;
//!    submitting a batch performs no heap allocation (verified by
//!    `tests/zero_alloc.rs` at the workspace root).
//! 3. **No nested-submission deadlock.** A batch job that submits a new
//!    batch executes it inline on the thread it is already running on —
//!    whether that thread is a pool worker or the original submitter (both
//!    are tracked thread-locally). Independent external submitters serialize
//!    on the submission lock. Every batch therefore completes with no
//!    circular waits.
//! 4. **Panics propagate, never hang.** Each job runs under
//!    [`std::panic::catch_unwind`]; the first panic poisons the batch
//!    (unclaimed indices are abandoned by a claim-word `fetch_update` to
//!    `(epoch, len)`), the batch still drains, and the payload is re-raised
//!    on the submitting thread once no worker can still hold the
//!    lifetime-erased job pointer.
//!
//! The per-call `max_threads` cap lets one shared pool serve callers with
//! different parallelism budgets: a `--threads 2` simulation on a 16-core
//! machine occupies at most 2 threads (itself plus one worker) even though
//! more workers are parked.

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::sync::{AdaptiveSpin, ParkGate};

thread_local! {
    /// Set for the lifetime of every pool worker thread.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Set while a thread is inside a parallel batch submission. The submit
    /// lock is not re-entrant, so a batch job that submits again from the
    /// *submitting* thread must run inline, exactly like a job on a worker
    /// thread.
    static IN_BATCH: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is already executing inside a parallel batch
/// submission (as the submitter; workers are covered by
/// [`is_worker_thread`]).
fn in_batch() -> bool {
    IN_BATCH.try_with(Cell::get).unwrap_or(false)
}

/// Clears `IN_BATCH` on scope exit, including panic unwinds.
struct BatchFlag;

impl BatchFlag {
    fn set() -> Self {
        IN_BATCH.with(|b| b.set(true));
        BatchFlag
    }
}

impl Drop for BatchFlag {
    fn drop(&mut self) {
        let _ = IN_BATCH.try_with(|b| b.set(false));
    }
}

/// Whether the current thread is a [`WorkerPool`] worker.
///
/// Used by nested submissions (which must run inline) and by the
/// allocation-audit tests, whose counting allocator attributes worker-thread
/// allocations to the pool.
pub fn is_worker_thread() -> bool {
    IN_WORKER.try_with(Cell::get).unwrap_or(false)
}

/// The worker-thread budget from the environment: `NOC_THREADS` when set to
/// a positive integer, otherwise [`std::thread::available_parallelism`],
/// otherwise 1.
pub fn default_threads() -> usize {
    env_thread_cap().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The explicit `NOC_THREADS` override, if set to a positive integer.
///
/// Callers that cache a thread count at configuration time (for example the
/// simulation engine, whose hot loop must not re-read the environment every
/// cycle) clamp through this so `NOC_THREADS=2 cargo test` bounds every
/// consumer in the process.
pub fn env_thread_cap() -> Option<usize> {
    parse_thread_cap(std::env::var("NOC_THREADS").ok().as_deref())
}

/// Parses a `NOC_THREADS`-style override: `Some(n)` for a positive integer,
/// `None` for unset, non-numeric, or zero values.
///
/// Split out from [`env_thread_cap`] so the parsing rules are testable
/// without mutating the process environment (concurrent `setenv`/`getenv`
/// is undefined behavior on glibc, and tests in one binary run in parallel).
pub fn parse_thread_cap(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.parse().ok()).filter(|&n| n > 0)
}

/// Low bits of the claim word holding the next unclaimed index; the epoch
/// generation counter lives above them. 16M indices per batch is far beyond
/// any caller (shard counts and sweep sizes are in the hundreds); the 40
/// epoch bits wrap after ~10^12 batches, and a collision additionally needs
/// a worker that slept through *exactly* 2^40 epochs — ignored by design.
const INDEX_BITS: u32 = 24;
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;

#[inline]
fn pack(epoch: u64, index: usize) -> u64 {
    (epoch << INDEX_BITS) | index as u64
}

/// An erased `&'scope (dyn Fn(usize) + Sync)` job pointer.
///
/// Safety: the pointer is only dereferenced between a successful index claim
/// and the matching `remaining` decrement, and batch submission does not
/// return — normally *or by unwinding* — until `remaining` reaches zero
/// (every job runs under `catch_unwind`, so a panicking job decrements
/// `remaining` like any other and is re-raised only after the batch drains).
/// The borrow the pointer was created from is therefore always live at every
/// dereference.
struct RawJob(*const (dyn Fn(usize) + Sync));
unsafe impl Send for RawJob {}

/// The job slot. Written by the submitter strictly before the claim-word
/// store that publishes the batch and strictly after `remaining` hits zero;
/// read by workers only between a successful same-epoch CAS and the matching
/// finish. Both windows are ordered by the claim word (publish) and the
/// `remaining` release sequence (drain), so no access ever races.
struct JobCell(UnsafeCell<Option<RawJob>>);
unsafe impl Sync for JobCell {}

struct Shared {
    /// The packed epoch barrier: `(epoch << INDEX_BITS) | next_index`.
    claim: AtomicU64,
    /// Number of indices in the current batch.
    len: AtomicUsize,
    /// Indices not yet executed (or abandoned) to completion.
    remaining: AtomicUsize,
    /// Worker join budget for the current batch (the caller's `max_threads`
    /// cap); signed so late wakers can drive it below zero harmlessly.
    slots: AtomicIsize,
    /// The erased job for the current batch.
    job: JobCell,
    /// Last epoch whose batch fully drained.
    done_epoch: AtomicU64,
    /// First panic payload captured from a batch job; re-raised on the
    /// submitting thread after the batch drains. Cold path only.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Workers park here between epochs.
    work_gate: ParkGate,
    /// The submitter parks here waiting out stragglers.
    done_gate: ParkGate,
}

/// Claims and executes indices of `epoch` until the batch drains or the
/// epoch moves on. `run` is invoked only after a successful same-epoch CAS,
/// so a worker's `run` may safely dereference the published job pointer.
fn claim_indices(shared: &Shared, epoch: u64, run: impl Fn(usize)) {
    loop {
        let cur = shared.claim.load(Ordering::Acquire);
        if cur >> INDEX_BITS != epoch {
            return;
        }
        let idx = (cur & INDEX_MASK) as usize;
        // Acquire pairs with the submitter's Release store of a staged
        // length: seeing it implies seeing the sentinel that closed `epoch`.
        let len = shared.len.load(Ordering::Acquire);
        if idx >= len {
            return;
        }
        // `cur + 1` bumps only the index bits: idx < len < 2^INDEX_BITS.
        if shared
            .claim
            .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            continue;
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(idx)));
        if let Err(payload) = outcome {
            poison(shared, epoch, len, payload);
        }
        finish(shared, epoch, 1);
    }
}

/// Retires `n` indices; whoever retires the last publishes completion. The
/// `fetch_sub` release sequence on `remaining` is what hands every worker's
/// writes to the submitter once it observes `done_epoch`.
fn finish(shared: &Shared, epoch: u64, n: usize) {
    if shared.remaining.fetch_sub(n, Ordering::AcqRel) == n {
        shared.done_epoch.store(epoch, Ordering::SeqCst);
        shared.done_gate.wake_all();
    }
}

/// Records a job panic: keeps the first payload and abandons every unclaimed
/// index (claim word driven to `(epoch, len)`) so the batch drains as soon
/// as in-flight jobs finish. Only the thread that wins the `fetch_update`
/// retires the abandoned indices; concurrent poisoners see `idx >= len` and
/// retire nothing extra.
fn poison(shared: &Shared, epoch: u64, len: usize, payload: Box<dyn std::any::Any + Send>) {
    {
        let mut slot = shared.panic.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
    let grabbed = shared
        .claim
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
            (cur >> INDEX_BITS == epoch && (cur & INDEX_MASK) < len as u64)
                .then(|| pack(epoch, len))
        });
    if let Ok(prev) = grabbed {
        let abandoned = len - (prev & INDEX_MASK) as usize;
        finish(shared, epoch, abandoned);
    }
}

/// How many spin iterations to burn watching for state changes before
/// falling back to the condvar. On a single-core host spinning only steals
/// time from the thread doing the work, so the budget collapses to zero.
fn spin_budget() -> u32 {
    static BUDGET: OnceLock<u32> = OnceLock::new();
    *BUDGET.get_or_init(|| if multi_core_host() { 20_000 } else { 0 })
}

/// Whether this host can actually run two threads at once — the default for
/// both the spin budget and the eager-wake policy.
fn multi_core_host() -> bool {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        > 1
}

/// A persistent pool of parked worker threads executing indexed batches over
/// a lock-free epoch barrier.
///
/// See the [module docs](self) for the execution model. Most callers want
/// the process-global instance from [`global()`] rather than a private pool.
pub struct WorkerPool {
    shared: &'static Shared,
    /// Serializes distinct submitters: one batch in flight at a time.
    submit: Mutex<()>,
    /// Number of workers spawned so far (grown on demand, never shrunk).
    workers: AtomicUsize,
    /// Guards worker spawning.
    spawn: Mutex<()>,
    /// Whether [`run_limited`](Self::run_limited) wakes parked workers on
    /// publish. See the module docs' wake-policy section.
    eager_wake: AtomicBool,
}

impl WorkerPool {
    /// Creates an empty pool; workers are spawned on demand by
    /// [`run_limited`](Self::run_limited).
    ///
    /// Worker threads are detached and live for the process lifetime, so
    /// this is intended for the process-global pool ([`global()`]) and for
    /// tests.
    pub fn new() -> Self {
        let shared = Box::leak(Box::new(Shared {
            claim: AtomicU64::new(pack(0, 0)),
            len: AtomicUsize::new(0),
            remaining: AtomicUsize::new(0),
            slots: AtomicIsize::new(0),
            job: JobCell(UnsafeCell::new(None)),
            done_epoch: AtomicU64::new(0),
            panic: Mutex::new(None),
            work_gate: ParkGate::new(),
            done_gate: ParkGate::new(),
        }));
        Self {
            shared,
            submit: Mutex::new(()),
            workers: AtomicUsize::new(0),
            spawn: Mutex::new(()),
            eager_wake: AtomicBool::new(multi_core_host()),
        }
    }

    /// Workers spawned so far.
    pub fn worker_count(&self) -> usize {
        self.workers.load(Ordering::Relaxed)
    }

    /// Overrides the eager-wake policy: whether
    /// [`run_limited`](Self::run_limited) wakes parked workers when it
    /// publishes a batch. Defaults to `true` on multi-core hosts and `false`
    /// on single-core hosts (where a wakeup is a syscall that cannot make
    /// the batch finish sooner). Process-wide on [`global()`]; tests forcing
    /// worker participation on a 1-CPU CI host set it to `true`.
    pub fn set_eager_wake(&self, eager: bool) {
        self.eager_wake.store(eager, Ordering::Relaxed);
    }

    /// The current eager-wake policy.
    pub fn eager_wake(&self) -> bool {
        self.eager_wake.load(Ordering::Relaxed)
    }

    /// Runs `job(i)` for every `i in 0..len`, using at most `max_threads`
    /// threads (the calling thread included), and returns once every index
    /// has executed. Parked workers are woken per the pool's eager-wake
    /// policy; spinning workers join regardless.
    ///
    /// Runs inline — sequentially on the calling thread — when `len <= 1`,
    /// when `max_threads <= 1`, or when the calling thread is already
    /// executing a batch job (nested submission from a pool worker *or* from
    /// a submitter running its own share of a batch; the submit lock is not
    /// re-entrant, so both must inline).
    ///
    /// If any job panics, the batch is abandoned after in-flight jobs finish
    /// and the first panic payload is re-raised on the calling thread; later
    /// batches on the same pool are unaffected.
    pub fn run_limited(&self, len: usize, max_threads: usize, job: &(dyn Fn(usize) + Sync)) {
        self.run_inner(len, max_threads, job, self.eager_wake(), false);
    }

    /// Like [`run_limited`](Self::run_limited), but always wakes parked
    /// workers. For long-running jobs — campaign points, sweep cells — where
    /// one wakeup syscall is noise against seconds of work and every worker
    /// should participate even on hosts whose per-cycle policy is lazy.
    pub fn run_limited_eager(&self, len: usize, max_threads: usize, job: &(dyn Fn(usize) + Sync)) {
        self.run_inner(len, max_threads, job, true, false);
    }

    /// Like [`run_limited`](Self::run_limited), but returns how long the
    /// submitter waited for straggler workers after exhausting its own claim
    /// loop, in nanoseconds (0 when the batch ran inline or drained before
    /// the submitter finished claiming). Timing instruments only the wait —
    /// the publish/claim path is untouched — and is used by the engine's
    /// `--metrics=full` coordination histograms.
    pub fn run_limited_timed(
        &self,
        len: usize,
        max_threads: usize,
        job: &(dyn Fn(usize) + Sync),
    ) -> u64 {
        self.run_inner(len, max_threads, job, self.eager_wake(), true)
    }

    fn run_inner(
        &self,
        len: usize,
        max_threads: usize,
        job: &(dyn Fn(usize) + Sync),
        eager: bool,
        timed: bool,
    ) -> u64 {
        if len == 0 {
            return 0;
        }
        if len == 1 || max_threads <= 1 || is_worker_thread() || in_batch() {
            for i in 0..len {
                job(i);
            }
            return 0;
        }
        assert!(
            (len as u64) < INDEX_MASK,
            "batch of {len} exceeds the claim word's index field"
        );
        let helpers = (max_threads - 1).min(len - 1);
        self.ensure_workers(helpers);

        // From here until the batch drains, any nested submission on this
        // thread (from inside `job`) must run inline.
        let _in_batch = BatchFlag::set();
        // A panic re-raise below unwinds through this guard and poisons the
        // mutex; it protects no data (only batch serialization), so a
        // poisoned lock is recovered rather than treated as an invariant
        // failure.
        let _submission = self.submit.lock().unwrap_or_else(PoisonError::into_inner);
        // Erase the job's scope: sound because this function does not return
        // until every claimed index has finished executing (see `RawJob`).
        let raw = RawJob(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
                as *const _
        });
        let s = self.shared;
        // Close the drained epoch before staging: a straggler still in
        // `claim_indices` may hold the drained word `(e, len_e)` and is about
        // to compare its index against `len`. Parking the index at the
        // sentinel `INDEX_MASK` (never a valid index) makes its CAS fail once
        // it can see the new `len`: the Release store of `len` below follows
        // this store, and `claim_indices` loads `len` with Acquire before its
        // CAS, so a straggler that reads the staged length also sees the
        // sentinel.
        let epoch = (s.claim.load(Ordering::Relaxed) >> INDEX_BITS) + 1;
        s.claim
            .store(pack(epoch - 1, INDEX_MASK as usize), Ordering::SeqCst);
        // Stage the batch, then publish it with the claim-word store. The
        // store is SeqCst (not merely Release) for the ParkGate missed-wakeup
        // protocol: it must be totally ordered against a parking worker's
        // `sleepers` advertisement.
        unsafe { *s.job.0.get() = Some(raw) };
        s.len.store(len, Ordering::Release);
        s.remaining.store(len, Ordering::Relaxed);
        s.slots.store(helpers as isize, Ordering::Relaxed);
        s.claim.store(pack(epoch, 0), Ordering::SeqCst);
        if eager {
            s.work_gate.wake_all();
        }

        // Participate: the submitter is one of the batch's threads.
        claim_indices(s, epoch, job);

        // Wait out workers still executing claimed indices: spin briefly
        // (back-to-back cycle batches finish in microseconds), then park.
        let mut wait_ns = 0u64;
        if s.done_epoch.load(Ordering::SeqCst) != epoch {
            let start = timed.then(std::time::Instant::now);
            s.done_gate.wait(spin_budget(), || {
                s.done_epoch.load(Ordering::SeqCst) == epoch
            });
            if let Some(start) = start {
                wait_ns = start.elapsed().as_nanos() as u64;
            }
        }

        // Drop the erased pointer before the borrow it came from expires
        // (safe: `remaining` is zero, so no thread still holds it), then
        // re-raise any job panic on the submitter.
        unsafe { *s.job.0.get() = None };
        let payload = s
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
        wait_ns
    }

    /// Runs `job(i)` for every `i in 0..len` with no extra thread cap beyond
    /// the pool's worker count.
    pub fn run_indexed(&self, len: usize, job: &(dyn Fn(usize) + Sync)) {
        self.run_limited(len, usize::MAX, job);
    }

    /// Spawns workers until at least `n` exist.
    fn ensure_workers(&self, n: usize) {
        if self.workers.load(Ordering::Acquire) >= n {
            return;
        }
        let _guard = self.spawn.lock().expect("pool spawn lock");
        let current = self.workers.load(Ordering::Acquire);
        for id in current..n {
            let shared: &'static Shared = self.shared;
            std::thread::Builder::new()
                .name(format!("noc-pool-{id}"))
                .spawn(move || worker_loop(shared))
                .expect("spawn pool worker");
        }
        self.workers.store(n.max(current), Ordering::Release);
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

fn worker_loop(shared: &'static Shared) {
    IN_WORKER.with(|w| w.set(true));
    // Epoch 0 is never published (the first batch is epoch 1), so a fresh
    // worker joins whatever batch is already in flight — including the one
    // whose `ensure_workers` call spawned it.
    let mut seen = 0u64;
    let mut spin = AdaptiveSpin::new(spin_budget());
    loop {
        let mut observed = seen;
        let parked = shared.work_gate.wait(spin.budget(), || {
            observed = shared.claim.load(Ordering::SeqCst) >> INDEX_BITS;
            observed != seen
        });
        spin.observe(parked);
        seen = observed;
        if shared.slots.fetch_sub(1, Ordering::AcqRel) > 0 {
            claim_indices(shared, seen, |i| {
                // Safe: post-CAS in epoch `seen`, so the pointer published
                // for this epoch is still live (see `JobCell`).
                let job = unsafe {
                    (*shared.job.0.get())
                        .as_ref()
                        .expect("job present while batch undrained")
                        .0
                };
                unsafe { (*job)(i) }
            });
        } else {
            // Excluded by the caller's thread cap: park immediately on the
            // next wait instead of burning a spin budget per epoch of a
            // narrower-than-pool caller.
            spin.exclude();
        }
    }
}

/// The process-global worker pool shared by the simulation engine's cycle
/// loop and the campaign / bench sweep schedulers.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(WorkerPool::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = WorkerPool::new();
        let hits: Vec<AtomicU32> = (0..97).map(|_| AtomicU32::new(0)).collect();
        pool.run_limited(hits.len(), 4, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn back_to_back_batches_stay_consistent() {
        let pool = WorkerPool::new();
        let sum = AtomicU64::new(0);
        for round in 0..500u64 {
            pool.run_limited(8, 3, &|i| {
                sum.fetch_add(round + i as u64, Ordering::Relaxed);
            });
        }
        // sum over rounds of (8*round + 0+..+7)
        let expected: u64 = (0..500u64).map(|r| 8 * r + 28).sum();
        assert_eq!(sum.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn epoch_barrier_survives_thousands_of_generations_eagerly() {
        // The steady-state regime the cycle loop creates: back-to-back tiny
        // batches over the same pool, with parked-worker wakeups forced on so
        // workers race the submitter for indices on every host (this CI
        // container has one CPU, where the default policy would otherwise
        // leave the submitter claiming everything). Every index must execute
        // exactly once per generation despite claim-word reuse.
        let pool = WorkerPool::new();
        pool.set_eager_wake(true);
        let sum = AtomicU64::new(0);
        for _ in 0..2_000u64 {
            pool.run_limited(5, 3, &|i| {
                sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 2_000 * 15);
    }

    #[test]
    fn varying_length_batches_run_each_index_exactly_once() {
        // The engine's batch length changes every cycle (one index per
        // pending shard). A straggler still claiming in a drained epoch must
        // never claim from the next batch's staged length: that would run
        // one index on two threads and retire it against the wrong batch
        // (double execution here, or a submitter waiting forever). The run
        // is bounded by a watchdog so a lost completion fails instead of
        // hanging the suite.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pool = WorkerPool::new();
            pool.set_eager_wake(true);
            let hits: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
            for round in 0..30_000usize {
                let len = 2 + round % 7;
                pool.run_limited(len, 3, &|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                for (i, h) in hits.iter().enumerate() {
                    let want = u32::from(i < len);
                    let got = h.swap(0, Ordering::Relaxed);
                    assert_eq!(
                        got, want,
                        "round {round} (len {len}) ran index {i} {got} times"
                    );
                }
            }
            done.send(()).expect("test thread waits for completion");
        });
        match finished.recv_timeout(std::time::Duration::from_secs(120)) {
            Ok(()) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                panic!("a batch ran an index the wrong number of times")
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("a batch never drained"),
        }
    }

    #[test]
    fn eager_wake_parks_and_wakes_workers() {
        // Park/wake coverage: a two-index batch where index 0 blocks until
        // index 1 has run, so the batch can only drain if a *second* thread
        // participates — on this pool that means the (parked between rounds,
        // eagerly woken) worker. A lost wakeup turns into the bounded-poll
        // panic below instead of a silent pass.
        let pool = WorkerPool::new();
        pool.set_eager_wake(true);
        for round in 0..50 {
            let worker_jobs = AtomicU32::new(0);
            let unblocked = AtomicU32::new(0);
            pool.run_limited(2, 2, &|i| {
                if is_worker_thread() {
                    worker_jobs.fetch_add(1, Ordering::SeqCst);
                }
                if i == 1 {
                    unblocked.store(1, Ordering::SeqCst);
                } else {
                    let mut polls = 0u64;
                    while unblocked.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                        polls += 1;
                        assert!(polls < 50_000_000, "worker never woke (round {round})");
                    }
                }
            });
            // One submitter + one worker ran exactly one index each
            // (whichever claimed first).
            assert_eq!(worker_jobs.load(Ordering::SeqCst), 1, "round {round}");
        }
    }

    #[test]
    fn thread_cap_exclusion_parks_excluded_workers() {
        // A narrow batch on a wide pool: workers beyond the caller's cap must
        // sit out (never more than max_threads - 1 workers inside jobs), and
        // a later wide batch must still reach them through the park gate.
        let pool = WorkerPool::new();
        pool.set_eager_wake(true);
        pool.run_limited(8, 4, &|_| {}); // spawn 3 workers
        assert_eq!(pool.worker_count(), 3);

        let in_flight = AtomicU32::new(0);
        let peak = AtomicU32::new(0);
        for _ in 0..20 {
            pool.run_limited(64, 2, &|_| {
                if is_worker_thread() {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::yield_now();
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                }
            });
        }
        assert!(
            peak.load(Ordering::SeqCst) <= 1,
            "cap 2 admits at most one worker, saw {}",
            peak.load(Ordering::SeqCst)
        );

        // The excluded (now parked, spin budget collapsed) workers rejoin a
        // wide batch: prove at least the full index set still executes.
        let hits = AtomicU32::new(0);
        pool.run_limited(32, 4, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn worker_side_panic_propagates_under_eager_wake() {
        // Two threads share a two-index batch (index 0 blocks until index 1
        // retires, so both the submitter and the woken worker hold one job
        // each); index 1 panics on whichever thread claimed it — in the
        // worker-claims-1 interleaving this exercises the cross-thread
        // poison + re-raise path.
        let pool = WorkerPool::new();
        pool.set_eager_wake(true);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_limited(2, 2, &|i| {
                if i == 1 {
                    panic!("worker job failed");
                }
                let mut polls = 0u64;
                while pool.shared.remaining.load(Ordering::SeqCst) > 1 {
                    std::thread::yield_now();
                    polls += 1;
                    assert!(polls < 50_000_000, "index 1 never retired");
                }
            });
        }));
        let payload = caught.expect_err("worker panic must re-raise on the submitter");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "worker job failed");

        // The pool survives for subsequent batches.
        let hits = AtomicU32::new(0);
        pool.run_limited(8, 2, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn thread_cap_one_runs_inline() {
        let pool = WorkerPool::new();
        let main = std::thread::current().id();
        pool.run_limited(16, 1, &|_| {
            assert_eq!(std::thread::current().id(), main, "cap 1 must run inline");
        });
        assert_eq!(pool.worker_count(), 0, "no workers spawned for inline runs");
    }

    #[test]
    fn nested_submission_runs_inline() {
        // Every job re-enters the pool unconditionally: jobs claimed by
        // workers inline via IN_WORKER, jobs claimed by the submitting
        // thread inline via IN_BATCH. A deadlock here (the submitter
        // re-locking the non-reentrant submit mutex) hangs the test.
        let pool = global();
        let outer = AtomicU32::new(0);
        let inner = AtomicU32::new(0);
        pool.run_limited(16, 4, &|_| {
            outer.fetch_add(1, Ordering::Relaxed);
            global().run_limited(3, 4, &|_| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer.load(Ordering::Relaxed), 16);
        assert_eq!(inner.load(Ordering::Relaxed), 48);
    }

    #[test]
    fn nested_submission_runs_inline_under_eager_wake() {
        // The same no-deadlock guarantee with forced wakeups and a private
        // pool, so worker-claimed jobs demonstrably nest on worker threads.
        let pool = WorkerPool::new();
        pool.set_eager_wake(true);
        let inner = AtomicU32::new(0);
        pool.run_limited(16, 4, &|_| {
            pool.run_limited(3, 4, &|_| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner.load(Ordering::Relaxed), 48);
    }

    #[test]
    fn submitter_thread_nested_submission_runs_inline() {
        // Deterministic coverage of the submitter-side path: put this thread
        // in exactly the state `run_limited` leaves it in while it executes
        // its share of a batch, then submit again. The nested call must run
        // inline on this thread, spawning nothing and touching no lock this
        // thread could already hold.
        let pool = WorkerPool::new();
        let _in_batch = BatchFlag::set();
        let me = std::thread::current().id();
        let hits = AtomicU32::new(0);
        pool.run_limited(4, 4, &|_| {
            assert_eq!(std::thread::current().id(), me, "must inline");
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
        assert_eq!(pool.worker_count(), 0, "inline runs spawn no workers");
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new();
        let executed = AtomicU32::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_limited(64, 4, &|i| {
                executed.fetch_add(1, Ordering::Relaxed);
                if i == 40 {
                    panic!("job 40 failed");
                }
            });
        }));
        let payload = caught.expect_err("job panic must re-raise on the submitter");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "job 40 failed");
        // The poisoned batch abandons unclaimed indices rather than hanging.
        assert!(executed.load(Ordering::Relaxed) <= 64);

        // The pool is reusable: the next batch completes normally.
        let hits = AtomicU32::new(0);
        pool.run_limited(8, 4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn first_index_panic_propagates() {
        // Index 0 is claimed by the submitter or a worker depending on
        // timing; either path must re-raise instead of hanging or unwinding
        // mid-batch.
        let pool = WorkerPool::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_limited(4, 2, &|i| {
                if i == 0 {
                    panic!("first job failed");
                }
            });
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn worker_cap_respects_max_threads() {
        let pool = WorkerPool::new();
        pool.run_limited(64, 3, &|_| {
            std::thread::yield_now();
        });
        // At most max_threads - 1 helpers are ever spawned for a batch.
        assert!(pool.worker_count() <= 2, "workers={}", pool.worker_count());
    }

    #[test]
    fn timed_run_reports_zero_for_inline_and_unwaited_batches() {
        let pool = WorkerPool::new();
        let hits = AtomicU32::new(0);
        // Inline path: cap 1.
        assert_eq!(
            pool.run_limited_timed(16, 1, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            }),
            0
        );
        assert_eq!(hits.load(Ordering::Relaxed), 16);
        // Parallel path: the wait is whatever straggler time materialized
        // (freshly spawned workers may join even without a wakeup); the
        // batch must still fully execute.
        pool.set_eager_wake(false);
        let _wait = pool.run_limited_timed(16, 4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn thread_cap_parsing_respects_override_rules() {
        // The override rules are tested through the pure parser rather than
        // by mutating NOC_THREADS: setenv concurrent with getenv (other
        // tests in this binary read the environment) is undefined behavior
        // on glibc.
        assert_eq!(parse_thread_cap(Some("3")), Some(3));
        assert_eq!(parse_thread_cap(Some("1")), Some(1));
        assert_eq!(parse_thread_cap(Some("0")), None, "zero falls back");
        assert_eq!(
            parse_thread_cap(Some("lots")),
            None,
            "non-numeric falls back"
        );
        assert_eq!(parse_thread_cap(Some("-2")), None);
        assert_eq!(parse_thread_cap(None), None, "unset falls back");
    }

    #[test]
    fn default_threads_is_positive_and_env_consistent() {
        // Read-only sanity check: whatever NOC_THREADS is (or isn't) in this
        // process, the derived budget is positive and consistent with the
        // raw variable as seen through the pure parser.
        let n = default_threads();
        assert!(n >= 1);
        if let Some(cap) = parse_thread_cap(std::env::var("NOC_THREADS").ok().as_deref()) {
            assert_eq!(n, cap);
            assert_eq!(env_thread_cap(), Some(cap));
        }
    }
}
