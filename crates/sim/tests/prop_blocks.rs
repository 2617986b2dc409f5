//! Property-based tests of the microarchitecture building blocks against
//! reference models.

use noc_base::bitset::words_for;
use noc_base::{BitArbiter, Flit, FlitPool, FlitRef, VcIndex};
use noc_sim::blocks::{CreditBook, FifoBank};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The scalar round-robin arbiter: the behavioural reference for
/// [`BitArbiter`]. The grant is the first requesting index at or after the
/// rotating-priority pointer, wrapping once, found by walking the request
/// vector one `bool` at a time; the pointer then moves one past the winner.
struct RrArbiter {
    next: usize,
    n: usize,
}

impl RrArbiter {
    fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one requester");
        Self { next: 0, n }
    }

    fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.n, "request vector size mismatch");
        for offset in 0..self.n {
            let i = (self.next + offset) % self.n;
            if requests[i] {
                self.next = (i + 1) % self.n;
                return Some(i);
            }
        }
        None
    }
}

/// Arbiter widths on both sides of every word boundary up to three words.
const BOUNDARY_WIDTHS: [usize; 6] = [1, 63, 64, 65, 128, 129];

/// One request vector: dense (a random `bool` per requester) or sparse (a
/// few set bits, biased onto the last and first bit of each word). Indices
/// are reduced modulo the arbiter width when applied.
fn request_pattern() -> impl Strategy<Value = Vec<usize>> {
    let dense = prop::collection::vec(any::<bool>(), 0..150).prop_map(|bits| {
        bits.iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(i, _)| i)
            .collect::<Vec<usize>>()
    });
    let edge = prop_oneof![0usize..150, Just(63), Just(64), Just(127), Just(128)];
    let sparse = prop::collection::vec(edge, 0..4);
    prop_oneof![dense, sparse]
}

fn flit(tag: u16) -> Flit {
    Flit {
        seq: tag,
        ..noc_base::arena::placeholder_flit()
    }
}

proptest! {
    /// Every [`FifoBank`] slot behaves exactly like an independent bounded
    /// VecDeque: push acceptance, pop order, head identity, readiness
    /// timing, and the full/empty edge predicates all agree op-for-op while
    /// random interleavings drive each ring cursor around its range many
    /// times (the 1..4 depths against up to 200 ops guarantee wraparound).
    #[test]
    fn fifo_bank_matches_reference_model(
        slots in 1usize..4,
        depth in 1usize..4,
        ops in prop::collection::vec(
            (0usize..4, prop_oneof![
                (0u16..1000, 0u64..50).prop_map(Some), // push (tag, ready_at)
                Just(None),                            // pop
            ]),
            1..200,
        ),
    ) {
        // Refs to pass through the bank; the pool is sized so pushes never
        // run out of distinct tags to mint.
        let pool = FlitPool::new(ops.len() + 1, 1);
        let mut bank = FifoBank::new(slots, depth);
        let mut reference: Vec<VecDeque<(FlitRef, u64)>> = vec![VecDeque::new(); slots];
        for (i, (raw_slot, op)) in ops.into_iter().enumerate() {
            let slot = raw_slot % slots;
            match op {
                Some((tag, ready_at)) => {
                    let r = pool.alloc_serial(flit(tag));
                    let ok = bank.push(slot, r, ready_at).is_ok();
                    let model_ok = reference[slot].len() < depth;
                    prop_assert_eq!(ok, model_ok, "push acceptance diverged");
                    if model_ok {
                        reference[slot].push_back((r, ready_at));
                    } else {
                        pool.free(r); // rejected pushes return the slot
                    }
                }
                None => {
                    let popped = bank.pop(slot);
                    prop_assert_eq!(popped, reference[slot].pop_front());
                    if let Some((r, _)) = popped {
                        pool.free(r);
                    }
                }
            }
            // Every slot (touched or not this op) must agree with its model.
            let cycle = i as u64 % 50;
            for (s, model) in reference.iter().enumerate() {
                prop_assert_eq!(bank.len(s), model.len());
                prop_assert_eq!(bank.is_empty(s), model.is_empty());
                prop_assert_eq!(bank.is_full(s), model.len() == depth);
                prop_assert_eq!(bank.head_ref(s), model.front().map(|&(r, _)| r));
                prop_assert_eq!(
                    bank.head_ready(s, cycle),
                    model
                        .front()
                        .filter(|&&(_, ready)| ready <= cycle)
                        .map(|&(r, _)| r)
                );
            }
        }
    }

    /// The [`FlitPool`] under arbitrary alloc/free interleavings: live refs
    /// read back exactly the flit written (stable across every other
    /// operation), allocation hands out distinct slots, `try_alloc` reports
    /// exhaustion cleanly as `None`, and frees make capacity reusable.
    #[test]
    fn pool_survives_alloc_free_interleavings(
        capacity in 1usize..12,
        ops in prop::collection::vec(prop_oneof![
            Just(true),  // alloc
            Just(false), // free the oldest live ref
        ], 1..200),
    ) {
        let pool = FlitPool::new(capacity, 1);
        pool.replenish(0, capacity);
        // Live refs in allocation order, with the tag each slot must hold.
        let mut live: VecDeque<(FlitRef, u16)> = VecDeque::new();
        let mut next_tag = 0u16;
        for alloc in ops {
            if alloc {
                let r = pool.try_alloc(0, flit(next_tag));
                if live.len() == capacity {
                    prop_assert_eq!(r, None, "alloc must fail when all slots are live");
                } else {
                    let r = r.expect("free capacity but try_alloc refused");
                    prop_assert!(
                        live.iter().all(|&(l, _)| l.index() != r.index()),
                        "allocated a slot that is still live"
                    );
                    live.push_back((r, next_tag));
                    next_tag = next_tag.wrapping_add(1);
                }
            } else if let Some((r, _)) = live.pop_front() {
                pool.free(r);
                // Frees land on the global list; restock the shard stack so
                // the slot is allocatable again (as the driver does between
                // parallel phases).
                pool.replenish(0, capacity - live.len());
            }
            // Every live ref still reads back its own flit, untouched by
            // the surrounding churn.
            for &(r, tag) in &live {
                prop_assert_eq!(pool.get(r).seq, tag, "live flit body corrupted");
            }
        }
        prop_assert_eq!(pool.total_free() + live.len(), capacity);
    }

    /// The round-robin arbiter is work-conserving and starvation-free: under
    /// continuous full load every requester is granted within n rounds.
    #[test]
    fn arbiter_is_work_conserving_and_fair(
        n in 1usize..150,
        rounds in 1usize..300,
    ) {
        let mut arb = BitArbiter::new(n);
        let mut all = vec![0u64; words_for(n)];
        (0..n).for_each(|i| all[i / 64] |= 1 << (i % 64));
        let mut last_grant = vec![None::<usize>; n];
        for round in 0..rounds {
            let g = arb.grant(&all).expect("work conserving under load");
            prop_assert!(g < n);
            if let Some(prev) = last_grant[g] {
                prop_assert!(round - prev <= n, "requester {g} starved");
            }
            last_grant[g] = Some(round);
        }
        // No requests -> no grant.
        prop_assert_eq!(arb.grant(&vec![0; words_for(n)]), None);
    }

    /// `BitArbiter`'s word-level grant is grant-for-grant identical to the
    /// scalar `RrArbiter`, including the rotating-priority pointer, over
    /// arbitrary request sequences — sparse, dense, empty. Every case runs
    /// at each width in `BOUNDARY_WIDTHS` (one to three words, both sides
    /// of each word boundary) and at one random width; widths of one word
    /// also drive the single-`u64` `grant_word` entry point in lockstep.
    #[test]
    fn bit_arbiter_matches_scalar_reference(
        random_n in 1usize..200,
        patterns in prop::collection::vec(request_pattern(), 1..60),
    ) {
        for n in BOUNDARY_WIDTHS.into_iter().chain([random_n]) {
            let mut scalar = RrArbiter::new(n);
            let mut bit = BitArbiter::new(n);
            let mut one_word = BitArbiter::new(n);
            for set in &patterns {
                let mut requests = vec![false; n];
                let mut words = vec![0u64; words_for(n)];
                for &i in set {
                    let i = i % n;
                    requests[i] = true;
                    words[i / 64] |= 1 << (i % 64);
                }
                let expected = scalar.grant(&requests);
                prop_assert_eq!(
                    bit.grant(&words),
                    expected,
                    "n = {}: grant diverged from the scalar reference",
                    n
                );
                prop_assert_eq!(
                    bit.pointer(),
                    scalar.next,
                    "n = {}: RR pointer state diverged from the scalar reference",
                    n
                );
                if n <= 64 {
                    prop_assert_eq!(one_word.grant_word(words[0]), expected, "n = {}", n);
                    prop_assert_eq!(one_word.pointer(), scalar.next, "n = {}", n);
                }
            }
        }
    }

    /// Credit books conserve credits under arbitrary consume/refill orders
    /// that respect the protocol.
    #[test]
    fn credit_book_conserves(
        subs in 1usize..4,
        vcs in 1usize..5,
        capacity in 1u32..6,
        ops in prop::collection::vec((any::<bool>(), 0usize..4, 0usize..5), 1..200),
    ) {
        let mut book = CreditBook::new(subs, vcs, capacity);
        let mut outstanding = vec![0u32; subs * vcs];
        for (consume, sub, vc) in ops {
            let sub = sub % subs;
            let vc = vc % vcs;
            let slot = sub * vcs + vc;
            let vc_i = VcIndex::new(vc);
            if consume {
                if book.available(sub, vc_i) > 0 {
                    book.consume(sub, vc_i);
                    outstanding[slot] += 1;
                }
            } else if outstanding[slot] > 0 {
                book.refill(sub, vc_i);
                outstanding[slot] -= 1;
            }
            prop_assert_eq!(
                book.available(sub, vc_i) + outstanding[slot],
                capacity,
                "credits + outstanding must equal capacity"
            );
        }
        let total_outstanding: u32 = outstanding.iter().sum();
        prop_assert_eq!(
            book.total_available() + total_outstanding,
            capacity * (subs * vcs) as u32
        );
    }
}
