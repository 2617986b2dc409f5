//! Open-loop synthetic traffic patterns (paper §VI.B, Fig. 12).
//!
//! The paper evaluates uniform random (UR), bit complement (BC) and bit
//! permutation / matrix transpose (BP); tornado, nearest-neighbor and hotspot
//! are provided as extensions for wider load–latency studies. Injection is a
//! per-node Bernoulli process calibrated in flits/node/cycle: a node with
//! offered load `r` and packet length `L` starts a new packet each cycle with
//! probability `r / L`.

use crate::{PacketRequest, TrafficModel};
use noc_base::rng::{Bernoulli, Pcg32};
use noc_base::{NodeId, PacketClass};

/// A destination-selection rule over a logical `cols × rows` grid of nodes.
#[derive(Clone, PartialEq, Debug)]
pub enum SyntheticPattern {
    /// Every node sends to a uniformly random other node.
    UniformRandom,
    /// Node `(x, y)` sends to `(cols-1-x, rows-1-y)` — on power-of-two grids
    /// this is the classic bit-complement permutation. Longest average
    /// Manhattan distance of the three paper patterns.
    BitComplement,
    /// Matrix transpose: node `(x, y)` sends to `(y, x)`; nodes on the
    /// diagonal send uniformly at random (they would otherwise self-send).
    /// Requires a square grid.
    Transpose,
    /// Node `(x, y)` sends to `((x + ⌈cols/2⌉ - 1) mod cols, y)` — adversarial
    /// for rings, mild on meshes. Extension beyond the paper.
    Tornado,
    /// Node `(x, y)` sends to its east neighbor `((x+1) mod cols, y)`.
    /// Extension beyond the paper.
    Neighbor,
    /// With probability `fraction`, send to one of `spots`; otherwise
    /// uniformly random. Extension beyond the paper.
    Hotspot {
        /// Probability of targeting a hotspot.
        fraction: f64,
        /// Hotspot destinations.
        spots: Vec<NodeId>,
    },
}

impl SyntheticPattern {
    /// Short name used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            SyntheticPattern::UniformRandom => "UR",
            SyntheticPattern::BitComplement => "BC",
            SyntheticPattern::Transpose => "BP",
            SyntheticPattern::Tornado => "TOR",
            SyntheticPattern::Neighbor => "NBR",
            SyntheticPattern::Hotspot { .. } => "HOT",
        }
    }

    /// Picks the destination for a packet from `src`.
    fn destination(&self, src: usize, cols: usize, rows: usize, rng: &mut Pcg32) -> usize {
        let n = cols * rows;
        let uniform_other = |rng: &mut Pcg32| {
            let mut d = rng.next_index(n - 1);
            if d >= src {
                d += 1;
            }
            d
        };
        match self {
            SyntheticPattern::UniformRandom => uniform_other(rng),
            SyntheticPattern::BitComplement => {
                let (x, y) = (src % cols, src / cols);
                (rows - 1 - y) * cols + (cols - 1 - x)
            }
            SyntheticPattern::Transpose => {
                let (x, y) = (src % cols, src / cols);
                if x == y {
                    uniform_other(rng)
                } else {
                    x * cols + y
                }
            }
            SyntheticPattern::Tornado => {
                let (x, y) = (src % cols, src / cols);
                let dx = (x + cols.div_ceil(2) - 1) % cols;
                if dx == x {
                    uniform_other(rng)
                } else {
                    y * cols + dx
                }
            }
            SyntheticPattern::Neighbor => {
                let (x, y) = (src % cols, src / cols);
                y * cols + (x + 1) % cols
            }
            SyntheticPattern::Hotspot { fraction, spots } => {
                if !spots.is_empty() && rng.next_bool(*fraction) {
                    let d = spots[rng.next_index(spots.len())].index();
                    if d == src {
                        uniform_other(rng)
                    } else {
                        d
                    }
                } else {
                    uniform_other(rng)
                }
            }
        }
    }
}

/// An open-loop synthetic workload over a `cols × rows` logical node grid.
#[derive(Clone, Debug)]
pub struct SyntheticTraffic {
    pattern: SyntheticPattern,
    cols: usize,
    rows: usize,
    packet_len: u16,
    // The per-node, per-cycle packet-start decision, prepared once.
    start: Bernoulli,
    rng: Pcg32,
    name: String,
    // Fast-forward lookahead state (`TrafficModel::next_injection_cycle`).
    // The lookahead answers by actually drawing future cycles with the same
    // RNG calls `generate` would make, so the consumed random stream — and
    // therefore every emitted request — is identical whether or not the
    // query is used. Cycles `< advanced_to` have had their draws consumed;
    // `pending` holds the requests drawn for cycle `pending_cycle`, replayed
    // when `generate(pending_cycle)` is eventually called.
    pending: Vec<PacketRequest>,
    pending_cycle: u64,
    advanced_to: u64,
}

impl SyntheticTraffic {
    /// Creates a synthetic workload.
    ///
    /// `offered_load` is in flits/node/cycle; with `packet_len`-flit packets
    /// each node starts a packet with probability `offered_load / packet_len`
    /// per cycle.
    ///
    /// # Panics
    ///
    /// Panics if a dimension or `packet_len` is zero, if `offered_load` is
    /// not in `(0, 1]`, if the grid has fewer than two nodes, or if
    /// [`SyntheticPattern::Transpose`] is used on a non-square grid.
    pub fn new(
        pattern: SyntheticPattern,
        cols: usize,
        rows: usize,
        packet_len: u16,
        offered_load: f64,
        seed: u64,
    ) -> Self {
        assert!(cols > 0 && rows > 0, "grid dimensions must be nonzero");
        assert!(cols * rows >= 2, "need at least two nodes");
        assert!(packet_len >= 1, "packets must have at least one flit");
        assert!(
            offered_load > 0.0 && offered_load <= 1.0,
            "offered load must be in (0, 1] flits/node/cycle"
        );
        if matches!(pattern, SyntheticPattern::Transpose) {
            assert_eq!(cols, rows, "transpose requires a square grid");
        }
        let name = format!("{}@{:.2}", pattern.label(), offered_load);
        Self {
            pattern,
            cols,
            rows,
            packet_len,
            start: Bernoulli::new(offered_load / packet_len as f64),
            rng: Pcg32::seed_with_stream(seed, 0x7ea),
            name,
            pending: Vec::new(),
            pending_cycle: 0,
            advanced_to: 0,
        }
    }

    /// Performs the per-cycle Bernoulli/destination draws for one cycle, in
    /// ascending node order — the single source of the RNG call sequence for
    /// both `generate` and the fast-forward lookahead.
    fn draw_cycle(&mut self, sink: &mut dyn FnMut(PacketRequest)) {
        for src in 0..self.num_nodes() {
            if self.rng.next_bernoulli(self.start) {
                let dst = self
                    .pattern
                    .destination(src, self.cols, self.rows, &mut self.rng);
                debug_assert_ne!(dst, src, "synthetic pattern self-send");
                sink(PacketRequest {
                    src: NodeId::new(src),
                    dst: NodeId::new(dst),
                    len: self.packet_len,
                    class: PacketClass::Data,
                });
            }
        }
    }

    /// The pattern in use.
    pub fn pattern(&self) -> &SyntheticPattern {
        &self.pattern
    }

    /// Number of nodes on the grid.
    pub fn num_nodes(&self) -> usize {
        self.cols * self.rows
    }
}

impl TrafficModel for SyntheticTraffic {
    fn name(&self) -> &str {
        &self.name
    }

    fn generate(&mut self, cycle: u64, sink: &mut dyn FnMut(PacketRequest)) {
        if cycle < self.advanced_to {
            // The lookahead already drew this cycle: replay its (possibly
            // empty) result without touching the RNG again.
            if cycle == self.pending_cycle {
                for r in self.pending.drain(..) {
                    sink(r);
                }
            }
            return;
        }
        self.advanced_to = cycle + 1;
        self.draw_cycle(sink);
    }

    fn next_injection_cycle(&mut self, from: u64, horizon: u64) -> Option<u64> {
        if !self.pending.is_empty() {
            return Some(self.pending_cycle.clamp(from, horizon));
        }
        let mut t = self.advanced_to.max(from);
        while t < horizon {
            let mut pending = std::mem::take(&mut self.pending);
            self.draw_cycle(&mut |r| pending.push(r));
            self.pending = pending;
            self.advanced_to = t + 1;
            if !self.pending.is_empty() {
                self.pending_cycle = t;
                return Some(t);
            }
            t += 1;
        }
        Some(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(traffic: &mut SyntheticTraffic, cycles: u64) -> Vec<PacketRequest> {
        let mut out = Vec::new();
        for c in 0..cycles {
            traffic.generate(c, &mut |r| out.push(r));
        }
        out
    }

    #[test]
    fn offered_load_is_calibrated() {
        let mut t = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 5, 0.4, 1);
        let cycles = 20_000u64;
        let reqs = collect(&mut t, cycles);
        let flits: u64 = reqs.iter().map(|r| r.len as u64).sum();
        let load = flits as f64 / (cycles as f64 * 64.0);
        assert!((load - 0.4).abs() < 0.02, "measured load {load}");
    }

    #[test]
    fn uniform_never_self_sends_and_covers_nodes() {
        let mut t = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 4, 4, 1, 0.5, 2);
        let reqs = collect(&mut t, 5000);
        assert!(reqs.iter().all(|r| r.src != r.dst));
        let dsts: std::collections::HashSet<_> = reqs.iter().map(|r| r.dst).collect();
        assert_eq!(dsts.len(), 16, "every node should be a destination");
    }

    #[test]
    fn bit_complement_is_the_coordinate_complement() {
        let p = SyntheticPattern::BitComplement;
        let mut rng = Pcg32::seed_from_u64(0);
        // Node (0,0) on 4x4 -> (3,3) = 15; node (1,2)=9 -> (2,1)=6.
        assert_eq!(p.destination(0, 4, 4, &mut rng), 15);
        assert_eq!(p.destination(9, 4, 4, &mut rng), 6);
    }

    #[test]
    fn transpose_swaps_coordinates_and_diagonal_randomizes() {
        let p = SyntheticPattern::Transpose;
        let mut rng = Pcg32::seed_from_u64(0);
        // (1,0)=1 -> (0,1)=4.
        assert_eq!(p.destination(1, 4, 4, &mut rng), 4);
        // Diagonal node (2,2)=10 must not self-send.
        for _ in 0..100 {
            assert_ne!(p.destination(10, 4, 4, &mut rng), 10);
        }
    }

    #[test]
    fn bit_complement_has_longer_distance_than_uniform() {
        // Average Manhattan distance: BC = cols-1+rows-1 ... per-node constant
        // complement; sanity-check it exceeds the uniform average (~2/3 * k).
        let bc = SyntheticPattern::BitComplement;
        let mut rng = Pcg32::seed_from_u64(3);
        let dist = |a: usize, b: usize| {
            let (ax, ay) = (a % 8, a / 8);
            let (bx, by) = (b % 8, b / 8);
            (ax.abs_diff(bx) + ay.abs_diff(by)) as f64
        };
        let bc_avg: f64 = (0..64)
            .map(|s| dist(s, bc.destination(s, 8, 8, &mut rng)))
            .sum::<f64>()
            / 64.0;
        let ur = SyntheticPattern::UniformRandom;
        let ur_avg: f64 = (0..64)
            .flat_map(|s| (0..20).map(move |_| s))
            .map(|s| {
                let mut r = Pcg32::seed_from_u64(s as u64 + 99);
                dist(s, ur.destination(s, 8, 8, &mut r))
            })
            .sum::<f64>()
            / (64.0 * 20.0);
        assert!(bc_avg > ur_avg, "bc={bc_avg} ur={ur_avg}");
    }

    #[test]
    fn tornado_and_neighbor_stay_in_row() {
        let mut rng = Pcg32::seed_from_u64(4);
        for src in 0..32usize {
            let d1 = SyntheticPattern::Tornado.destination(src, 8, 4, &mut rng);
            let d2 = SyntheticPattern::Neighbor.destination(src, 8, 4, &mut rng);
            assert_eq!(d1 / 8, src / 8, "tornado stays in row");
            assert_eq!(d2 / 8, src / 8, "neighbor stays in row");
            assert_ne!(d2, src);
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let spots = vec![NodeId::new(0)];
        let mut t = SyntheticTraffic::new(
            SyntheticPattern::Hotspot {
                fraction: 0.5,
                spots,
            },
            4,
            4,
            1,
            0.5,
            7,
        );
        let reqs = collect(&mut t, 4000);
        let to_spot = reqs.iter().filter(|r| r.dst == NodeId::new(0)).count();
        let frac = to_spot as f64 / reqs.len() as f64;
        assert!(frac > 0.4, "hotspot fraction {frac}");
    }

    #[test]
    fn determinism_by_seed() {
        let mut a = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 4, 4, 3, 0.2, 42);
        let mut b = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 4, 4, 3, 0.2, 42);
        assert_eq!(collect(&mut a, 500), collect(&mut b, 500));
    }

    #[test]
    #[should_panic(expected = "square")]
    fn transpose_rejects_non_square() {
        let _ = SyntheticTraffic::new(SyntheticPattern::Transpose, 4, 2, 1, 0.1, 0);
    }

    #[test]
    #[should_panic(expected = "offered load")]
    fn zero_load_rejected() {
        let _ = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 4, 4, 1, 0.0, 0);
    }

    #[test]
    fn lookahead_preserves_the_request_stream() {
        // Interleaving next_injection_cycle queries with generate must yield
        // exactly the stream a plain per-cycle generate loop yields: the
        // lookahead consumes the same RNG draws in the same order and
        // replays its buffered requests.
        let mut plain = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 4, 4, 3, 0.02, 11);
        let mut skipping = plain.clone();
        let reference = collect(&mut plain, 2_000);

        let mut seen = Vec::new();
        let mut cycle = 0u64;
        while cycle < 2_000 {
            let t = skipping
                .next_injection_cycle(cycle, 2_000)
                .expect("synthetic traffic always predicts");
            assert!(t >= cycle && t <= 2_000, "lookahead out of range: {t}");
            // Skip straight to t without calling generate for [cycle, t).
            cycle = t;
            if cycle >= 2_000 {
                break;
            }
            skipping.generate(cycle, &mut |r| seen.push(r));
            cycle += 1;
        }
        assert_eq!(seen, reference);
    }

    #[test]
    fn generate_after_partial_lookahead_replays_drawn_cycles() {
        // When the engine does NOT skip (e.g. the network was busy), the
        // cycles the lookahead pre-drew must still replay correctly through
        // per-cycle generate calls.
        let mut plain = SyntheticTraffic::new(SyntheticPattern::Transpose, 4, 4, 2, 0.05, 3);
        let mut peeked = plain.clone();
        let reference = collect(&mut plain, 500);

        let _ = peeked.next_injection_cycle(0, 500);
        let mut seen = Vec::new();
        for c in 0..500 {
            peeked.generate(c, &mut |r| seen.push(r));
            if c == 100 {
                // Query again mid-run; must not disturb the stream.
                let _ = peeked.next_injection_cycle(101, 500);
            }
        }
        assert_eq!(seen, reference);
    }

    #[test]
    fn labels_are_paper_names() {
        assert_eq!(SyntheticPattern::UniformRandom.label(), "UR");
        assert_eq!(SyntheticPattern::BitComplement.label(), "BC");
        assert_eq!(SyntheticPattern::Transpose.label(), "BP");
    }
}
