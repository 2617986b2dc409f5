//! A small, deterministic pseudo-random number generator.
//!
//! Cycle-accurate simulation experiments must be bit-for-bit reproducible: the
//! paper's figures are regenerated from fixed seeds, and the integration tests
//! assert exact latency numbers. Depending on an external RNG crate would tie
//! reproducibility to that crate's version, so the simulator core uses this
//! self-contained PCG-XSH-RR 64/32 generator (O'Neill, 2014) with a SplitMix64
//! seed sequencer for deriving independent per-component streams.

/// PCG-XSH-RR 64/32: 64-bit state, 32-bit output, period 2^64 per stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;
const PCG_DEFAULT_INC: u64 = 1442695040888963407;
/// `PCG_MULT²`: with `inc · (PCG_MULT + 1)`, one multiply-add jumps the LCG
/// two steps ahead, `s → (s·M + inc)·M + inc`.
const PCG_MULT_2: u64 = PCG_MULT.wrapping_mul(PCG_MULT);

/// The PCG-XSH-RR output function of one LCG state.
#[inline]
fn pcg_output(state: u64) -> u32 {
    let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
    let rot = (state >> 59) as u32;
    xorshifted.rotate_right(rot)
}

/// `2^53`, the scale of [`Pcg32::next_f64`]'s 53-bit draws.
const TWO_POW_53: f64 = (1u64 << 53) as f64;
/// Bits of a 53-bit draw that come from the second 32-bit output.
const LOW_BITS: u32 = 53 - 32;

/// A Bernoulli(`p`) decision prepared for [`Pcg32::next_bernoulli`]: the
/// integer threshold a 53-bit draw is compared against.
///
/// `next_f64() < p` compares `x · 2⁻⁵³` with `p` for a 53-bit integer `x`.
/// Scaling by a power of two is exact, so that is `x < p · 2⁵³`, and for an
/// integer `x` it is `x < ⌈p · 2⁵³⌉` — an integer compare against a threshold
/// that depends on `p` alone. Building it once per `p` (a workload's
/// injection probability, say) leaves the draw a multiply-add and a compare.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Bernoulli {
    // `⌈p · 2⁵³⌉` in `0..=2⁵³` for a `p` that draws; `ALWAYS`/`NEVER` for
    // the clamped ends, which draw nothing.
    threshold: u64,
}

impl Bernoulli {
    const ALWAYS: u64 = u64::MAX;
    const NEVER: u64 = u64::MAX - 1;

    /// Prepares the decision `next_f64() < p`, with `p ≥ 1` always true and
    /// `p ≤ 0` always false without a draw; a NaN `p` draws and is false.
    #[inline]
    pub fn new(p: f64) -> Self {
        let threshold = if p >= 1.0 {
            Self::ALWAYS
        } else if p <= 0.0 {
            Self::NEVER
        } else {
            // The ceiling by truncation and one compare: `f64::ceil` is a
            // libm call on baseline x86-64. Exact — `t < 2⁵³` converts to
            // `u64` and back without rounding; NaN truncates to 0.
            let t = p * TWO_POW_53;
            let floor = t as u64;
            floor + u64::from((floor as f64) < t)
        };
        Self { threshold }
    }
}

impl Pcg32 {
    /// Creates a generator from a 64-bit seed using the default stream.
    ///
    /// ```
    /// # use noc_base::rng::Pcg32;
    /// let mut a = Pcg32::seed_from_u64(1);
    /// let mut b = Pcg32::seed_from_u64(1);
    /// assert_eq!(a.next_u32(), b.next_u32());
    /// ```
    pub fn seed_from_u64(seed: u64) -> Self {
        Self::seed_with_stream(seed, 0)
    }

    /// Creates a generator on an independent stream. Two generators with the
    /// same seed but different streams produce uncorrelated sequences, which
    /// is how per-router and per-network-interface generators are derived from
    /// one experiment seed.
    pub fn seed_with_stream(seed: u64, stream: u64) -> Self {
        let inc = (splitmix64(stream ^ 0x9e3779b97f4a7c15).wrapping_add(PCG_DEFAULT_INC)) | 1;
        let mut rng = Self { state: 0, inc };
        rng.state = rng.state.wrapping_mul(PCG_MULT).wrapping_add(rng.inc);
        rng.state = rng.state.wrapping_add(splitmix64(seed));
        rng.state = rng.state.wrapping_mul(PCG_MULT).wrapping_add(rng.inc);
        rng
    }

    /// Returns the next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        pcg_output(old)
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        (self.next_u32() as u64) << 32 | self.next_u32() as u64
    }

    /// Returns a uniform value in `[0, bound)` using Lemire's unbiased
    /// multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be nonzero");
        let mut x = self.next_u32();
        let mut m = (x as u64) * (bound as u64);
        let mut low = m as u32;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u32();
                m = (x as u64) * (bound as u64);
                low = m as u32;
            }
        }
        (m >> 32) as u32
    }

    /// Returns a uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero or exceeds `u32::MAX`.
    #[inline]
    pub fn next_index(&mut self, bound: usize) -> usize {
        assert!(bound <= u32::MAX as usize, "bound too large");
        self.next_below(bound as u32) as usize
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`): the
    /// decision `next_f64() < p`, drawn only for `0 < p < 1` (and NaN, which
    /// is false), through [`next_bernoulli`](Self::next_bernoulli).
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_bernoulli(Bernoulli::new(p))
    }

    /// Draws a prepared Bernoulli decision. Same decision and same
    /// generator state afterwards as `next_f64() < p`, but cheaper: the two
    /// LCG steps of the 53-bit draw are one jump-ahead multiply-add, and the
    /// first 32-bit output — the draw's top 32 bits — decides alone unless
    /// it equals the threshold's top 32 bits (probability 2⁻³²), when the
    /// second output breaks the tie.
    #[inline]
    pub fn next_bernoulli(&mut self, b: Bernoulli) -> bool {
        match b.threshold {
            Bernoulli::ALWAYS => return true,
            Bernoulli::NEVER => return false,
            _ => {}
        }
        let old = self.state;
        self.state = old
            .wrapping_mul(PCG_MULT_2)
            .wrapping_add(self.inc.wrapping_mul(PCG_MULT.wrapping_add(1)));
        let high = u64::from(pcg_output(old));
        let threshold_high = b.threshold >> LOW_BITS;
        if high != threshold_high {
            return high < threshold_high;
        }
        let low = pcg_output(old.wrapping_mul(PCG_MULT).wrapping_add(self.inc)) >> (32 - LOW_BITS);
        u64::from(low) < b.threshold & ((1 << LOW_BITS) - 1)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples an index from a discrete distribution given by non-negative
    /// weights. Returns `None` when all weights are zero or the slice is
    /// empty.
    pub fn next_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|&w| w > 0.0)
    }
}

/// Splits one experiment seed into decorrelated per-component seed streams.
///
/// Every generator in a simulation is derived from a single experiment seed
/// through this splitter, so component seeds are a pure function of
/// `(root seed, component kind, component index)` — independent of
/// construction order, shard layout, and thread count. The derivation
/// formulas are frozen: changing them would re-seed every component and
/// invalidate the golden reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedStream {
    root: u64,
}

impl SeedStream {
    /// Creates a splitter over one experiment root seed.
    pub fn new(root: u64) -> Self {
        Self { root }
    }

    /// The root seed this splitter derives from.
    pub fn root(self) -> u64 {
        self.root
    }

    /// The seed for router `index`.
    pub fn router(self, index: usize) -> u64 {
        splitmix64(self.root ^ (index as u64).wrapping_mul(0x9e37))
    }

    /// The seed for the network interface at node `index`.
    pub fn interface(self, index: usize) -> u64 {
        splitmix64(self.root ^ 0xabcd ^ ((index as u64) << 17))
    }

    /// An independent generator for execution shard `index`.
    ///
    /// Shard streams exist for engine-internal randomized decisions (for
    /// example tie-breaking in future schedulers) that must not perturb the
    /// router/interface streams; they are keyed by shard index so resharding
    /// with a different thread count yields streams from the same family.
    pub fn shard_rng(self, index: usize) -> Pcg32 {
        Pcg32::seed_with_stream(
            splitmix64(self.root ^ 0x5a4d ^ (index as u64).wrapping_mul(0xc2b2_ae3d)),
            0x70 ^ index as u64,
        )
    }
}

/// SplitMix64 finalizer — used to decorrelate seeds and streams.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Pcg32::seed_from_u64(123);
        let mut b = Pcg32::seed_from_u64(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_differ() {
        let mut a = Pcg32::seed_with_stream(1, 0);
        let mut b = Pcg32::seed_with_stream(1, 1);
        let same = (0..100).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(
            same < 3,
            "streams should be decorrelated, {same} collisions"
        );
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = Pcg32::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn next_f64_is_unit_interval() {
        let mut rng = Pcg32::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_bool_extremes() {
        let mut rng = Pcg32::seed_from_u64(1);
        assert!(rng.next_bool(1.0));
        assert!(!rng.next_bool(0.0));
        assert!(rng.next_bool(2.0));
        assert!(!rng.next_bool(-1.0));
    }

    #[test]
    fn next_bool_mean_is_close() {
        let mut rng = Pcg32::seed_from_u64(2);
        let hits = (0..100_000).filter(|_| rng.next_bool(0.3)).count();
        let mean = hits as f64 / 100_000.0;
        assert!((mean - 0.3).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg32::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_respects_zero_weights() {
        let mut rng = Pcg32::seed_from_u64(4);
        for _ in 0..1000 {
            let i = rng.next_weighted(&[0.0, 1.0, 0.0, 2.0]).unwrap();
            assert!(i == 1 || i == 3);
        }
        assert_eq!(rng.next_weighted(&[]), None);
        assert_eq!(rng.next_weighted(&[0.0, 0.0]), None);
    }

    #[test]
    fn weighted_distribution_roughly_matches() {
        let mut rng = Pcg32::seed_from_u64(5);
        let mut counts = [0usize; 2];
        for _ in 0..30_000 {
            counts[rng.next_weighted(&[1.0, 3.0]).unwrap()] += 1;
        }
        let frac = counts[1] as f64 / 30_000.0;
        assert!((frac - 0.75).abs() < 0.02, "frac={frac}");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn next_below_zero_panics() {
        Pcg32::seed_from_u64(0).next_below(0);
    }

    #[test]
    fn seed_stream_matches_frozen_formulas() {
        // These derivations feed the golden reports; they must never change.
        let s = SeedStream::new(0x5eed);
        assert_eq!(s.router(7), splitmix64(0x5eed ^ 7u64.wrapping_mul(0x9e37)));
        assert_eq!(s.interface(3), splitmix64(0x5eed ^ 0xabcd ^ (3u64 << 17)));
        assert_eq!(s.root(), 0x5eed);
    }

    #[test]
    fn seed_stream_components_are_decorrelated() {
        let s = SeedStream::new(1);
        let mut seeds: Vec<u64> = (0..64).map(|i| s.router(i)).collect();
        seeds.extend((0..64).map(|i| s.interface(i)));
        let len = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), len, "derived seeds should be distinct");
        let mut a = s.shard_rng(0);
        let mut b = s.shard_rng(1);
        let same = (0..100).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 3, "shard streams should differ, {same} collisions");
    }

    #[test]
    fn splitmix_changes_input() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
