//! Word-packed bitsets and the bit-parallel round-robin arbiter.
//!
//! The pipeline kernel's hot path (`noc_sim::pipeline`) keeps its VA/SA
//! candidate sets as [`WordMask`]es maintained incrementally at state
//! transitions, and its arbiters as [`BitArbiter`]s whose grant is a masked
//! `trailing_zeros` scan instead of a per-element `&[bool]` walk. The scalar
//! [`RrArbiter`](https://docs.rs/..) in `noc_sim::blocks` remains the
//! behavioural reference: `BitArbiter::grant` is provably (and
//! property-tested to be) grant-for-grant identical to it, including the
//! rotating-priority pointer state.

/// Bits per storage word.
const WORD_BITS: usize = u64::BITS as usize;

/// A fixed-size bitset packed into `u64` words.
///
/// Construction allocates the word storage once; every other operation is
/// allocation-free, so masks embedded in router state preserve the engine's
/// zero-allocation steady state (`tests/zero_alloc.rs`).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct WordMask {
    words: Vec<u64>,
    bits: usize,
}

impl WordMask {
    /// Creates an all-clear mask over `bits` bit positions.
    pub fn new(bits: usize) -> Self {
        Self {
            words: vec![0; bits.div_ceil(WORD_BITS).max(1)],
            bits,
        }
    }

    /// Number of bit positions.
    pub fn len(&self) -> usize {
        self.bits
    }

    /// Whether the mask has zero bit positions (not whether it is all-clear;
    /// see [`WordMask::any`]).
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    #[inline]
    fn check(&self, bit: usize) {
        debug_assert!(bit < self.bits, "bit {bit} out of range {}", self.bits);
    }

    /// Sets bit `bit`.
    #[inline]
    pub fn set(&mut self, bit: usize) {
        self.check(bit);
        self.words[bit / WORD_BITS] |= 1u64 << (bit % WORD_BITS);
    }

    /// Clears bit `bit`.
    #[inline]
    pub fn clear(&mut self, bit: usize) {
        self.check(bit);
        self.words[bit / WORD_BITS] &= !(1u64 << (bit % WORD_BITS));
    }

    /// Sets or clears bit `bit`.
    #[inline]
    pub fn assign(&mut self, bit: usize, value: bool) {
        self.check(bit);
        let word = &mut self.words[bit / WORD_BITS];
        let mask = 1u64 << (bit % WORD_BITS);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Whether bit `bit` is set.
    #[inline]
    pub fn get(&self, bit: usize) -> bool {
        self.check(bit);
        self.words[bit / WORD_BITS] & (1u64 << (bit % WORD_BITS)) != 0
    }

    /// Clears every bit.
    #[inline]
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Whether any bit is set.
    #[inline]
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Number of set bits.
    #[inline]
    pub fn popcount(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// ORs `other` into `self` word-by-word. Both masks must have the same
    /// width — the sharded step loop unions per-shard destination masks into
    /// the global pending-shard mask, all sized to the shard count.
    #[inline]
    pub fn union_with(&mut self, other: &WordMask) {
        debug_assert_eq!(self.bits, other.bits, "union of differently-sized masks");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// The raw word at `index` (bits `index * 64 ..`). Lets callers iterate
    /// set bits from a *copied* word while mutating other state — the pattern
    /// the pipeline kernel's scans use to avoid holding a borrow of the mask.
    #[inline]
    pub fn word(&self, index: usize) -> u64 {
        self.words[index]
    }

    /// Number of storage words.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Index of the lowest set bit at or above `start`, if any.
    #[inline]
    pub fn first_set_from(&self, start: usize) -> Option<usize> {
        if start >= self.bits {
            return None;
        }
        let mut wi = start / WORD_BITS;
        // Mask off the bits below `start` in its own word.
        let mut word = self.words[wi] & (!0u64 << (start % WORD_BITS));
        loop {
            if word != 0 {
                return Some(wi * WORD_BITS + word.trailing_zeros() as usize);
            }
            wi += 1;
            if wi >= self.words.len() {
                return None;
            }
            word = self.words[wi];
        }
    }

    /// Visits the set bits in ascending order and clears each one for which
    /// `keep` returns `false` — the engine's worklist pass, where visiting a
    /// component and deciding whether it stays scheduled are one step.
    #[inline]
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (wi, word) in self.words.iter_mut().enumerate() {
            let mut rest = *word;
            while rest != 0 {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                if !keep(wi * WORD_BITS + bit as usize) {
                    *word &= !(1u64 << bit);
                }
            }
        }
    }

    /// Iterates the set bits in ascending order.
    pub fn iter(&self) -> SetBits<'_> {
        SetBits {
            mask: self,
            word: self.words[0],
            word_index: 0,
        }
    }
}

impl<'a> IntoIterator for &'a WordMask {
    type Item = usize;
    type IntoIter = SetBits<'a>;

    fn into_iter(self) -> SetBits<'a> {
        self.iter()
    }
}

/// Ascending iterator over the set bits of a [`WordMask`].
#[derive(Clone, Debug)]
pub struct SetBits<'a> {
    mask: &'a WordMask,
    word: u64,
    word_index: usize,
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.word_index += 1;
            if self.word_index >= self.mask.words.len() {
                return None;
            }
            self.word = self.mask.words[self.word_index];
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1; // strip lowest set bit
        Some(self.word_index * WORD_BITS + bit)
    }
}

/// A work-conserving round-robin arbiter over a [`WordMask`] request vector.
///
/// Semantics are identical to the scalar `RrArbiter` in `noc_sim::blocks`
/// (the retained reference implementation): the grant is the first requesting
/// index at or after the rotating-priority pointer, wrapping once; the
/// pointer then moves one past the winner. An all-clear request mask returns
/// `None` and leaves the pointer untouched. The linear scan is replaced by at
/// most two [`WordMask::first_set_from`] word walks (rotate + count trailing
/// zeros).
#[derive(Clone, Debug)]
pub struct BitArbiter {
    next: usize,
    n: usize,
}

impl BitArbiter {
    /// Creates an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one requester");
        Self { next: 0, n }
    }

    /// Grants one of the requesting indices (set bits of `requests`),
    /// rotating priority so the winner moves to lowest priority.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != n`.
    #[inline]
    pub fn grant(&mut self, requests: &WordMask) -> Option<usize> {
        assert_eq!(requests.len(), self.n, "request vector size mismatch");
        // First requester at or after the pointer, else wrap to the lowest
        // requester overall (which, when the first probe failed, is
        // necessarily below the pointer).
        let winner = requests
            .first_set_from(self.next)
            .or_else(|| requests.first_set_from(0))?;
        self.next = (winner + 1) % self.n;
        Some(winner)
    }

    /// Number of requesters.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; arbiters are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The rotating-priority pointer (exposed for equivalence tests).
    pub fn pointer(&self) -> usize {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_get_roundtrip_across_word_boundaries() {
        let mut m = WordMask::new(130);
        for bit in [0, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!m.get(bit));
            m.set(bit);
            assert!(m.get(bit));
        }
        assert_eq!(m.popcount(), 8);
        m.clear(64);
        assert!(!m.get(64));
        assert_eq!(m.popcount(), 7);
        m.assign(64, true);
        m.assign(63, false);
        assert!(m.get(64) && !m.get(63));
    }

    #[test]
    fn iter_yields_set_bits_ascending() {
        let mut m = WordMask::new(200);
        let bits = [3, 64, 65, 130, 199];
        for &b in &bits {
            m.set(b);
        }
        assert_eq!(m.iter().collect::<Vec<_>>(), bits);
        assert_eq!((&m).into_iter().count(), bits.len());
    }

    #[test]
    fn retain_visits_ascending_and_clears_rejected_bits() {
        let mut m = WordMask::new(200);
        let bits = [3, 63, 64, 130, 199];
        for &b in &bits {
            m.set(b);
        }
        let mut seen = Vec::new();
        m.retain(|b| {
            seen.push(b);
            b % 2 == 1
        });
        assert_eq!(seen, bits);
        assert_eq!(m.iter().collect::<Vec<_>>(), [3, 63, 199]);
    }

    #[test]
    fn first_set_from_handles_starts_and_wrapless_misses() {
        let mut m = WordMask::new(100);
        m.set(10);
        m.set(70);
        assert_eq!(m.first_set_from(0), Some(10));
        assert_eq!(m.first_set_from(10), Some(10));
        assert_eq!(m.first_set_from(11), Some(70));
        assert_eq!(m.first_set_from(70), Some(70));
        assert_eq!(m.first_set_from(71), None);
        assert_eq!(m.first_set_from(1000), None);
    }

    #[test]
    fn clear_all_and_any() {
        let mut m = WordMask::new(66);
        assert!(!m.any());
        m.set(65);
        assert!(m.any());
        m.clear_all();
        assert!(!m.any());
        assert_eq!(m.popcount(), 0);
    }

    #[test]
    fn zero_width_mask_is_inert() {
        let m = WordMask::new(0);
        assert!(m.is_empty());
        assert!(!m.any());
        assert_eq!(m.iter().next(), None);
        assert_eq!(m.first_set_from(0), None);
    }

    #[test]
    fn arbiter_is_round_robin_fair() {
        let mut a = BitArbiter::new(3);
        let mut all = WordMask::new(3);
        (0..3).for_each(|b| all.set(b));
        let grants: Vec<usize> = (0..6).map(|_| a.grant(&all).unwrap()).collect();
        assert_eq!(grants, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn arbiter_skips_idle_requesters_and_keeps_pointer_on_miss() {
        let mut a = BitArbiter::new(4);
        let mut m = WordMask::new(4);
        m.set(2);
        assert_eq!(a.grant(&m), Some(2));
        assert_eq!(a.pointer(), 3);
        m.set(0);
        assert_eq!(a.grant(&m), Some(0), "wraps past the rotated pointer");
        let empty = WordMask::new(4);
        let before = a.pointer();
        assert_eq!(a.grant(&empty), None);
        assert_eq!(a.pointer(), before, "no grant, no pointer movement");
    }

    #[test]
    fn union_with_ors_across_word_boundaries() {
        let mut a = WordMask::new(130);
        let mut b = WordMask::new(130);
        a.set(0);
        a.set(64);
        b.set(64);
        b.set(129);
        a.union_with(&b);
        let bits: Vec<usize> = a.iter().collect();
        assert_eq!(bits, vec![0, 64, 129]);
        // Union with an empty mask is a no-op.
        a.union_with(&WordMask::new(130));
        assert_eq!(a.popcount(), 3);
    }

    #[test]
    fn arbiter_wraps_to_lowest_index_at_word_scale() {
        let mut a = BitArbiter::new(130);
        let mut m = WordMask::new(130);
        m.set(5);
        m.set(129);
        assert_eq!(a.grant(&m), Some(5));
        assert_eq!(a.grant(&m), Some(129));
        assert_eq!(a.pointer(), 0, "(129 + 1) % 130 wraps to zero");
        assert_eq!(a.grant(&m), Some(5));
    }
}
