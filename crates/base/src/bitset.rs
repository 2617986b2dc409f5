//! Word-packed bitsets and the bit-parallel round-robin arbiter.
//!
//! Masks are arrays of `u64` words, bit `i` living in word `i / 64`. The
//! pipeline kernel (`noc_sim::pipeline`) keeps its VA/SA candidate and
//! request masks as flat word storage — single masks as a `Vec<u64>`, one
//! mask per port as a [`MaskRows`] — and edits them through the slice
//! helpers here ([`set_bit`], [`assign_bit`], [`any_bit`], …). On a router
//! whose masks fit 64 positions every mask is one word, so a scan or grant
//! reads one `u64` out of a contiguous array; wider routers use the same
//! code over more words. [`WordMask`] wraps one such array with its width for
//! the engine's activity worklists.
//!
//! [`BitArbiter::grant`] is a masked `trailing_zeros` scan over request
//! words. It is grant-for-grant and pointer-for-pointer identical to a
//! scalar round-robin arbiter walking a `&[bool]` request vector; the scalar
//! reference lives in the property test that checks this
//! (`crates/sim/tests/prop_blocks.rs`).

/// Bits per storage word.
const WORD_BITS: usize = u64::BITS as usize;

/// Number of words a mask over `bits` positions occupies: `ceil(bits / 64)`,
/// and at least one, so even a zero-width mask has a word to read.
#[inline]
pub const fn words_for(bits: usize) -> usize {
    if bits == 0 {
        1
    } else {
        bits.div_ceil(WORD_BITS)
    }
}

/// Sets bit `bit` of the mask stored in `words`.
#[inline]
pub fn set_bit(words: &mut [u64], bit: usize) {
    words[bit / WORD_BITS] |= 1u64 << (bit % WORD_BITS);
}

/// Clears bit `bit` of the mask stored in `words`.
#[inline]
pub fn clear_bit(words: &mut [u64], bit: usize) {
    words[bit / WORD_BITS] &= !(1u64 << (bit % WORD_BITS));
}

/// Sets or clears bit `bit` of the mask stored in `words`.
#[inline]
pub fn assign_bit(words: &mut [u64], bit: usize, value: bool) {
    let word = &mut words[bit / WORD_BITS];
    let mask = 1u64 << (bit % WORD_BITS);
    if value {
        *word |= mask;
    } else {
        *word &= !mask;
    }
}

/// Whether bit `bit` of the mask stored in `words` is set.
#[inline]
pub fn test_bit(words: &[u64], bit: usize) -> bool {
    words[bit / WORD_BITS] & (1u64 << (bit % WORD_BITS)) != 0
}

/// Clears every bit of the mask stored in `words`. A one-word mask is a
/// single store; a slice fill would be a `memset` call.
#[inline]
pub fn clear_words(words: &mut [u64]) {
    if let [word] = words {
        *word = 0;
    } else {
        words.fill(0);
    }
}

/// Whether any bit of the mask stored in `words` is set.
#[inline]
pub fn any_bit(words: &[u64]) -> bool {
    words.iter().any(|&w| w != 0)
}

/// `rows` masks of equal width stored back to back in one flat word array.
///
/// Row `r` is words `r * stride .. (r + 1) * stride`, with
/// `stride = words_for(bits)`; when every row fits one word the stride is 1
/// and row `r` is the single word `r`. The kernel keeps one row per port, so
/// a per-port mask is an offset into one allocation rather than a
/// heap-backed mask of its own.
#[derive(Clone, Debug, Default)]
pub struct MaskRows {
    words: Vec<u64>,
    stride: usize,
}

impl MaskRows {
    /// Creates `rows` all-clear masks over `bits` positions each.
    pub fn new(rows: usize, bits: usize) -> Self {
        let stride = words_for(bits);
        Self {
            words: vec![0; rows * stride],
            stride,
        }
    }

    /// The words of row `r`.
    ///
    /// A one-word row is returned through its own branch, so once this is
    /// inlined the caller sees a slice of length 1 and its word loops,
    /// [`BitArbiter::grant`]'s one-word path and [`clear_words`] fold to
    /// single-word code.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        if self.stride == 1 {
            std::slice::from_ref(&self.words[r])
        } else {
            &self.words[r * self.stride..(r + 1) * self.stride]
        }
    }

    /// The words of row `r`, mutably (one-word rows as in [`row`](Self::row)).
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        if self.stride == 1 {
            std::slice::from_mut(&mut self.words[r])
        } else {
            &mut self.words[r * self.stride..(r + 1) * self.stride]
        }
    }
}

/// A fixed-size bitset packed into `u64` words.
///
/// Construction allocates the word storage once; every other operation is
/// allocation-free, so masks embedded in engine state preserve the
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
            words: vec![0; words_for(bits)],
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
        set_bit(&mut self.words, bit);
    }

    /// Sets or clears bit `bit`.
    #[inline]
    pub fn assign(&mut self, bit: usize, value: bool) {
        self.check(bit);
        assign_bit(&mut self.words, bit, value);
    }

    /// Whether bit `bit` is set.
    #[inline]
    pub fn get(&self, bit: usize) -> bool {
        self.check(bit);
        test_bit(&self.words, bit)
    }

    /// Clears every bit.
    #[inline]
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Whether any bit is set.
    #[inline]
    pub fn any(&self) -> bool {
        any_bit(&self.words)
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

/// A work-conserving round-robin arbiter over `n` requesters whose request
/// vector is a word-packed mask.
///
/// The grant is the first requesting index at or after the rotating-priority
/// pointer, wrapping once; the pointer then moves one past the winner. An
/// all-clear request mask returns `None` and leaves the pointer untouched.
/// The per-requester scan of a scalar arbiter becomes at most one pass over
/// the request words (mask below the pointer + count trailing zeros), and a
/// single `u64` rotate-and-scan when `n ≤ 64`.
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

    /// Grants one of the requesting indices — the set bits of the
    /// `words_for(n)`-word mask `requests` — rotating priority so the winner
    /// moves to lowest priority. A one-word mask takes
    /// [`grant_word`](Self::grant_word)'s path.
    #[inline]
    pub fn grant(&mut self, requests: &[u64]) -> Option<usize> {
        debug_assert_eq!(
            requests.len(),
            words_for(self.n),
            "request mask width mismatch"
        );
        if let [word] = *requests {
            return self.grant_word(word);
        }
        let start = self.next / WORD_BITS;
        // The pointer's own word, bits below the pointer masked off; then
        // the words above it; then, wrapping, every word up to and including
        // the pointer's (whose bits at or after the pointer were just seen
        // clear, so a hit there lies below the pointer).
        let mut word = requests[start] & (!0u64 << (self.next % WORD_BITS));
        let mut wi = start;
        while word == 0 {
            wi += 1;
            if wi == requests.len() {
                wi = 0;
            }
            word = requests[wi];
            if wi == start {
                if word == 0 {
                    return None;
                }
                break;
            }
        }
        Some(self.take(wi * WORD_BITS + word.trailing_zeros() as usize))
    }

    /// [`grant`](Self::grant) for an arbiter over at most 64 requesters,
    /// whose whole request mask is the single word `requests`.
    #[inline]
    pub fn grant_word(&mut self, requests: u64) -> Option<usize> {
        debug_assert!(
            self.n <= WORD_BITS,
            "{} requesters need more than one word",
            self.n
        );
        if requests == 0 {
            return None;
        }
        // `next < n ≤ 64`, so the shift is in range.
        let at_or_after = requests & (!0u64 << self.next);
        let winner = if at_or_after != 0 {
            at_or_after.trailing_zeros()
        } else {
            requests.trailing_zeros()
        };
        Some(self.take(winner as usize))
    }

    /// Moves the pointer one past `winner` and returns it.
    #[inline]
    fn take(&mut self, winner: usize) -> usize {
        debug_assert!(
            winner < self.n,
            "request bit {winner} out of range {}",
            self.n
        );
        self.next = if winner + 1 == self.n { 0 } else { winner + 1 };
        winner
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
        assert_eq!(m.iter().count(), 8);
        m.assign(64, false);
        assert!(!m.get(64));
        assert_eq!(m.iter().count(), 7);
        m.assign(64, true);
        m.assign(63, false);
        assert!(m.get(64) && !m.get(63));
        assert_eq!(m.words.len(), 3);
    }

    #[test]
    fn words_for_rounds_up_and_never_returns_zero() {
        assert_eq!(words_for(0), 1);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
    }

    #[test]
    fn mask_rows_are_disjoint_word_ranges() {
        for bits in [5, 64, 65, 130] {
            let mut rows = MaskRows::new(3, bits);
            assert_eq!(rows.row(2).len(), words_for(bits));
            set_bit(rows.row_mut(1), bits - 1);
            set_bit(rows.row_mut(1), 0);
            assert!(!any_bit(rows.row(0)) && !any_bit(rows.row(2)));
            assert!(test_bit(rows.row(1), bits - 1) && test_bit(rows.row(1), 0));
            assign_bit(rows.row_mut(1), 0, false);
            assert!(!test_bit(rows.row(1), 0));
            clear_bit(rows.row_mut(1), bits - 1);
            assert!(!any_bit(rows.row(1)));
            set_bit(rows.row_mut(0), bits - 1);
            clear_words(rows.row_mut(0));
            assert!(!any_bit(rows.row(0)));
        }
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
    fn clear_all_and_any() {
        let mut m = WordMask::new(66);
        assert!(!m.any());
        m.set(65);
        assert!(m.any());
        m.clear_all();
        assert!(!m.any());
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn zero_width_mask_is_inert() {
        let m = WordMask::new(0);
        assert!(m.is_empty());
        assert!(!m.any());
        assert_eq!(m.iter().next(), None);
    }

    #[test]
    fn arbiter_is_round_robin_fair() {
        let mut a = BitArbiter::new(3);
        let grants: Vec<usize> = (0..6).map(|_| a.grant_word(0b111).unwrap()).collect();
        assert_eq!(grants, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn arbiter_skips_idle_requesters_and_keeps_pointer_on_miss() {
        let mut a = BitArbiter::new(4);
        assert_eq!(a.grant(&[0b0100]), Some(2));
        assert_eq!(a.pointer(), 3);
        assert_eq!(
            a.grant(&[0b0101]),
            Some(0),
            "wraps past the rotated pointer"
        );
        let before = a.pointer();
        assert_eq!(a.grant(&[0]), None);
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
        assert_eq!(a.iter().count(), 3);
    }

    #[test]
    fn arbiter_wraps_to_lowest_index_at_word_scale() {
        let mut a = BitArbiter::new(130);
        let mut m = WordMask::new(130);
        m.set(5);
        m.set(129);
        assert_eq!(a.grant(&m.words), Some(5));
        assert_eq!(a.grant(&m.words), Some(129));
        assert_eq!(a.pointer(), 0, "(129 + 1) % 130 wraps to zero");
        assert_eq!(a.grant(&m.words), Some(5));
        // A lone requester below the pointer, in the pointer's own word.
        let mut lone = WordMask::new(130);
        lone.set(70);
        assert_eq!(a.grant(&lone.words), Some(70));
        assert_eq!(a.grant(&lone.words), Some(70), "found on the wrap pass");
        assert_eq!(a.grant(&WordMask::new(130).words), None);
        assert_eq!(a.pointer(), 71);
    }
}
