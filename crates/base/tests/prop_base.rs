//! Property-based tests for the base types.

use noc_base::rng::Pcg32;
use noc_base::{FlitKind, NodeId, PacketClass, PacketDescriptor, PacketId, VcPartition};
use proptest::prelude::*;

proptest! {
    #[test]
    fn next_below_always_in_range(seed in any::<u64>(), bound in 1u32..10_000) {
        let mut rng = Pcg32::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    #[test]
    fn next_f64_unit_interval(seed in any::<u64>()) {
        let mut rng = Pcg32::seed_from_u64(seed);
        for _ in 0..64 {
            let v = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_preserves_multiset(seed in any::<u64>(), mut v in prop::collection::vec(0u32..100, 0..64)) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut sorted_before = v.clone();
        sorted_before.sort_unstable();
        rng.shuffle(&mut v);
        v.sort_unstable();
        prop_assert_eq!(v, sorted_before);
    }

    #[test]
    fn weighted_only_picks_positive(seed in any::<u64>(), weights in prop::collection::vec(0.0f64..10.0, 1..32)) {
        let mut rng = Pcg32::seed_from_u64(seed);
        if let Some(i) = rng.next_weighted(&weights) {
            prop_assert!(weights[i] > 0.0);
        } else {
            prop_assert!(weights.iter().all(|&w| w <= 0.0));
        }
    }

    #[test]
    fn streams_are_independent_of_each_other(seed in any::<u64>(), s1 in 0u64..1000, s2 in 0u64..1000) {
        prop_assume!(s1 != s2);
        let mut a = Pcg32::seed_with_stream(seed, s1);
        let mut b = Pcg32::seed_with_stream(seed, s2);
        let va: Vec<u32> = (0..32).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..32).map(|_| b.next_u32()).collect();
        prop_assert_ne!(va, vb);
    }

    #[test]
    fn flit_kinds_partition_every_packet(len in 1u16..64) {
        let desc = PacketDescriptor {
            id: PacketId::new(1),
            src: NodeId::new(0),
            dst: NodeId::new(1),
            len,
            class: PacketClass::Data,
            created_at: 0,
        };
        let mut heads = 0;
        let mut tails = 0;
        for seq in 0..len {
            let f = desc.flit(seq);
            if f.kind.is_head() {
                heads += 1;
                prop_assert_eq!(seq, 0);
            }
            if f.kind.is_tail() {
                tails += 1;
                prop_assert_eq!(seq, len - 1);
            }
            if len == 1 {
                prop_assert_eq!(f.kind, FlitKind::Single);
            }
        }
        prop_assert_eq!((heads, tails), (1, 1));
    }

    #[test]
    fn static_vc_stays_in_class(vcs_pow in 1u32..4, classes_pow in 0u32..2, dst in 0usize..4096) {
        let classes = 1u8 << classes_pow;
        let total = classes * (1u8 << vcs_pow);
        let p = VcPartition::new(total, classes);
        for class in 0..classes {
            let vc = p.static_vc(class, NodeId::new(dst));
            let range = p.class_range(class);
            prop_assert!(range.contains(&(vc.index() as u8)));
            prop_assert_eq!(p.class_of_vc(vc), class);
        }
    }
}

/// The decision `next_bool(p)` must reproduce: the original clamped `f64`
/// compare. No draw for `p ≥ 1` or `p ≤ 0`; NaN draws and compares false.
fn f64_oracle(rng: &mut Pcg32, p: f64) -> bool {
    if p >= 1.0 {
        return true;
    }
    if p <= 0.0 {
        return false;
    }
    rng.next_f64() < p
}

const TWO_POW_53: f64 = (1u64 << 53) as f64;

/// Probabilities across every class the integer threshold must get right.
fn probability() -> impl Strategy<Value = f64> {
    prop_oneof![
        // Uniform in [0, 1).
        0.0f64..1.0,
        // Exactly on a 53-bit draw boundary k·2⁻⁵³, and one ulp either side.
        (0u64..1 << 53, 0u8..3).prop_map(|(k, side)| {
            let p = k as f64 / TWO_POW_53;
            match side {
                0 => p.next_down(),
                1 => p,
                _ => p.next_up(),
            }
        }),
        // Subnormal.
        (1u64..1 << 52).prop_map(f64::from_bits),
        // At or beyond the clamped ends, including infinities and -0.0.
        prop_oneof![
            Just(1.0),
            Just(f64::INFINITY),
            Just(0.0),
            Just(-0.0),
            Just(f64::NEG_INFINITY),
            1.0f64..1e300,
            (0.0f64..1e300).prop_map(|x| -x),
        ],
        Just(f64::NAN),
        // Any bit pattern: every other NaN payload, huge and tiny values.
        any::<u64>().prop_map(f64::from_bits),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn next_bool_matches_the_f64_compare(seed in any::<u64>(), stream in any::<u64>(), p in probability()) {
        let mut fast = Pcg32::seed_with_stream(seed, stream);
        let mut oracle = fast.clone();
        for _ in 0..16 {
            prop_assert_eq!(fast.next_bool(p), f64_oracle(&mut oracle, p));
            prop_assert_eq!(&fast, &oracle);
        }
    }

    /// Thresholds that share the next draw's top 32 bits, so the second
    /// 32-bit output decides (a 2⁻³² event for a random `p`).
    #[test]
    fn next_bool_breaks_top_word_ties_exactly(
        seed in any::<u64>(),
        stream in any::<u64>(),
        offset in 0u64..9,
        side in 0u8..3,
    ) {
        let mut fast = Pcg32::seed_with_stream(seed, stream);
        let mut oracle = fast.clone();
        let draw = fast.clone().next_u64() >> 11;
        let k = (draw + offset).saturating_sub(4).clamp(1, (1 << 53) - 1);
        let p = k as f64 / TWO_POW_53;
        let p = match side {
            0 => p.next_down(),
            1 => p,
            _ => p.next_up(),
        };
        prop_assert_eq!(fast.next_bool(p), f64_oracle(&mut oracle, p));
        prop_assert_eq!(&fast, &oracle);
    }
}
