//! Property-based tests: the pseudo-circuit unit maintains its one-circuit-
//! per-port invariants under arbitrary operation sequences, and speculation
//! can only ever restore circuits consistent with the registers.

use noc_base::{PortIndex, VcIndex};
use proptest::prelude::*;
use pseudo_circuit::{PseudoCircuitUnit, Termination};

#[derive(Clone, Debug)]
enum Op {
    Establish { in_port: u8, vc: u8, out_port: u8 },
    Terminate { in_port: u8, credit: bool },
    Restore { out_port: u8 },
}

fn op_strategy(ports: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..ports, 0u8..4, 0..ports).prop_map(|(in_port, vc, out_port)| Op::Establish {
            in_port,
            vc,
            out_port
        }),
        (0..ports, any::<bool>()).prop_map(|(in_port, credit)| Op::Terminate { in_port, credit }),
        (0..ports).prop_map(|out_port| Op::Restore { out_port }),
    ]
}

proptest! {
    #[test]
    fn invariants_hold_under_arbitrary_operations(
        ports in 2u8..8,
        ops in prop::collection::vec(op_strategy(8), 1..200),
    ) {
        let mut unit = PseudoCircuitUnit::new(ports as usize, ports as usize);
        for op in ops {
            match op {
                Op::Establish { in_port, vc, out_port } => {
                    let in_port = in_port % ports;
                    let out_port = out_port % ports;
                    unit.establish(
                        PortIndex::new(in_port as usize),
                        VcIndex::new(vc as usize),
                        PortIndex::new(out_port as usize),
                        1,
                    );
                    // The established circuit is live and holds its output.
                    let live = unit.live(PortIndex::new(in_port as usize));
                    prop_assert!(live.is_some());
                    prop_assert_eq!(
                        unit.holder(PortIndex::new(out_port as usize)),
                        Some(PortIndex::new(in_port as usize))
                    );
                }
                Op::Terminate { in_port, credit } => {
                    let why = if credit {
                        Termination::CreditExhausted
                    } else {
                        Termination::Conflict
                    };
                    unit.terminate(PortIndex::new((in_port % ports) as usize), why);
                }
                Op::Restore { out_port } => {
                    let port = PortIndex::new((out_port % ports) as usize);
                    let before_history = unit.history(port);
                    let restored = unit.try_restore(port);
                    if restored {
                        // Restoration reconnects exactly the history input.
                        let h = before_history.expect("restore requires history");
                        let live = unit.live(h).expect("restored circuit is live");
                        prop_assert_eq!(live.out_port, port);
                        prop_assert_eq!(unit.holder(port), Some(h));
                    }
                }
            }
            if let Err(e) = unit.check_invariants() {
                prop_assert!(false, "invariant violated: {e}");
            }
        }
    }

    #[test]
    fn termination_counters_are_monotonic(
        ops in prop::collection::vec(op_strategy(4), 1..100),
    ) {
        let mut unit = PseudoCircuitUnit::new(4, 4);
        let mut last = (0, 0);
        for op in ops {
            match op {
                Op::Establish { in_port, vc, out_port } => {
                    let _ = unit.establish(
                        PortIndex::new((in_port % 4) as usize),
                        VcIndex::new(vc as usize),
                        PortIndex::new((out_port % 4) as usize),
                        1,
                    );
                }
                Op::Terminate { in_port, credit } => unit.terminate(
                    PortIndex::new((in_port % 4) as usize),
                    if credit {
                        Termination::CreditExhausted
                    } else {
                        Termination::Conflict
                    },
                ),
                Op::Restore { out_port } => {
                    let _ = unit.try_restore(PortIndex::new((out_port % 4) as usize));
                }
            }
            let now = (unit.terminations_conflict(), unit.terminations_credit());
            prop_assert!(now.0 >= last.0 && now.1 >= last.1);
            last = now;
        }
    }
}

/// The held and restorable port masks, recomputed from the registers through
/// the public accessors, bit for bit over every word (padding bits clear).
fn check_port_masks(unit: &PseudoCircuitUnit, out_ports: usize) -> Result<(), TestCaseError> {
    let bit = |words: &[u64], i: usize| words[i / 64] >> (i % 64) & 1 == 1;
    prop_assert_eq!(unit.held_ports().len(), out_ports.div_ceil(64));
    prop_assert_eq!(unit.restorable_ports().len(), out_ports.div_ceil(64));
    for o in 0..unit.held_ports().len() * 64 {
        let (held, restorable) = if o < out_ports {
            let port = PortIndex::new(o);
            let held = unit.holder(port).is_some();
            let restorable = !held
                && unit.history(port).is_some_and(|h| {
                    let reg = unit.registers(h);
                    !reg.valid && reg.out_port == port
                });
            (held, restorable)
        } else {
            (false, false)
        };
        prop_assert_eq!(bit(unit.held_ports(), o), held, "held bit {}", o);
        prop_assert_eq!(
            bit(unit.restorable_ports(), o),
            restorable,
            "restorable bit {}",
            o
        );
    }
    Ok(())
}

/// Port counts around the one-word edge, where a unit's masks span two words.
fn port_count() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..9,
        Just(63usize),
        Just(64usize),
        Just(65usize),
        60usize..71
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn port_masks_equal_their_definitions(
        in_ports in port_count(),
        out_ports in port_count(),
        ops in prop::collection::vec(op_strategy(u8::MAX), 1..300),
    ) {
        let mut unit = PseudoCircuitUnit::new(in_ports, out_ports);
        check_port_masks(&unit, out_ports)?;
        for op in ops {
            match op {
                Op::Establish { in_port, vc, out_port } => {
                    let _ = unit.establish(
                        PortIndex::new(in_port as usize % in_ports),
                        VcIndex::new(vc as usize),
                        PortIndex::new(out_port as usize % out_ports),
                        1,
                    );
                }
                Op::Terminate { in_port, credit } => unit.terminate(
                    PortIndex::new(in_port as usize % in_ports),
                    if credit {
                        Termination::CreditExhausted
                    } else {
                        Termination::Conflict
                    },
                ),
                Op::Restore { out_port } => {
                    let o = out_port as usize % out_ports;
                    let restorable = unit.restorable_ports()[o / 64] >> (o % 64) & 1 == 1;
                    prop_assert_eq!(unit.try_restore(PortIndex::new(o)), restorable);
                }
            }
            check_port_masks(&unit, out_ports)?;
            if let Err(e) = unit.check_invariants() {
                prop_assert!(false, "invariant violated: {e}");
            }
        }
    }
}
