#![warn(missing_docs)]

//! **pseudo-circuit** — reproduction of *"Pseudo-Circuit: Accelerating
//! Communication for On-Chip Interconnection Networks"* (Ahn & Kim,
//! MICRO 2010).
//!
//! Packet-switched on-chip routers spend a pipeline stage on switch
//! arbitration (SA) at every hop. The paper observes that flits frequently
//! traverse the same input-port → output-port crossbar connection as a recent
//! predecessor (*communication temporal locality*) and proposes keeping the
//! connection configured after each traversal as a **pseudo-circuit**: a
//! later flit on the same input VC whose route matches simply flows through,
//! bypassing SA. Two aggressive extensions — **pseudo-circuit speculation**
//! (restore terminated circuits on idle outputs) and **buffer bypassing**
//! (skip the buffer-write stage through a write-through latch) — push per-hop
//! router delay from 3 cycles down to 1 on a hit.
//!
//! This crate provides:
//!
//! - [`PcRouter`] — a cycle-accurate speculative two-stage VC router
//!   (wormhole switching, credit-based flow control, lookahead routing)
//!   implementing all five configurations of the paper
//!   ([`Scheme::paper_lineup`]);
//! - [`PseudoCircuitUnit`] — the register/history state machine of §III–IV;
//! - [`CircuitPaths`] — the circuit termination, reuse, establishment and
//!   speculation paths over that unit, shared with the profiled-hybrid
//!   router;
//! - [`ExperimentBuilder`] — a high-level API assembling topology, traffic,
//!   scheme and policies into a runnable simulation.
//!
//! # Quickstart
//!
//! ```
//! use pseudo_circuit::{ExperimentBuilder, Scheme};
//! use noc_base::{RoutingPolicy, VaPolicy};
//! use noc_topology::Mesh;
//! use noc_traffic::{SyntheticPattern, SyntheticTraffic};
//! use std::sync::Arc;
//!
//! let topo = Arc::new(Mesh::new(4, 4, 1));
//! let make_traffic =
//!     || SyntheticTraffic::new(SyntheticPattern::UniformRandom, 4, 4, 5, 0.1, 7);
//!
//! let builder = ExperimentBuilder::new(topo)
//!     .routing(RoutingPolicy::Xy)
//!     .va_policy(VaPolicy::Static)
//!     .phases(200, 1_000, 5_000);
//!
//! let baseline = builder.clone().scheme(Scheme::baseline()).run(Box::new(make_traffic()));
//! let pseudo = builder.clone().scheme(Scheme::pseudo_ps_bb()).run(Box::new(make_traffic()));
//! assert!(pseudo.avg_latency <= baseline.avg_latency);
//! assert!(pseudo.reusability() > 0.0);
//! ```

pub mod circuits;
pub mod config;
pub mod experiment;
pub mod probe;
pub mod pseudo;
pub mod router;

pub use circuits::CircuitPaths;
pub use config::Scheme;
pub use experiment::ExperimentBuilder;
pub use probe::{Probe, RouterCounters};
pub use pseudo::{EstablishOutcome, PcRegisters, PseudoCircuitUnit, Termination};
pub use router::{PcRouter, PcRouterFactory};
