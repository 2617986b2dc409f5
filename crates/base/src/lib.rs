#![warn(missing_docs)]

//! Fundamental types shared by every crate in the pseudo-circuit workspace.
//!
//! This crate deliberately has no dependencies. It defines:
//!
//! - strongly-typed identifiers for nodes, routers, ports, virtual channels and
//!   packets ([`NodeId`], [`RouterId`], [`PortIndex`], [`VcIndex`], [`PacketId`]);
//! - the wire-level data units of the simulated network ([`Flit`], [`Credit`],
//!   [`PacketDescriptor`]);
//! - the slab-backed flit arena ([`arena::FlitPool`]) storing each in-flight
//!   flit exactly once, addressed everywhere by a 4-byte [`arena::FlitRef`]
//!   with per-shard free lists and debug-only generation tags;
//! - routing and virtual-channel allocation policy enums shared between the
//!   network interfaces and the routers ([`RouteMode`], [`RoutingPolicy`],
//!   [`VaPolicy`], [`VcPartition`]);
//! - word-packed bitsets and the bit-parallel round-robin arbiter built on
//!   them ([`bitset::MaskRows`], [`bitset::WordMask`], [`bitset::BitArbiter`])
//!   — the flat `u64` request and candidate masks of the router pipeline's
//!   hot path;
//! - a small deterministic PRNG ([`rng::Pcg32`]) plus a seed-stream splitter
//!   ([`rng::SeedStream`]) so that every experiment in the reproduction is
//!   bit-for-bit repeatable regardless of external crate versions;
//! - a persistent fork/join worker pool ([`pool::WorkerPool`]) shared by the
//!   multi-threaded cycle loop and the bench sweep scheduler, built on the
//!   park/wake and adaptive-spin primitives in [`sync`].
//!
//! # Example
//!
//! ```
//! use noc_base::{NodeId, RouteMode, rng::Pcg32};
//!
//! let src = NodeId::new(3);
//! let mut rng = Pcg32::seed_from_u64(42);
//! let mode = if rng.next_bool(0.5) { RouteMode::XY } else { RouteMode::YX };
//! assert!(mode == RouteMode::XY || mode == RouteMode::YX);
//! assert_eq!(src.index(), 3);
//! ```

pub mod arena;
pub mod bitset;
pub mod flit;
pub mod geom;
pub mod ids;
pub mod policy;
pub mod pool;
pub mod rng;
pub mod sync;

pub use arena::{FlitPool, FlitRef};
pub use bitset::{BitArbiter, MaskRows, WordMask};
pub use flit::{Credit, Flit, FlitKind, PacketClass, PacketDescriptor, RouteInfo};
pub use geom::Coord;
pub use ids::{NodeId, PacketId, PortIndex, RouterId, VcIndex};
pub use policy::{RouteMode, RoutingPolicy, VaPolicy, VcPartition};
