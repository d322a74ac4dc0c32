//! # kosr-index
//!
//! The query-time index layer of the paper (§IV): inverted label indexes and
//! the two neighbor-stream primitives every KOSR algorithm is built on.
//!
//! * [`InvertedLabelIndex`] / [`CategoryIndexSet`] — `IL(Ci)`: per-category,
//!   per-hub sorted inverted lists over the 2-hop labels, with the dynamic
//!   category updates of §IV-C.
//! * [`NearestNeighbors`] — the `FindNN` abstraction (Algorithm 3), provided
//!   by [`LabelNn`] (inverted-index streams) and [`DijkstraNn`] (the `*-Dij`
//!   baselines' resumable searches).
//! * [`NenFinder`] — `FindNEN` (Algorithm 4): nearest *estimated* neighbors
//!   ordered by `dis(v,u)` plus StarKOSR's [`Estimate`] at `u`.
//! * [`Estimate`] — what StarKOSR adds to a route's cost: the paper's
//!   `dis(·, t)` ([`ToTarget`]) or exact label potentials
//!   ([`LabelPotentials`], one backward pass over the query's categories).
//! * [`TargetDistance`] — fixed-destination oracles ([`LabelTarget`],
//!   [`DijkstraTarget`]) behind the A* estimation.
//! * [`disk`] — the SK-DB on-disk layout (per-category segments + offset
//!   directory standing in for the paper's B+-tree).
//! * [`bounds`] — the category-pair lower-bound tables behind
//!   [`SeqBounds`], built on demand ([`BoundTables`]) for the library
//!   searches that take bounds; no served path reads them.
//! * [`arena`] — the **flat-arena** shard snapshot: the whole index as
//!   offset-addressed slabs (including the inverted indexes), shipped to
//!   cold replicas by the transport layer; install is O(bytes) of
//!   bounds-checked reinterpretation instead of a rebuild.
//! * [`snapshot`] — the snapshot codec's typed refusals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod bounds;
pub mod disk;
mod inverted;
mod nen;
mod nn;
mod potential;
pub mod snapshot;
mod target;

pub use bounds::{BoundTables, CategoryBounds, SeqBounds};
pub use inverted::{CategoryIndexSet, HubList, InvertedLabelIndex, InvertedStats};
pub use nen::{EstimatedNeighbor, NenFinder};
pub use nn::{DijkstraNn, LabelNn, NearestNeighbors};
pub use potential::{Estimate, LabelPotentials, ToTarget};
pub use target::{DijkstraTarget, LabelTarget, TargetDistance};
