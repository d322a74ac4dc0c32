//! # kosr-core
//!
//! The algorithms of *Finding Top-k Optimal Sequenced Routes* (Liu, Jin,
//! Yang, Zhou — ICDE 2018): given a source, a destination and an ordered
//! category sequence on a general directed weighted graph, enumerate the k
//! cheapest routes that visit one vertex per category in order.
//!
//! | item | paper | role |
//! |---|---|---|
//! | [`kpne`] | §III-B, Alg. 1 | baseline: PNE extended to top-k |
//! | [`pne`] | \[32\] | original OSR algorithm (k = 1) |
//! | [`pruning_kosr`] | §IV-A, Alg. 2 | dominance-based pruning |
//! | [`star_kosr`] | §IV-B | A*-style estimated-cost exploration |
//! | [`gsp`] | \[29\] | dynamic-programming OSR comparator |
//! | [`brute_force_topk`] | — | exhaustive testing oracle |
//! | [`IndexedGraph`] / [`Method`] | §V-A | one-call runner for all methods |
//! | [`run_sk_db`] | §IV-C | StarKOSR over the disk-resident index |
//! | [`no_source_kosr`], [`no_destination_kosr`], [`FilteredNn`] | §IV-C | query variants |
//! | [`arbitrary_order_osr`] | Table I gap / future work | any-order sequenced routes |
//! | [`figure1`] | Fig. 1 | the paper's running example as a fixture |
//!
//! ```
//! use kosr_core::{figure1, IndexedGraph, Method, Query};
//!
//! let fx = figure1::figure1();
//! let ig = IndexedGraph::build_default(fx.graph.clone());
//! let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
//! let out = ig.run(&q, Method::Sk);
//! assert_eq!(out.costs(), vec![20, 21, 22]); // Example 1 of the paper
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbitrary;
mod arena;
mod brute;
mod engine;
pub mod figure1;
mod gsp;
mod kpne;
mod pruning;
mod runner;
mod star;
mod types;
mod variants;

pub use arbitrary::{arbitrary_order_osr, arbitrary_order_topk, ArbitraryOrderStats};
pub use arena::{NodeId, RouteArena};
pub use brute::brute_force_topk;
pub use engine::{Clock, NoClock, WallClock};
pub use gsp::{gsp, GspEngine, GspStats};
pub use kpne::{kpne, kpne_bounded, pne};
pub use pruning::{pruning_kosr, pruning_kosr_bounded};
pub use runner::{run_sk_db, GraphUpdateError, IndexedGraph, Method};
pub use star::{star_kosr, star_kosr_bounded};
pub use types::{KosrOutcome, Query, QueryError, QueryStats, TimeBreakdown, Witness};
pub use variants::{no_destination_kosr, no_source_kosr, FilteredNn};
