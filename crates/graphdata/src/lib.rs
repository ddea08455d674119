//! # graphdata — graphs, generators, and I/O for the SSSP reproduction
//!
//! The paper evaluates on "real-world graphs collected by the Stanford
//! Network Analytics Platform (SNAP) and the GraphChallenge … symmetric and
//! undirected graphs with unit edge weights" (Sec. VI-A). Those datasets
//! are not redistributable here, so this crate provides:
//!
//! * [`EdgeList`] / [`CsrGraph`] — the graph containers every SSSP
//!   implementation consumes, plus conversion to a [`gblas::Matrix`]
//!   adjacency matrix.
//! * [`gen`] — synthetic generators covering the relevant topology classes:
//!   Erdős–Rényi, RMAT/Kronecker (the GraphChallenge family),
//!   grid (road-network-like), preferential attachment, and deterministic
//!   classics (path, cycle, star, complete, binary tree) for tests.
//! * [`io`] — Matrix Market, SNAP-style TSV edge lists, and a compact
//!   binary format, so real datasets can be dropped in when available.
//! * [`suite`] — the benchmark suite standing in for the paper's dataset
//!   table: symmetric unit-weight graphs of ascending vertex count.
//! * [`weights`] — weight models (unit, uniform float/int) for the
//!   weighted-graph ablations.

pub mod csr;
pub mod edge_list;
pub mod error;
pub mod gen;
pub mod io;
pub mod suite;
pub mod weights;

pub use csr::{CsrGraph, WeightScan};
pub use edge_list::{Edge, EdgeList};
pub use error::GraphError;
pub use suite::{paper_suite, Dataset, SuiteScale};
pub use weights::WeightModel;
