//! Factor-graph substrate for product-network sorting.
//!
//! A homogeneous product network `PG_r` (Definition 1 of Fernández & Efe) is
//! built from an arbitrary connected *factor graph* `G` with `N` nodes. This
//! crate provides everything the algorithm needs from `G`:
//!
//! * the graph structure itself and standard constructions ([`Graph`],
//!   [`factories`]),
//! * BFS-based traversal, distances, diameter ([`traversal`]),
//! * Hamiltonian-path search — Section 2 recommends labeling the factor
//!   nodes along a Hamiltonian path when one exists ([`hamiltonian`]),
//! * the dilation-3 linear-array embedding that exists in *every* connected
//!   graph (Sekanina's theorem; used by the paper for non-Hamiltonian
//!   factors and by the Corollary's torus emulation) ([`embedding`]),
//! * a synchronous store-and-forward router used to execute and cost the
//!   permutation-routing steps `R(N)` of the odd-even transpositions
//!   ([`routing`]).

pub mod embedding;
pub mod factories;
pub mod graph;
pub mod hamiltonian;
pub mod render;
pub mod routing;
pub mod traversal;

pub use embedding::LinearEmbedding;
pub use graph::Graph;
pub use hamiltonian::{hamiltonian_cycle, hamiltonian_path};
pub use render::{adjacency_table, to_dot};
pub use routing::{route_compare_exchange, RoutingOutcome, SyncRouter};
pub use traversal::{
    bfs_distances, diameter, is_connected, shortest_path, shortest_path_along, spanning_tree,
};
