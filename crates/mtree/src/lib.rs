//! An M-tree implementation tailored to the DisC diversity paper
//! (Section 5 of Drosou & Pitoura, VLDB 2013).
//!
//! The M-tree (Ciaccia, Patella & Zezula) is a balanced, paged metric
//! index: internal nodes route through *pivot* objects with *covering
//! radii*; leaf nodes store the indexed objects. This implementation
//! provides exactly the features the paper's algorithms rely on:
//!
//! * **node-access accounting** — the paper's computational cost metric;
//!   every node touched by an insert, range query, point query or leaf
//!   traversal bumps a counter readable via [`MTree::node_accesses`];
//! * **configurable splitting policies** ([`SplitPolicy`]) — including the
//!   paper's "MinOverlap" policy and the higher-fat-factor alternatives
//!   used in the Figure 10 experiment;
//! * **linked leaves** — a left-to-right chain so Basic-DisC can exploit
//!   locality with a single leaf pass;
//! * **colour-aware pruning** ([`ColorState`]) — the paper's Pruning Rule:
//!   subtrees that contain no white object are *grey* and range queries may
//!   skip them;
//! * **top-down and bottom-up range queries**, the latter with the
//!   stop-at-grey climb used by the Fast-C heuristic;
//! * **a batched range self-join** ([`MTree::range_self_join`]) that
//!   materialises the whole neighbourhood graph `G_{P,r}` in one serial
//!   dual-tree traversal with node-pair pruning — the bulk counterpart
//!   of issuing one range query per object. A build parallelises
//!   across spatial shards (below), one self-join per shard, so the
//!   traversal itself starts no threads;
//! * **fat-factor computation** ([`stats`]) for the Figure 10 experiment;
//! * **sharded-build primitives** — a spatial partitioner with a
//!   shard-count-independent canonical order ([`ShardPlan`]),
//!   range-restricted tree construction ([`MTree::build_range`]) and a
//!   cross-tree boundary join ([`cross_tree_join_dist_checked`]) so the
//!   r-disk graph can be built shard by shard, byte-identical to the
//!   single-tree build.

pub mod color;
pub mod error;
pub mod node;
pub mod query;
pub mod selfjoin;
pub mod shard;
pub mod split;
pub mod stats;
pub mod tree;
pub mod validate;
pub mod xjoin;

pub use color::{Color, ColorState};
pub use error::JoinError;
pub use node::{LeafEntry, Node, NodeId, NodeKind};
pub use query::RangeHit;
pub use selfjoin::DistEdge;
pub use shard::ShardPlan;
pub use split::{PartitionPolicy, PromotePolicy, SplitPolicy};
pub use stats::TreeStats;
pub use tree::{MTree, MTreeConfig};
pub use xjoin::cross_tree_join_dist_checked;
