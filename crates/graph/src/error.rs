//! Typed errors for the fallible graph entry points: checked builds,
//! raw-parts reconstruction (the load path of `disc-store`) and radius
//! validation.

use std::fmt;

use disc_metric::cancel::Cancelled;
use disc_mtree::JoinError;

/// Why a checked graph operation refused to run, stopped early, or
/// rejected its input. Reconstruction from untrusted raw CSR arrays
/// ([`crate::StratifiedDiskGraph::from_csr_parts`]) validates every
/// structural invariant the query paths rely on and names the first
/// violation precisely.
#[derive(Clone, Copy, Debug)]
pub enum GraphError {
    /// A radius argument was NaN or negative.
    InvalidRadius(f64),
    /// A view/cutoff radius exceeded the build radius `r_max` — edges
    /// beyond it were never materialised, so answering would silently
    /// drop neighbours.
    RadiusExceedsBuild {
        /// The requested radius.
        r: f64,
        /// The radius the graph was built for.
        r_max: f64,
    },
    /// The supplied [`disc_metric::CancelToken`] fired before the build
    /// completed.
    Cancelled,
    /// The offsets array was empty (a valid CSR has `n + 1 ≥ 1` row
    /// boundaries).
    EmptyOffsets,
    /// The first row boundary was not 0.
    OffsetsStart {
        /// The value found at `offsets[0]`.
        found: usize,
    },
    /// Row boundaries must be non-decreasing; row `row`'s end precedes
    /// its start.
    OffsetsNotMonotone {
        /// First row whose boundaries decrease.
        row: usize,
    },
    /// `neighbors`/`dists` length disagrees with the final offset.
    ArrayLengthMismatch {
        /// Directed entry count promised by `offsets[n]`.
        expected: usize,
        /// Length of the neighbors array.
        neighbors: usize,
        /// Length of the dists array.
        dists: usize,
    },
    /// A neighbor id references a vertex outside `0..n`.
    NeighborOutOfRange {
        /// Row holding the bad entry.
        row: usize,
        /// Flat index of the bad entry.
        index: usize,
        /// The out-of-range id.
        id: usize,
    },
    /// A row lists its own vertex as a neighbor.
    SelfLoop {
        /// Row holding the loop.
        row: usize,
        /// Flat index of the loop entry.
        index: usize,
    },
    /// A row is not strictly sorted by `(total_cmp(dist), id)` — the
    /// order every prefix query (cutoff binary search) relies on.
    RowNotSorted {
        /// First row that breaks the order.
        row: usize,
        /// Flat index of the out-of-order entry.
        index: usize,
    },
    /// An edge distance is NaN, negative, or exceeds the build radius.
    DistanceOutOfRange {
        /// Row holding the bad entry.
        row: usize,
        /// Flat index of the bad entry.
        index: usize,
        /// The offending distance.
        value: f64,
    },
    /// An edge handed to the CSR assembly does not land in the rows its
    /// routing promises: an edge of one row part must have both
    /// endpoints in that part, an edge between two parts one endpoint in
    /// each. Assembling it anyway would leave the CSR asymmetric (or
    /// index outside `0..n`).
    MisroutedEdge {
        /// The row part whose rows the edge fails to land in.
        part: usize,
        /// The edge's endpoints as given.
        edge: (usize, usize),
    },
    /// A streaming mutation addressed a vertex outside `0..n`.
    VertexOutOfRange {
        /// The offending vertex id.
        id: usize,
        /// Current vertex count.
        len: usize,
    },
    /// A streaming insert listed the same neighbor twice.
    DuplicateNeighbor {
        /// The repeated neighbor id.
        id: usize,
    },
    /// A streaming insert reused an external id that is already mapped.
    DuplicateExternalId {
        /// The colliding external id.
        id: usize,
    },
    /// A streaming delete would empty the graph (the id bijection cannot
    /// represent zero vertices, and a dataset is never empty either).
    LastVertex,
    /// A streaming delete found an edge without its mirrored entry: row
    /// `row` does not hold `id` at the distance `id`'s own row records,
    /// so the CSR is not symmetric. The graph is left unmodified.
    MissingMirror {
        /// The row that should hold the mirrored entry.
        row: usize,
        /// The vertex whose entry is missing from that row.
        id: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidRadius(r) => {
                write!(f, "radius must be finite and non-negative, got {r}")
            }
            Self::RadiusExceedsBuild { r, r_max } => write!(
                f,
                "radius {r} exceeds the build radius {r_max}; edges beyond r_max were never materialised"
            ),
            Self::Cancelled => f.write_str("graph build cancelled before completion"),
            Self::EmptyOffsets => f.write_str("CSR offsets array is empty"),
            Self::OffsetsStart { found } => {
                write!(f, "CSR offsets must start at 0, found {found}")
            }
            Self::OffsetsNotMonotone { row } => {
                write!(f, "CSR offsets decrease at row {row}")
            }
            Self::ArrayLengthMismatch {
                expected,
                neighbors,
                dists,
            } => write!(
                f,
                "CSR arrays disagree: offsets promise {expected} entries, neighbors has {neighbors}, dists has {dists}"
            ),
            Self::NeighborOutOfRange { row, index, id } => {
                write!(f, "row {row} entry {index}: neighbor id {id} out of range")
            }
            Self::SelfLoop { row, index } => {
                write!(f, "row {row} entry {index}: self-loop")
            }
            Self::RowNotSorted { row, index } => write!(
                f,
                "row {row} entry {index}: row not strictly (distance, id)-sorted"
            ),
            Self::DistanceOutOfRange { row, index, value } => write!(
                f,
                "row {row} entry {index}: distance {value} outside [0, r_max]"
            ),
            Self::MisroutedEdge { part, edge } => write!(
                f,
                "edge {edge:?} routed to row part {part} does not have the endpoints there that its routing promises"
            ),
            Self::VertexOutOfRange { id, len } => {
                write!(f, "vertex id {id} is outside 0..{len}")
            }
            Self::DuplicateNeighbor { id } => {
                write!(f, "neighbor id {id} listed more than once")
            }
            Self::DuplicateExternalId { id } => {
                write!(f, "external id {id} is already mapped to a live vertex")
            }
            Self::LastVertex => f.write_str("cannot remove the last remaining vertex"),
            Self::MissingMirror { row, id } => write!(
                f,
                "row {row} lacks the mirrored entry of its edge to {id}; the CSR is not symmetric"
            ),
        }
    }
}

impl GraphError {
    /// The variant and its payload as integers, each `f64` by its bits.
    fn image(&self) -> (std::mem::Discriminant<Self>, [u64; 3]) {
        let bits = f64::to_bits;
        let fields = match *self {
            Self::InvalidRadius(r) => [bits(r), 0, 0],
            Self::RadiusExceedsBuild { r, r_max } => [bits(r), bits(r_max), 0],
            Self::Cancelled | Self::EmptyOffsets | Self::LastVertex => [0; 3],
            Self::OffsetsStart { found } => [found as u64, 0, 0],
            Self::OffsetsNotMonotone { row } => [row as u64, 0, 0],
            Self::ArrayLengthMismatch {
                expected,
                neighbors,
                dists,
            } => [expected as u64, neighbors as u64, dists as u64],
            Self::NeighborOutOfRange { row, index, id } => [row as u64, index as u64, id as u64],
            Self::SelfLoop { row, index } | Self::RowNotSorted { row, index } => {
                [row as u64, index as u64, 0]
            }
            Self::DistanceOutOfRange { row, index, value } => {
                [row as u64, index as u64, bits(value)]
            }
            Self::MisroutedEdge { part, edge } => [part as u64, edge.0 as u64, edge.1 as u64],
            Self::VertexOutOfRange { id, len } => [id as u64, len as u64, 0],
            Self::DuplicateNeighbor { id } | Self::DuplicateExternalId { id } => [id as u64, 0, 0],
            Self::MissingMirror { row, id } => [row as u64, id as u64, 0],
        };
        (std::mem::discriminant(self), fields)
    }
}

/// Compares the variant and its fields, each `f64` by its bits, so an
/// error that holds a NaN equals itself.
impl PartialEq for GraphError {
    fn eq(&self, other: &Self) -> bool {
        self.image() == other.image()
    }
}

impl Eq for GraphError {}

impl std::error::Error for GraphError {}

impl From<Cancelled> for GraphError {
    fn from(_: Cancelled) -> Self {
        Self::Cancelled
    }
}

impl From<JoinError> for GraphError {
    fn from(e: JoinError) -> Self {
        match e {
            JoinError::InvalidRadius(r) => Self::InvalidRadius(r),
            JoinError::Cancelled => Self::Cancelled,
        }
    }
}
