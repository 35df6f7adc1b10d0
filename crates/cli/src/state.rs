//! Validate-once snapshot opening into the shared serving state.
//!
//! A serving process opens its snapshot exactly once, through the
//! fail-closed [`disc_store::load`] path: every checksum is verified
//! before any worker sees a byte, so a corrupted file is a typed
//! startup rejection (exit code 3, naming the owning section), never a
//! crash mid-request. What survives validation is materialised into a
//! [`disc_graph::StreamingCatalog`] — dataset and stratified graph in
//! lock-step — behind a reader–writer lock: zoom and sweep requests
//! share read access, while the streaming `insert`/`delete` verbs take
//! the write side. The identity fields worth echoing back (`name`,
//! `metric`, `r_max`) never change under mutation and stay lock-free.
//!
//! A mutation writes the catalog's small overlay (O(n + degree)), not
//! its CSR, so the write lock is short. Reads come in two kinds:
//!
//! * [`ServeState::live_catalog`] — a read guard as is. The workers
//!   solve on its [`disc_graph::StreamingCatalog::view`], which reads
//!   through the overlay, and [`ServeState::n`] counts through it.
//!   Nothing on the serve path compacts.
//! * [`ServeState::catalog`] — first folds any pending overlay into the
//!   graph under the write lock, then hands out a read guard, so
//!   `graph()` on it is the compacted base, not a cached copy. Checks
//!   and tests that read the whole graph use it.
//!
//! Lock poisoning is recovered (`into_inner`), matching the pool's
//! availability-first stance: request panics are already contained by
//! the worker's `catch_unwind`, and catalog mutations validate their
//! inputs before writing, so a poisoned guard means a contained panic,
//! not a torn catalog.

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use disc_core::RepairableSolution;
use disc_graph::StreamingCatalog;
use disc_metric::Metric;
use disc_store::{decode_stream, read_snapshot};

use crate::error::CliError;

/// State shared by every worker: the live streaming catalog plus the
/// snapshot identity fields worth echoing back.
pub struct ServeState {
    /// Dataset name stamped in the snapshot.
    pub name: String,
    /// Distance metric the graph was built under.
    pub metric: Metric,
    /// Radius the graph was materialised at; every serveable radius is
    /// `0 < r ≤ r_max`, and inserts add edges up to `r_max`.
    pub r_max: f64,
    /// The mutable dataset + stratified-graph pair.
    catalog: RwLock<StreamingCatalog>,
    /// The maintained `r_max` cover the streaming verbs repair in
    /// lock-step with the catalog — `None` until the first mutation
    /// bootstraps it. Lock order: catalog write guard first, then this
    /// (mutations are the only path that takes both).
    tracker: Mutex<Option<RepairableSolution>>,
}

impl ServeState {
    /// Opens and fully validates the snapshot at `path` (format v4, or
    /// legacy v2 or v3).
    ///
    /// I/O failures map to exit code 4; any validation failure — from a
    /// flipped bit to a version skew — is a [`CliError::Store`] (exit
    /// code 3) whose message names the first broken layer.
    pub fn open(path: impl AsRef<Path>) -> Result<Arc<Self>, CliError> {
        let bytes = read_snapshot(&path)?;
        Ok(Self::from_catalog(decode_stream(bytes.as_bytes())?))
    }

    /// Wraps an already-validated catalog (tests and benches build
    /// their state in memory).
    pub fn from_catalog(catalog: StreamingCatalog) -> Arc<Self> {
        Arc::new(Self {
            name: catalog.data().name().to_string(),
            metric: catalog.data().metric(),
            r_max: catalog.r_max(),
            catalog: RwLock::new(catalog),
            tracker: Mutex::new(None),
        })
    }

    /// Shared (read) access to the catalog with every pending mutation
    /// compacted into its graph: when the overlay holds anything, it is
    /// folded in under the write lock before the read guard is handed
    /// out. A mutation landing between the two is still reflected by
    /// `graph()` (as a cached compacted copy).
    pub fn catalog(&self) -> RwLockReadGuard<'_, StreamingCatalog> {
        let guard = self.live_catalog();
        if guard.is_compact() {
            return guard;
        }
        drop(guard);
        self.catalog_mut().compact();
        self.live_catalog()
    }

    /// Shared (read) access to the catalog as it is, overlay and all —
    /// what zoom and sweep solvers hold while they run on its live
    /// view. Never compacts.
    pub fn live_catalog(&self) -> RwLockReadGuard<'_, StreamingCatalog> {
        self.catalog.read().unwrap_or_else(|p| p.into_inner())
    }

    /// Exclusive (write) access to the catalog — what the `insert` and
    /// `delete` verbs hold while they mutate and invalidate.
    pub fn catalog_mut(&self) -> RwLockWriteGuard<'_, StreamingCatalog> {
        self.catalog.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Live object count right now (changes under mutation).
    pub fn n(&self) -> usize {
        self.live_catalog().len()
    }

    /// The maintained `r_max` cover (`None` before the first
    /// mutation). Take the catalog **write** guard first when mutating
    /// both — see the field's lock-order note.
    pub fn tracker(&self) -> MutexGuard<'_, Option<RepairableSolution>> {
        self.tracker.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_graph::StratifiedDiskGraph;
    use disc_metric::{Dataset, Point};

    fn write_small_snapshot(dir: &Path) -> std::path::PathBuf {
        let data = Dataset::new(
            "state-test",
            Metric::Euclidean,
            vec![
                Point::new2(0.0, 0.0),
                Point::new2(0.3, 0.0),
                Point::new2(0.0, 0.4),
            ],
        );
        let graph = StratifiedDiskGraph::build(&data, 1.0);
        let path = dir.join("state-test.snap");
        match disc_store::write_snapshot(&path, &data, &graph) {
            Ok(_) => path,
            Err(e) => unreachable!("snapshot write must succeed in a temp dir: {e}"),
        }
    }

    #[test]
    fn open_materialises_identity_and_graph() {
        let dir = std::env::temp_dir().join("disc-cli-state-open");
        match std::fs::create_dir_all(&dir) {
            Ok(()) => {}
            Err(e) => unreachable!("temp dir: {e}"),
        }
        let path = write_small_snapshot(&dir);
        let state = match ServeState::open(&path) {
            Ok(s) => s,
            Err(e) => unreachable!("clean snapshot must open: {e}"),
        };
        assert_eq!(state.name, "state-test");
        assert_eq!(state.metric, Metric::Euclidean);
        assert_eq!(state.n(), 3);
        assert_eq!(state.r_max, 1.0);
        assert_eq!(state.catalog().graph().len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_io_error_not_a_store_error() {
        let err = match ServeState::open("/nonexistent/disc-cli-no-such.snap") {
            Err(e) => e,
            Ok(_) => unreachable!("missing file cannot open"),
        };
        assert!(matches!(err, CliError::Io(_)));
        assert_eq!(err.exit_code(), crate::error::EXIT_IO);
    }

    #[test]
    fn mutation_through_the_write_guard_is_visible_to_readers() {
        let data = Dataset::new(
            "state-mutate",
            Metric::Euclidean,
            vec![Point::new2(0.0, 0.0), Point::new2(0.3, 0.0)],
        );
        let graph = StratifiedDiskGraph::build(&data, 1.0);
        let catalog = match StreamingCatalog::try_new(data, graph) {
            Ok(c) => c,
            Err(e) => unreachable!("fresh pair is consistent: {e}"),
        };
        let state = ServeState::from_catalog(catalog);
        assert_eq!(state.n(), 2);
        let receipt = match state.catalog_mut().insert(&[0.1, 0.1]) {
            Ok(r) => r,
            Err(e) => unreachable!("in-range insert succeeds: {e}"),
        };
        assert_eq!(receipt.external, 2);
        assert_eq!(state.n(), 3);
        assert_eq!(state.catalog().graph().len(), 3);
        // Identity fields are immutable under mutation.
        assert_eq!(state.r_max, 1.0);
    }
}
