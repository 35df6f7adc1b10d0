//! Bounded solution repair for streaming catalogs.
//!
//! A [`RepairableSolution`] persists the colouring a greedy run left
//! behind (black = selected, grey = covered) keyed by **external** ids,
//! so it survives the internal renumbering a
//! [`disc_graph::StreamingCatalog`] delete performs. Each mutation of
//! the catalog is mirrored by one bounded repair instead of a
//! from-scratch re-run:
//!
//! * [`RepairableSolution::repair_insert`] — the new object either
//!   *joins the covered set* (a black lies within the solution radius:
//!   it becomes grey, nothing else moves) or *becomes a new black*
//!   (no black covers it; independence is therefore preserved and the
//!   selection grows by exactly one).
//! * [`RepairableSolution::repair_remove`] — deleting a grey or a
//!   covered object changes nothing else; deleting a **black** orphans
//!   the neighbours it exclusively covered, which are re-covered by the
//!   same greedy white pass the zoom operators use
//!   ([`crate::resident`]'s `greedy_white_pass_adj`: fresh
//!   [`crate::heap::LazyMaxHeap`], external-id tie-breaking), so the
//!   repair's pick order is byte-identical to what a from-scratch
//!   greedy run would do over those whites.
//!
//! Colours live in a dense array indexed by external id (`None` for ids
//! that are not tracked), and every graph read goes through the
//! catalog's [`StreamingCatalog::view`], so no repair waits for a
//! compaction. The bootstrap marks the blacks, then greys the union of
//! their rows: O(n + E_r(blacks)) instead of one map probe per
//! adjacency entry.
//!
//! ## Drift guarantee
//!
//! Every repair keeps the solution a valid independent dominating set
//! at the stored radius ([`RepairableSolution::verify`] re-checks
//! Definition 1 from the graph), and the selected set drifts by a
//! bounded amount — the streaming analogue of the Lemma 5 containment
//! the zooming operators guarantee:
//!
//! * insert: `S ⊆ S'` and `|S'| − |S| ≤ 1`;
//! * delete of object `v`: `S \ {v} ⊆ S'` and
//!   `|S'| − |S \ {v}| ≤ deg_r(v)` (only `v`'s exclusively covered
//!   neighbours can be promoted).
//!
//! The maintained solution is *not* promised byte-equal to a
//! from-scratch greedy run on the final object set in general (greedy
//! is order-sensitive); it is promised to be a valid cover with the
//! same guarantee, and the integration suite pins exact byte equality
//! on degenerate (all-duplicate) datasets where both orders provably
//! coincide.

use std::fmt;

use disc_graph::{Adjacency, GraphError, InsertReceipt, LiveView, RemoveReceipt, StreamingCatalog};
use disc_metric::ObjId;
use disc_mtree::Color;

use crate::never_cancelled;
use crate::resident::{greedy_white_pass_adj, row};
use crate::result::DiscResult;

/// Why a repair (or the colouring bootstrap) rejected its input. Every
/// variant names the offending object in **external** ids.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RepairError {
    /// The solution radius was NaN or negative.
    InvalidRadius(f64),
    /// The solution radius exceeds the catalog's build radius — the
    /// graph never materialised edges beyond `r_max`, so coverage at
    /// `r` cannot be decided.
    RadiusExceedsBuild {
        /// The solution radius.
        r: f64,
        /// The catalog's build radius.
        r_max: f64,
    },
    /// An external id is not tracked by the colouring (or no longer
    /// live in the catalog).
    UnknownExternalId {
        /// The unknown id.
        id: ObjId,
    },
    /// An insert receipt reused an external id that is already
    /// coloured, or a bootstrap solution selected the same id twice.
    DuplicateExternalId {
        /// The colliding id.
        id: ObjId,
    },
    /// Two selected objects lie within the solution radius of each
    /// other (Definition 1's dissimilarity clause).
    NotIndependent {
        /// One endpoint of the violating pair.
        a: ObjId,
        /// The other endpoint.
        b: ObjId,
    },
    /// An unselected object has no selected object within the solution
    /// radius (Definition 1's coverage clause).
    NotDominated {
        /// The uncovered id.
        id: ObjId,
    },
    /// The colouring tracks a different object set than the catalog
    /// holds live.
    TrackedSetMismatch {
        /// Objects the colouring tracks.
        tracked: usize,
        /// Objects live in the catalog.
        live: usize,
    },
    /// The selection list and the black colour class disagree.
    SolutionOutOfSync {
        /// Ids in the selection list.
        selected: usize,
        /// Objects coloured black.
        black: usize,
    },
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidRadius(r) => {
                write!(
                    f,
                    "solution radius must be finite and non-negative, got {r}"
                )
            }
            Self::RadiusExceedsBuild { r, r_max } => write!(
                f,
                "solution radius {r} exceeds the catalog build radius {r_max}"
            ),
            Self::UnknownExternalId { id } => {
                write!(f, "external id {id} is not tracked by the colouring")
            }
            Self::DuplicateExternalId { id } => {
                write!(f, "external id {id} is already coloured")
            }
            Self::NotIndependent { a, b } => write!(
                f,
                "selected objects {a} and {b} lie within the solution radius of each other"
            ),
            Self::NotDominated { id } => {
                write!(
                    f,
                    "object {id} has no selected object within the solution radius"
                )
            }
            Self::TrackedSetMismatch { tracked, live } => write!(
                f,
                "colouring tracks {tracked} objects but the catalog holds {live}"
            ),
            Self::SolutionOutOfSync { selected, black } => write!(
                f,
                "selection lists {selected} ids but {black} objects are black"
            ),
        }
    }
}

impl std::error::Error for RepairError {}

/// What one repair did to the maintained solution — the bounded-drift
/// receipt the module docs promise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Objects promoted to black by this repair (≤ 1 for inserts, ≤
    /// the removed black's degree for deletes).
    pub newly_selected: usize,
    /// Selected objects removed (1 exactly when a black was deleted).
    pub unselected: usize,
    /// Neighbours that lost their only cover and were re-covered by
    /// the greedy white pass (deletes of a black only).
    pub recovered: usize,
}

impl RepairReport {
    /// Whether the repair changed the selected set at all.
    pub fn selection_changed(&self) -> bool {
        self.newly_selected > 0 || self.unselected > 0
    }
}

/// A greedy DisC solution plus the colouring that produced it, kept
/// valid under streaming inserts and deletes by bounded local repairs.
/// See the [module docs](self).
#[derive(Clone, Debug, PartialEq)]
pub struct RepairableSolution {
    /// The radius the cover is maintained for (≤ the catalog's
    /// build radius).
    radius: f64,
    /// Colour of every live object, indexed by external id; `None` for
    /// ids that are not tracked. Invariant between repairs: only
    /// [`Color::Black`] and [`Color::Grey`] occur — every object is
    /// selected or covered.
    color: Vec<Option<Color>>,
    /// Objects tracked (the `Some` entries of `color`).
    tracked: usize,
    /// Selected objects in selection order, external ids — repairs
    /// append; a delete removes at most the deleted id.
    solution: Vec<ObjId>,
}

/// The catalog's live graph at the solution radius, with the graph
/// layer's radius errors mapped onto the repair ones.
fn live_view(catalog: &StreamingCatalog, r: f64) -> Result<LiveView<'_>, RepairError> {
    catalog.view(r).map_err(|e| match e {
        GraphError::RadiusExceedsBuild { r, r_max } => RepairError::RadiusExceedsBuild { r, r_max },
        _ => RepairError::InvalidRadius(r),
    })
}

impl RepairableSolution {
    /// Bootstraps the colouring from a finished greedy run over
    /// `catalog`'s current object set. Validates that the result is a
    /// valid independent dominating set at its radius (so a corrupted
    /// or mismatched result cannot seed an invalid repair chain) and
    /// derives the grey class from the graph: the union of the blacks'
    /// rows, O(n + E_r(blacks)).
    pub fn from_result(
        catalog: &StreamingCatalog,
        result: &DiscResult,
    ) -> Result<Self, RepairError> {
        let r = result.radius;
        let view = live_view(catalog, r)?;
        let mut color: Vec<Option<Color>> = vec![None; catalog.next_external()];
        let mut blacks = Vec::with_capacity(result.solution.len());
        for &ext in &result.solution {
            let v = view
                .vertex_of(ext)
                .ok_or(RepairError::UnknownExternalId { id: ext })?;
            if color[ext].replace(Color::Black).is_some() {
                return Err(RepairError::DuplicateExternalId { id: ext });
            }
            blacks.push(v);
        }
        let mut covered = vec![false; view.len()];
        for &b in &blacks {
            for part in row(&view, b) {
                for &w in part {
                    covered[w] = true;
                }
            }
        }
        for &v in view.live_vertices() {
            let ext = view.external_id(v);
            if color[ext] == Some(Color::Black) {
                let clash = view
                    .row_in_order(v)
                    .map(|(w, _)| view.external_id(w))
                    .find(|&w| color[w] == Some(Color::Black));
                if let Some(b) = clash {
                    return Err(RepairError::NotIndependent { a: ext, b });
                }
            } else if covered[v] {
                color[ext] = Some(Color::Grey);
            } else {
                return Err(RepairError::NotDominated { id: ext });
            }
        }
        Ok(Self {
            radius: r,
            color,
            tracked: view.live_vertices().len(),
            solution: result.solution.clone(),
        })
    }

    /// The radius the cover is maintained for.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Selected objects in selection order (external ids).
    pub fn solution(&self) -> &[ObjId] {
        &self.solution
    }

    /// Number of tracked (live) objects.
    pub fn len(&self) -> usize {
        self.tracked
    }

    /// Whether no object is tracked.
    pub fn is_empty(&self) -> bool {
        self.tracked == 0
    }

    /// Colour of an external id, `None` when untracked.
    pub fn color_of(&self, external: ObjId) -> Option<Color> {
        self.color.get(external).copied().flatten()
    }

    /// The maintained solution as a [`DiscResult`] (zero node accesses
    /// — repairs never touch the index).
    pub fn to_result(&self) -> DiscResult {
        DiscResult {
            radius: self.radius,
            heuristic: "G-DisC (Repaired)".into(),
            solution: self.solution.clone(),
            node_accesses: 0,
        }
    }

    /// Mirrors a [`StreamingCatalog::insert`]: the new object joins the
    /// covered set when a black lies within the solution radius, and
    /// becomes a new black otherwise. O(|receipt.neighbors|); never
    /// recolours a pre-existing object.
    pub fn repair_insert(&mut self, receipt: &InsertReceipt) -> Result<RepairReport, RepairError> {
        if self.color_of(receipt.external).is_some() {
            return Err(RepairError::DuplicateExternalId {
                id: receipt.external,
            });
        }
        let mut covered = false;
        for &(ext, d) in &receipt.neighbors {
            match self.color_of(ext) {
                Some(Color::Black) if d <= self.radius => covered = true,
                Some(_) => {}
                None => return Err(RepairError::UnknownExternalId { id: ext }),
            }
        }
        if self.color.len() <= receipt.external {
            self.color.resize(receipt.external + 1, None);
        }
        self.tracked += 1;
        if covered {
            self.color[receipt.external] = Some(Color::Grey);
            Ok(RepairReport::default())
        } else {
            self.color[receipt.external] = Some(Color::Black);
            self.solution.push(receipt.external);
            Ok(RepairReport {
                newly_selected: 1,
                ..RepairReport::default()
            })
        }
    }

    /// Mirrors a [`StreamingCatalog::remove_external`] (call **after**
    /// the catalog mutation): removing a grey changes nothing else;
    /// removing a black re-covers the neighbours it exclusively
    /// dominated with the zoom operators' greedy white pass (fresh
    /// heap, external-id tie-breaks), promoting at most `deg_r` of
    /// them.
    pub fn repair_remove(
        &mut self,
        catalog: &StreamingCatalog,
        receipt: &RemoveReceipt,
    ) -> Result<RepairReport, RepairError> {
        let Some(old) = self.color.get_mut(receipt.external).and_then(Option::take) else {
            return Err(RepairError::UnknownExternalId {
                id: receipt.external,
            });
        };
        self.tracked -= 1;
        if old != Color::Black {
            return Ok(RepairReport::default());
        }
        self.solution.retain(|&s| s != receipt.external);
        let view = live_view(catalog, self.radius)?;
        // Independence means none of the removed black's neighbours
        // was black, so every orphan candidate is a grey that may have
        // lost its only cover. radius ≤ r_max, so the receipt's r_max
        // neighbourhood contains all of them.
        let mut whites: Vec<ObjId> = Vec::new();
        for &(ext, d) in &receipt.neighbors {
            if d > self.radius {
                continue;
            }
            let v = view
                .vertex_of(ext)
                .ok_or(RepairError::UnknownExternalId { id: ext })?;
            let still_covered = row(&view, v).iter().any(|part| {
                part.iter()
                    .any(|&w| self.color_of(view.external_id(w)) == Some(Color::Black))
            });
            if !still_covered {
                whites.push(v);
            }
        }
        if whites.is_empty() {
            return Ok(RepairReport {
                unselected: 1,
                ..RepairReport::default()
            });
        }
        // Absent slots stay grey: never white, never picked.
        let mut color = vec![Color::Grey; view.len()];
        for &v in view.live_vertices() {
            let ext = view.external_id(v);
            color[v] = self
                .color_of(ext)
                .ok_or(RepairError::UnknownExternalId { id: ext })?;
        }
        for &v in &whites {
            color[v] = Color::White;
        }
        let before = self.solution.len();
        never_cancelled(greedy_white_pass_adj(
            &view,
            &mut color,
            &mut self.solution,
            None,
        ));
        for &v in &whites {
            self.color[view.external_id(v)] = Some(color[v]);
        }
        Ok(RepairReport {
            newly_selected: self.solution.len() - before,
            unselected: 1,
            recovered: whites.len(),
        })
    }

    /// Re-checks the full contract against the catalog: the tracked
    /// set equals the live set, the selection equals the black class,
    /// no two blacks lie within the radius (independence), and every
    /// grey has a black within the radius (domination). O(n + edges);
    /// tests run it after every repair.
    pub fn verify(&self, catalog: &StreamingCatalog) -> Result<(), RepairError> {
        let view = live_view(catalog, self.radius)?;
        if self.tracked != catalog.len() {
            return Err(RepairError::TrackedSetMismatch {
                tracked: self.tracked,
                live: catalog.len(),
            });
        }
        let mut black = 0usize;
        for &v in view.live_vertices() {
            let ext = view.external_id(v);
            let c = self
                .color_of(ext)
                .ok_or(RepairError::UnknownExternalId { id: ext })?;
            let black_neighbor = view
                .row_in_order(v)
                .map(|(w, _)| view.external_id(w))
                .find(|&w| self.color_of(w) == Some(Color::Black));
            match c {
                Color::Black => {
                    black += 1;
                    if !self.solution.contains(&ext) {
                        return Err(RepairError::SolutionOutOfSync {
                            selected: self.solution.len(),
                            black: black.max(self.solution.len() + 1),
                        });
                    }
                    if let Some(b) = black_neighbor {
                        return Err(RepairError::NotIndependent { a: ext, b });
                    }
                }
                Color::Grey if black_neighbor.is_some() => {}
                _ => return Err(RepairError::NotDominated { id: ext }),
            }
        }
        if black != self.solution.len() {
            return Err(RepairError::SolutionOutOfSync {
                selected: self.solution.len(),
                black,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resident::greedy_disc_graph;
    use disc_datasets::synthetic::clustered;
    use disc_graph::StratifiedDiskGraph;
    use disc_metric::Dataset;

    fn catalog_of(data: Dataset, r_max: f64) -> StreamingCatalog {
        let graph = StratifiedDiskGraph::build(&data, r_max);
        StreamingCatalog::try_new(data, graph).expect("fresh pair is consistent")
    }

    fn fresh_greedy(catalog: &StreamingCatalog, r: f64) -> DiscResult {
        greedy_disc_graph(&catalog.graph().view(r).to_unit_disk_graph())
    }

    fn bootstrap(catalog: &StreamingCatalog, r: f64) -> RepairableSolution {
        RepairableSolution::from_result(catalog, &fresh_greedy(catalog, r))
            .expect("greedy output is a valid cover")
    }

    /// Deterministic xorshift so the interleavings reproduce.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn bootstrap_accepts_greedy_and_round_trips() {
        let cat = catalog_of(clustered(120, 2, 4, 901), 0.25);
        let result = fresh_greedy(&cat, 0.1);
        let rs = RepairableSolution::from_result(&cat, &result).expect("valid cover");
        assert_eq!(rs.solution(), &result.solution[..]);
        assert_eq!(rs.radius(), 0.1);
        assert_eq!(rs.len(), cat.len());
        rs.verify(&cat).expect("bootstrap verifies");
        let back = rs.to_result();
        assert_eq!(back.solution, result.solution);
        assert_eq!(back.node_accesses, 0);
        for &ext in &result.solution {
            assert_eq!(rs.color_of(ext), Some(Color::Black));
        }
    }

    #[test]
    fn bootstrap_rejects_invalid_input() {
        let cat = catalog_of(clustered(60, 2, 3, 902), 0.25);
        let good = fresh_greedy(&cat, 0.1);

        let mut bad = good.clone();
        bad.radius = f64::NAN;
        assert!(matches!(
            RepairableSolution::from_result(&cat, &bad),
            Err(RepairError::InvalidRadius(_))
        ));

        let mut bad = good.clone();
        bad.radius = 0.3;
        assert_eq!(
            RepairableSolution::from_result(&cat, &bad),
            Err(RepairError::RadiusExceedsBuild {
                r: 0.3,
                r_max: 0.25
            })
        );

        let mut bad = good.clone();
        bad.solution.push(9999);
        assert_eq!(
            RepairableSolution::from_result(&cat, &bad),
            Err(RepairError::UnknownExternalId { id: 9999 })
        );

        let mut bad = good.clone();
        bad.solution.push(good.solution[0]);
        assert_eq!(
            RepairableSolution::from_result(&cat, &bad),
            Err(RepairError::DuplicateExternalId {
                id: good.solution[0]
            })
        );

        // An empty selection covers nothing.
        let mut bad = good.clone();
        bad.solution.clear();
        assert!(matches!(
            RepairableSolution::from_result(&cat, &bad),
            Err(RepairError::NotDominated { .. })
        ));

        // Selecting everything breaks independence (the dataset is
        // clustered, so some pair is within 0.1).
        let mut bad = good;
        bad.solution = (0..cat.len()).collect();
        assert!(matches!(
            RepairableSolution::from_result(&cat, &bad),
            Err(RepairError::NotIndependent { .. })
        ));
    }

    #[test]
    fn insert_joins_the_cover_or_becomes_black() {
        let mut cat = catalog_of(clustered(80, 2, 3, 903), 0.3);
        let r = 0.12;
        let mut rs = bootstrap(&cat, r);

        // Right on top of an existing black: joins the covered set.
        let black = rs.solution()[0];
        let v = cat.internal_of(black).expect("black is live");
        let coords: Vec<f64> = cat.data().point(v).coords().to_vec();
        let before = rs.solution().to_vec();
        let receipt = cat.insert(&coords).expect("insert succeeds");
        let report = rs.repair_insert(&receipt).expect("repair succeeds");
        assert_eq!(report, RepairReport::default());
        assert_eq!(rs.color_of(receipt.external), Some(Color::Grey));
        assert_eq!(rs.solution(), &before[..], "selection untouched");
        rs.verify(&cat).expect("still a valid cover");

        // Far from everything: becomes a new black, S grows by one.
        let receipt = cat.insert(&[40.0, 40.0]).expect("insert succeeds");
        let report = rs.repair_insert(&receipt).expect("repair succeeds");
        assert_eq!(report.newly_selected, 1);
        assert_eq!(rs.color_of(receipt.external), Some(Color::Black));
        let mut expected = before;
        expected.push(receipt.external);
        assert_eq!(rs.solution(), &expected[..], "S' = S ∪ {{new}}");
        rs.verify(&cat).expect("still a valid cover");

        // Replaying the same receipt is rejected.
        assert_eq!(
            rs.repair_insert(&receipt),
            Err(RepairError::DuplicateExternalId {
                id: receipt.external
            })
        );
    }

    #[test]
    fn removing_a_black_recovers_its_exclusive_neighbours() {
        let mut cat = catalog_of(clustered(150, 2, 4, 904), 0.3);
        let r = 0.1;
        let mut rs = bootstrap(&cat, r);

        // Remove a grey first: nothing but the tracked set changes.
        let grey = (0..cat.next_external())
            .find(|&e| rs.color_of(e) == Some(Color::Grey))
            .expect("clustered data has covered objects");
        let before = rs.solution().to_vec();
        let receipt = cat.remove_external(grey).expect("live id");
        let report = rs.repair_remove(&cat, &receipt).expect("repair succeeds");
        assert_eq!(report, RepairReport::default());
        assert_eq!(rs.solution(), &before[..]);
        assert_eq!(rs.color_of(grey), None);
        rs.verify(&cat).expect("still a valid cover");

        // Remove a black: its exclusive neighbours are re-covered and
        // the drift stays within the removed object's degree.
        let black = before[0];
        let deg = {
            let v = cat.internal_of(black).expect("black is live");
            cat.graph().row_within(v, r).0.len()
        };
        let receipt = cat.remove_external(black).expect("live id");
        let report = rs.repair_remove(&cat, &receipt).expect("repair succeeds");
        assert_eq!(report.unselected, 1);
        assert!(
            report.newly_selected <= deg.max(1),
            "drift {} exceeds degree bound {}",
            report.newly_selected,
            deg
        );
        assert!(!rs.solution().contains(&black));
        for &s in &before[1..] {
            assert!(rs.solution().contains(&s), "S \\ {{v}} ⊆ S'");
        }
        rs.verify(&cat).expect("still a valid cover");

        // Removing an unknown id is rejected.
        let bogus = RemoveReceipt {
            external: 123_456,
            neighbors: Vec::new(),
        };
        assert_eq!(
            rs.repair_remove(&cat, &bogus),
            Err(RepairError::UnknownExternalId { id: 123_456 })
        );
    }

    #[test]
    fn random_interleavings_stay_valid_covers_with_bounded_drift() {
        let mut cat = catalog_of(clustered(130, 2, 4, 905), 0.3);
        let r = 0.09;
        let mut rs = bootstrap(&cat, r);
        let mut state = 0x000D_EC0D_E905_u64;
        for step in 0..60 {
            let roll = next(&mut state);
            if roll.is_multiple_of(3) && cat.len() > 2 {
                let live = cat.live_externals();
                let target = live[(next(&mut state) as usize) % live.len()];
                let before: Vec<ObjId> = rs
                    .solution()
                    .iter()
                    .copied()
                    .filter(|&s| s != target)
                    .collect();
                let receipt = cat.remove_external(target).expect("live id");
                rs.repair_remove(&cat, &receipt).expect("repair succeeds");
                for &s in &before {
                    assert!(rs.solution().contains(&s), "step {step}: S\\{{v}} ⊆ S'");
                }
            } else {
                let x = (next(&mut state) % 1000) as f64 / 500.0 - 1.0;
                let y = (next(&mut state) % 1000) as f64 / 500.0 - 1.0;
                let before = rs.solution().len();
                let receipt = cat.insert(&[x, y]).expect("insert succeeds");
                rs.repair_insert(&receipt).expect("repair succeeds");
                assert!(
                    rs.solution().len() <= before + 1,
                    "step {step}: |S'|−|S| ≤ 1"
                );
            }
            rs.verify(&cat)
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            // Same cover guarantee as a from-scratch run: both are
            // valid independent dominating sets over the live set.
            let fresh = fresh_greedy(&cat, r);
            let fresh_rs =
                RepairableSolution::from_result(&cat, &fresh).expect("fresh greedy is valid");
            fresh_rs.verify(&cat).expect("from-scratch verifies");
        }
        assert!(!rs.is_empty());
        assert_eq!(rs.len(), cat.len());
    }
}
