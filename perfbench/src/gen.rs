//! Seeded inputs: points, zoom radii, and the request stream.
//!
//! Everything a workload feeds the program comes from here and is a
//! pure function of the workload spec and `--seed`: the same seed gives
//! the same points and the same request sequence, request by request.
//! The stream is generated lazily (a timed phase consumes as many
//! requests as it has time for), so two runs agree on every prefix.

use disc_metric::Dataset;

use crate::spec::{Spec, CLUSTERS};

/// SplitMix64: a tiny, well-mixed, seedable generator. Kept local so
/// the stream cannot change under a dependency's version bump.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other uses of the same
    /// seed by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal via Box–Muller.
    fn gaussian(&mut self) -> f64 {
        let u1 = self.unit().max(f64::EPSILON);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Fixes the cluster centres and spreads. The seed only draws the
/// points, so every seed gives a graph of about the same size and the
/// run-to-run spread measures the program, not the geometry.
const GEOMETRY_SEED: u64 = 0x4449_5343;

/// The workload's initial points (2-D, Euclidean, unit square).
///
/// They follow the paper's "Clustered" family as
/// `disc_datasets::synthetic::clustered` draws it — Gaussian clusters
/// with populations decaying as `1 / (1 + k/2)` and spreads in
/// `[0.02, 0.08)`, clamped to the square — with the geometry fixed.
pub fn points(spec: &Spec, seed: u64) -> Dataset {
    let mut geo = Rng::new(GEOMETRY_SEED, CLUSTERS as u64);
    let centres: Vec<[f64; 2]> = (0..CLUSTERS)
        .map(|_| [0.15 + 0.7 * geo.unit(), 0.15 + 0.7 * geo.unit()])
        .collect();
    let spreads: Vec<f64> = (0..CLUSTERS).map(|_| 0.02 + 0.06 * geo.unit()).collect();
    let weights: Vec<f64> = (0..CLUSTERS)
        .map(|k| 1.0 / (1.0 + k as f64 / 2.0))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut rng = Rng::new(seed, 0x504F_494E_5453);
    let mut coords = Vec::with_capacity(2 * spec.n);
    for k in 0..CLUSTERS {
        let count = if k + 1 == CLUSTERS {
            spec.n - coords.len() / 2
        } else {
            (weights[k] / total * spec.n as f64).round() as usize
        };
        for _ in 0..count {
            for c in centres[k] {
                coords.push((c + spreads[k] * rng.gaussian()).clamp(0.0, 1.0));
            }
        }
    }
    Dataset::from_flat(
        format!("{}-{seed}", spec.name),
        disc_metric::Metric::Euclidean,
        2,
        coords,
    )
}

/// The four popular radii every workload repeats (and sweeps through):
/// `r_max` and its 3/4, 1/2 and 1/4 fractions. Few enough to stay in
/// the server's solution cache.
pub fn popular(r_max: f64) -> [f64; 4] {
    [r_max, r_max * 0.75, r_max * 0.5, r_max * 0.25]
}

/// Fractional part of the golden ratio: the step of the fresh-radius
/// sequence (an irrational rotation never repeats a radius).
const GOLDEN: f64 = 0.618_033_988_749_894_9;

/// One request as the benchmark submits it.
#[derive(Clone, Debug, PartialEq)]
pub enum Req {
    /// Solve at one radius.
    Zoom(f64),
    /// Descending chain of radii.
    Sweep(Vec<f64>),
    /// Insert a point.
    Insert(Vec<f64>),
    /// Delete the object with this external id.
    Delete(u64),
}

impl Req {
    pub fn is_mutation(&self) -> bool {
        matches!(self, Req::Insert(_) | Req::Delete(_))
    }
}

/// The lazily generated request stream of one workload and seed.
///
/// Reads: one read in 10 (the 5th, 15th, ...) is a sweep through the
/// popular radii, so even a short segment holds one; of the
/// other reads, every 4th zooms at a popular radius (a cache hit once
/// warm; the seed picks where the cycle through them starts) and the
/// rest at a fresh radius in `(r_max/4, r_max]` (always a cache miss).
/// Fresh radii follow a golden-ratio sequence from a seeded offset, so
/// any run's radii cover the interval almost evenly: seeds change which
/// radii are asked, not how much work they add up to. With
/// `reads_per_mutation = k > 0`, one mutation follows every `k` reads,
/// alternating an insert and a delete. Mutations can also be pulled on
/// their own ([`Stream::next_mutation`]) for warm-up and write-only
/// phases.
///
/// Deletes only target ids of the initial points that no earlier
/// mutation of this stream deleted, so each targets a live object
/// whatever order concurrent requests finish in.
#[derive(Clone, Debug)]
pub struct Stream {
    rng: Rng,
    r_max: f64,
    /// Flat coordinates of the initial points, for inserts.
    base: Vec<f64>,
    /// External ids still available to delete.
    deletable: Vec<u64>,
    reads_per_mutation: usize,
    reads: u64,
    zooms: u64,
    fresh: u64,
    /// Seeded offset of the fresh-radius sequence, in `[0, 1)`.
    phase: f64,
    /// Seeded start of the popular-radius cycle.
    hot: u64,
    since_mutation: usize,
    inserts_next: bool,
}

impl Stream {
    pub fn new(spec: &Spec, data: &Dataset, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0x5354_5245_414D);
        Self {
            phase: rng.unit(),
            hot: rng.next_u64() % 4,
            rng,
            r_max: spec.r_max,
            base: data.flat_coords().to_vec(),
            deletable: (0..data.len() as u64).collect(),
            reads_per_mutation: spec.reads_per_mutation,
            reads: 0,
            zooms: 0,
            fresh: 0,
            since_mutation: 0,
            inserts_next: true,
        }
    }

    fn next_read(&mut self) -> Req {
        self.reads += 1;
        if self.reads % 10 == 5 {
            return Req::Sweep(popular(self.r_max).to_vec());
        }
        self.zooms += 1;
        if self.zooms.is_multiple_of(4) {
            return Req::Zoom(popular(self.r_max)[((self.hot + self.zooms / 4) % 4) as usize]);
        }
        self.fresh += 1;
        let u = (self.phase + self.fresh as f64 * GOLDEN).fract();
        Req::Zoom(self.r_max * (1.0 - 0.75 * u))
    }

    /// The next mutation in the insert/delete alternation (an insert
    /// instead once every initial id has been deleted).
    pub fn next_mutation(&mut self) -> Req {
        let insert = self.inserts_next;
        self.inserts_next = !insert;
        if insert || self.deletable.is_empty() {
            return Req::Insert(self.insert_point());
        }
        let at = self.rng.below(self.deletable.len());
        Req::Delete(self.deletable.swap_remove(at))
    }

    /// A new point near a random initial point (a Gaussian jitter of
    /// `r_max / 2`), so inserts land where the clusters are.
    fn insert_point(&mut self) -> Vec<f64> {
        let i = self.rng.below(self.base.len() / 2);
        let sigma = self.r_max * 0.5;
        (0..2)
            .map(|d| (self.base[2 * i + d] + sigma * self.rng.gaussian()).clamp(0.0, 1.0))
            .collect()
    }
}

impl Iterator for Stream {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        if self.reads_per_mutation > 0 && self.since_mutation == self.reads_per_mutation {
            self.since_mutation = 0;
            return Some(self.next_mutation());
        }
        self.since_mutation += 1;
        Some(self.next_read())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::spec::spec;

    fn stream(name: &str, seed: u64) -> (Dataset, Stream) {
        let spec = spec(name).expect("known workload");
        let data = points(&spec, seed);
        let stream = Stream::new(&spec, &data, seed);
        (data, stream)
    }

    #[test]
    fn same_seed_gives_identical_points_and_stream() {
        for name in crate::spec::NAMES {
            let (a, sa) = stream(name, 11);
            let (b, sb) = stream(name, 11);
            assert_eq!(a.flat_coords(), b.flat_coords(), "{name}");
            let ra: Vec<Req> = sa.take(500).collect();
            let rb: Vec<Req> = sb.take(500).collect();
            assert_eq!(ra, rb, "{name}");
        }
    }

    #[test]
    fn different_seed_gives_a_different_stream() {
        for name in crate::spec::NAMES {
            let (a, sa) = stream(name, 11);
            let (b, sb) = stream(name, 12);
            assert_ne!(a.flat_coords(), b.flat_coords(), "{name}");
            let ra: Vec<Req> = sa.take(100).collect();
            let rb: Vec<Req> = sb.take(100).collect();
            assert_ne!(ra, rb, "{name}");
        }
    }

    #[test]
    fn every_delete_targets_a_live_id() {
        let (data, mut s) = stream("serve_mixed_10k", 5);
        let mut live: BTreeSet<u64> = (0..data.len() as u64).collect();
        let mut next_external = data.len() as u64;
        let mut deletes = 0;
        // Warm-up pair, then the mixed stream, exactly as a run pulls them.
        let warm = [s.next_mutation(), s.next_mutation()];
        for req in warm.into_iter().chain(s.take(1200)) {
            match req {
                Req::Insert(coords) => {
                    assert_eq!(coords.len(), 2);
                    assert!(coords.iter().all(|c| (0.0..=1.0).contains(c)));
                    live.insert(next_external);
                    next_external += 1;
                }
                Req::Delete(ext) => {
                    assert!(live.remove(&ext), "delete of a dead id {ext}");
                    deletes += 1;
                }
                Req::Zoom(_) | Req::Sweep(_) => {}
            }
        }
        assert_eq!(deletes, 201);
    }

    #[test]
    fn reads_follow_the_documented_mix() {
        let (_, s) = stream("serve_zoom_10k", 3);
        let spec = spec("serve_zoom_10k").expect("known workload");
        let popular = popular(spec.r_max);
        let reqs: Vec<Req> = s.take(4000).collect();
        let sweeps = reqs.iter().filter(|r| matches!(r, Req::Sweep(_))).count();
        assert_eq!(sweeps, 400);
        assert!(
            matches!(reqs[4], Req::Sweep(_)),
            "the 5th read is the first sweep"
        );
        let zooms: Vec<f64> = reqs
            .iter()
            .filter_map(|r| match r {
                Req::Zoom(x) => Some(*x),
                _ => None,
            })
            .collect();
        let hot = zooms.iter().filter(|r| popular.contains(r)).count();
        let share = hot as f64 / zooms.len() as f64;
        assert!((0.2..0.3).contains(&share), "popular share {share}");
        assert!(zooms
            .iter()
            .all(|&r| r > spec.r_max * 0.25 - 1e-12 && r <= spec.r_max));
        assert!(!reqs.iter().any(Req::is_mutation));
    }

    #[test]
    fn held_out_seeds_generate_streams_too() {
        // Any u64 is a valid seed: claims can be re-checked on one the
        // change was never run against.
        for seed in [0, u64::MAX, 0xDEAD_BEEF] {
            let (data, s) = stream("build_clustered_50k", seed);
            assert!(!data.is_empty());
            assert_eq!(s.take(50).count(), 50);
        }
    }
}
