//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name and a duration; the per-layer metrics are folded
//! from them when the run ends. A disabled tracer still runs the code
//! it wraps but records nothing, so a traced and an untraced pass do
//! the same work.

use std::time::Instant;

pub struct Tracer {
    on: bool,
    spans: Vec<(&'static str, f64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            spans: Vec::new(),
        }
    }

    /// Runs `f`, recording its duration under `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.spans.push((name, t.elapsed().as_secs_f64() * 1e3));
        out
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| s.1)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_their_duration_by_name() {
        let mut t = Tracer::new(true);
        let x = t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            5
        });
        assert_eq!(x, 5);
        let d = t.durations("inner");
        assert_eq!(d.len(), 1);
        assert!(d[0] >= 2.0);
        assert!(t.durations("outer").is_empty());
    }

    #[test]
    fn a_disabled_tracer_runs_the_code_and_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 3), 3);
        assert!(t.spans.is_empty());
    }
}
