//! The host-speed reference.
//!
//! The machines this benchmark runs on share their cores with other
//! tenants. For seconds to minutes at a time the same work takes up to
//! 1.7 times as long, and a slow phase can cover a whole run, so medians
//! and even minima over a run move by a tenth to a fifth from run to
//! run.
//! The benchmark therefore measures the host's speed while it measures
//! the daemon: between jobs it times [`reference_unit`], a fixed piece
//! of work, on the CPU the daemon runs on, and scales every job's
//! latency by how long the unit took around that job (see `README.md`).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// What [`reference_unit`] takes on a quiet host, in µs: the time a
/// scaled latency assumes. Measured on the machine described in
/// `README.md`; changing it, or the unit, rescales every latency.
pub const NOMINAL_US: f64 = 200.0;

/// Runs the reference unit once and returns how long it took.
///
/// The unit formats 400 lines of `jasm`-like text and splits them back
/// into tokens, parsing the numbers: allocation, string handling and
/// small hash-free loops, which track the slowdowns of both the frontend
/// and the solver more closely than hash-map or graph work did. It must
/// never change, or latencies measured before and after stop being
/// comparable.
pub fn reference_unit() -> Duration {
    let start = Instant::now();
    let mut text = String::new();
    let mut x: u64 = 0x1234_5678_9abc_def1;
    for i in 0..400 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        text.push_str(&format!(
            "    t{i} = virtualinvoke o.<a.b.C{}: java.lang.String m{}(int)>({})\n",
            x % 97,
            x % 13,
            x >> 50
        ));
    }
    let mut acc = 0u64;
    for line in black_box(&text).lines() {
        let tokens: Vec<&str> = line
            .split(|c: char| c.is_whitespace() || matches!(c, '(' | ')' | '<' | '>'))
            .filter(|t| !t.is_empty())
            .collect();
        for t in tokens {
            if let Ok(v) = t.parse::<u64>() {
                acc = acc.wrapping_add(v);
            }
            acc = acc.wrapping_add(t.len() as u64);
        }
    }
    black_box(acc);
    start.elapsed()
}

/// Reference-unit times taken through a run, in order.
#[derive(Default)]
pub struct SpeedLog {
    samples: Vec<f64>,
}

/// Reference samples on each side of a job that its speed is taken
/// from: their median ignores a single disturbed sample.
const WINDOW: usize = 2;

impl SpeedLog {
    /// Times one reference unit and returns its index.
    pub fn sample(&mut self) -> usize {
        self.samples.push(reference_unit().as_secs_f64() * 1e6);
        self.samples.len() - 1
    }

    /// Number of samples taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The factor that scales a time measured right after sample `at` to
    /// the quiet host [`NOMINAL_US`] describes: the nominal time over the
    /// median of the samples within [`WINDOW`] of `at`.
    pub fn scale(&self, at: usize) -> f64 {
        let lo = at.saturating_sub(WINDOW);
        let hi = (at + WINDOW + 1).min(self.samples.len());
        match self.samples.get(lo..hi) {
            Some(near) if !near.is_empty() => NOMINAL_US / crate::stats::median(near),
            _ => 1.0,
        }
    }

    /// The median reference time of the whole log, in µs.
    pub fn median_us(&self) -> f64 {
        crate::stats::median(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_the_median_of_the_nearby_samples() {
        let log = SpeedLog {
            samples: vec![400.0, 400.0, 400.0, 4000.0, 400.0, 400.0, 100.0, 100.0],
        };
        // One slow sample in the window does not move the median.
        assert_eq!(log.scale(3), NOMINAL_US / 400.0);
        // At the end, the window is cut short.
        assert_eq!(log.scale(7), NOMINAL_US / 100.0);
        assert_eq!(SpeedLog::default().scale(0), 1.0);
    }
}
