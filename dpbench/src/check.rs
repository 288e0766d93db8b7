//! Correctness checks. A failed check never stops the run: it is
//! recorded, reported, and makes the run exit non-zero after printing
//! its result.

use queryeval::metrics::relative_error;
use rngkit::rngs::StdRng;
use rngkit::SeedableRng;

#[derive(Default)]
pub struct Checks {
    pub passed: usize,
    pub failed: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failed.push(what());
        }
    }

    /// `got` must equal `expected` byte for byte.
    pub fn same_bytes(&mut self, what: &str, expected: &[u8], got: &[u8]) {
        let diff = first_difference(expected, got);
        self.check(diff.is_none(), || {
            format!(
                "{what}: {} bytes expected, {} bytes served, first difference at byte {}",
                expected.len(),
                got.len(),
                diff.unwrap_or(0)
            )
        });
    }
}

/// Index of the first differing byte, or `None` when equal.
fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => Some(i),
        None if a.len() == b.len() => None,
        None => Some(a.len().min(b.len())),
    }
}

/// A CSV window of `rows` rows is a header plus one line per row.
pub fn has_rows_plus_one_lines(body: &[u8], rows: usize) -> bool {
    body.iter().filter(|&&b| b == b'\n').count() == rows + 1
}

/// The paper's utility measure (§5.1): the median relative error, with
/// a sanity bound of 0.1% of the training rows, of `queries` seeded
/// random range-count queries answered on a synthetic probe and on the
/// training rows. Probe counts are scaled to the training size.
pub fn utility_rel_err(
    training: &[Vec<u32>],
    domains: &[usize],
    probe: &[Vec<u32>],
    queries: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let workload = queryeval::Workload::random(domains, queries, &mut rng);
    let n_train = training.first().map_or(0, Vec::len) as f64;
    let n_probe = probe.first().map_or(0, Vec::len).max(1) as f64;
    let scale = n_train / n_probe;
    let sanity = (0.001 * n_train).max(1.0);
    let actual = workload.true_counts(training);
    let released = workload.true_counts(probe);
    let errors: Vec<f64> = released
        .iter()
        .zip(&actual)
        .map(|(&r, &a)| relative_error(r * scale, a, sanity))
        .collect();
    crate::stats::percentile_of(&errors, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_byte_fails_the_byte_identity_check() {
        let expected = b"age:96,income:1020\n3,17\n".to_vec();
        let mut checks = Checks::default();
        checks.same_bytes("window", &expected, &expected.clone());
        assert!(checks.failed.is_empty());
        for i in 0..expected.len() {
            let mut flipped = expected.clone();
            flipped[i] ^= 1;
            let mut checks = Checks::default();
            checks.same_bytes("window", &expected, &flipped);
            assert_eq!(checks.failed.len(), 1, "flip at byte {i} went unnoticed");
            assert!(checks.failed[0].contains(&format!("first difference at byte {i}")));
        }
    }

    #[test]
    fn truncation_fails_the_byte_identity_check() {
        let mut checks = Checks::default();
        checks.same_bytes("window", b"abc\n", b"abc");
        assert_eq!(checks.failed.len(), 1);
    }

    #[test]
    fn line_count_counts_the_header() {
        assert!(has_rows_plus_one_lines(b"a:2\n0\n1\n", 2));
        assert!(!has_rows_plus_one_lines(b"a:2\n0\n", 2));
    }
}
