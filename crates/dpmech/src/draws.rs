//! Per-thread tallies of primitive noise draws, for the observability
//! layer's `noise_draws_total{stage,mech}` counters.
//!
//! Every mechanism in this crate bumps a thread-local counter on each
//! draw (a `Cell` increment — cheap enough to leave always-on, so the
//! mechanisms stay free of sink plumbing). Instrumented callers
//! bracket a logical unit of work with [`snapshot`] before and after
//! and publish the difference with [`DrawCounts::record_into`].
//!
//! Because the tally is harvested *per logical task* and the published
//! counters are integer sums, the totals are independent of worker
//! count and scheduling — a parallel pipeline reports the same draw
//! counts as a serial one, which is what keeps these series inside the
//! deterministic snapshot.

use obskit::names::NOISE_DRAWS_TOTAL;
use obskit::{MetricsSink, Unit};
use std::cell::Cell;

/// Counts of primitive noise draws, by mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrawCounts {
    /// Laplace samples drawn (via [`crate::Laplace::sample`] or
    /// [`crate::laplace_noise`]).
    pub laplace: u64,
    /// Exponential-mechanism selections made.
    pub exponential: u64,
}

impl DrawCounts {
    /// Draws made since `earlier` (an earlier [`snapshot`] on the same
    /// thread). Saturates rather than wrapping if misused across
    /// threads.
    pub fn since(&self, earlier: &DrawCounts) -> DrawCounts {
        DrawCounts {
            laplace: self.laplace.saturating_sub(earlier.laplace),
            exponential: self.exponential.saturating_sub(earlier.exponential),
        }
    }

    /// Total draws across all mechanisms.
    pub fn total(&self) -> u64 {
        self.laplace + self.exponential
    }

    /// Adds these counts to `noise_draws_total{stage,mech}` in `sink`
    /// (skipping zero mechanisms so untouched series stay at their
    /// taxonomy-registered zero).
    pub fn record_into(&self, sink: &MetricsSink, stage: &str) {
        if !sink.enabled() {
            return;
        }
        for (mech, n) in [("laplace", self.laplace), ("exponential", self.exponential)] {
            if n > 0 {
                sink.add_labeled(
                    NOISE_DRAWS_TOTAL,
                    &[("stage", stage), ("mech", mech)],
                    Unit::Count,
                    n,
                );
            }
        }
    }
}

thread_local! {
    static TALLY: Cell<DrawCounts> = const { Cell::new(DrawCounts {
        laplace: 0,
        exponential: 0,
    }) };
}

/// The calling thread's cumulative draw counts.
pub fn snapshot() -> DrawCounts {
    TALLY.with(Cell::get)
}

pub(crate) fn note_laplace() {
    TALLY.with(|t| {
        let mut c = t.get();
        c.laplace += 1;
        t.set(c);
    });
}

pub(crate) fn note_exponential() {
    TALLY.with(|t| {
        let mut c = t.get();
        c.exponential += 1;
        t.set(c);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Epsilon;
    use crate::{exponential_mechanism, laplace_noise, Laplace};
    use rngkit::rngs::StdRng;
    use rngkit::SeedableRng;

    #[test]
    fn draws_are_tallied_per_mechanism() {
        let mut rng = StdRng::seed_from_u64(9);
        let before = snapshot();
        let lap = Laplace::new(0.0, 1.0).unwrap();
        for _ in 0..3 {
            lap.sample(&mut rng);
        }
        laplace_noise(&mut rng, 2.0);
        exponential_mechanism(&mut rng, &[0.0, 1.0], Epsilon::new(1.0).unwrap(), 1.0);
        let d = snapshot().since(&before);
        assert_eq!(d.laplace, 4);
        assert_eq!(d.exponential, 1);
        assert_eq!(d.total(), 5);
    }

    #[test]
    fn record_into_publishes_nonzero_mechs_only() {
        use std::sync::Arc;
        let registry = Arc::new(obskit::MetricsRegistry::new());
        let sink = MetricsSink::to_registry(registry.clone());
        DrawCounts {
            laplace: 5,
            exponential: 2,
        }
        .record_into(&sink, "margins");
        DrawCounts {
            laplace: 0,
            exponential: 3,
        }
        .record_into(&sink, "correlation");
        let snap = registry.snapshot();
        assert_eq!(
            snap.get(r#"noise_draws_total{stage="margins",mech="laplace"}"#)
                .and_then(|e| e.value.as_u64()),
            Some(5)
        );
        assert_eq!(
            snap.get(r#"noise_draws_total{stage="margins",mech="exponential"}"#)
                .and_then(|e| e.value.as_u64()),
            Some(2)
        );
        assert!(snap
            .get(r#"noise_draws_total{stage="correlation",mech="laplace"}"#)
            .is_none());
        assert_eq!(
            snap.get(r#"noise_draws_total{stage="correlation",mech="exponential"}"#)
                .and_then(|e| e.value.as_u64()),
            Some(3)
        );
    }
}
