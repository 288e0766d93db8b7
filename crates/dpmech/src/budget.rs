//! Privacy-budget types and sequential-composition accounting.
//!
//! The DPCopula algorithms split one total budget `epsilon` into a margin
//! share `epsilon_1` and a correlation share `epsilon_2 = epsilon -
//! epsilon_1`, controlled by the ratio `k = epsilon_1 / epsilon_2`
//! (Table 3 defaults to `k = 8`). [`Epsilon`] keeps budgets validated and
//! [`BudgetAccountant`] enforces that a sequence of mechanisms never spends
//! more than the total (Theorem 3.1, sequential composition).

/// A validated, strictly positive, finite privacy budget.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Creates a budget; fails unless `value` is finite and `> 0`.
    pub fn new(value: f64) -> Result<Self, BudgetError> {
        if value.is_finite() && value > 0.0 {
            Ok(Self(value))
        } else {
            Err(BudgetError::InvalidEpsilon(value))
        }
    }

    /// The raw `f64` value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Splits this budget into `(self * k/(k+1), self * 1/(k+1))` — the
    /// paper's `(epsilon_1, epsilon_2)` given the ratio `k = eps1/eps2`.
    ///
    /// # Panics
    /// Panics if `k` is not finite and positive.
    pub fn split_ratio(self, k: f64) -> (Epsilon, Epsilon) {
        assert!(
            k.is_finite() && k > 0.0,
            "ratio k must be positive, got {k}"
        );
        let e2 = self.0 / (k + 1.0);
        let e1 = self.0 - e2;
        (Epsilon(e1), Epsilon(e2))
    }

    /// Divides the budget evenly over `parts` sub-mechanisms
    /// (e.g. `epsilon_1 / m` per margin).
    ///
    /// # Panics
    /// Panics if `parts == 0`.
    pub fn divide(self, parts: usize) -> Epsilon {
        assert!(parts > 0, "cannot divide a budget into zero parts");
        Epsilon(self.0 / parts as f64)
    }

    /// Scales the budget by a factor in `(0, 1]`.
    ///
    /// # Panics
    /// Panics for factors outside `(0, 1]`.
    pub fn fraction(self, f: f64) -> Epsilon {
        assert!(f > 0.0 && f <= 1.0, "fraction must be in (0,1], got {f}");
        Epsilon(self.0 * f)
    }
}

impl std::fmt::Display for Epsilon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "eps={}", self.0)
    }
}

/// Errors from budget validation or accounting.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BudgetError {
    /// The epsilon value was non-finite or non-positive.
    InvalidEpsilon(f64),
    /// A `spend` would exceed the remaining budget.
    Exhausted {
        /// Amount requested.
        requested: f64,
        /// Amount still available.
        remaining: f64,
    },
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::InvalidEpsilon(v) => {
                write!(f, "invalid epsilon {v}: must be finite and > 0")
            }
            BudgetError::Exhausted {
                requested,
                remaining,
            } => write!(
                f,
                "privacy budget exhausted: requested {requested}, remaining {remaining}"
            ),
        }
    }
}

impl std::error::Error for BudgetError {}

/// Tracks spending against a total budget under sequential composition.
///
/// Mechanisms running on *disjoint* partitions of the data compose in
/// parallel (Theorem 3.2) and should share a single
/// [`spend`](BudgetAccountant::spend).
#[derive(Debug, Clone)]
pub struct BudgetAccountant {
    total: f64,
    spent: f64,
}

impl BudgetAccountant {
    /// Creates an accountant over `total`.
    pub fn new(total: Epsilon) -> Self {
        Self {
            total: total.value(),
            spent: 0.0,
        }
    }

    /// Total budget.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Budget spent so far.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Budget still available.
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }

    /// Records a sequential spend of `eps`, failing if it would exceed the
    /// total (with a tiny tolerance for accumulated floating-point error).
    pub fn spend(&mut self, eps: Epsilon) -> Result<(), BudgetError> {
        let e = eps.value();
        if self.spent + e > self.total * (1.0 + 1e-12) + 1e-15 {
            return Err(BudgetError::Exhausted {
                requested: e,
                remaining: self.remaining(),
            });
        }
        self.spent += e;
        Ok(())
    }

    /// [`BudgetAccountant::spend`] that also publishes the debit to the
    /// observability sink: one `budget_spends_total{stage}` event and
    /// the amount in `budget_eps_spent_neps{stage}`, quantised to
    /// integer nano-ε (`round(ε · 1e9)`) so parallel pipelines
    /// accumulate the ledger with order-independent integer adds.
    /// Nothing is published when the spend fails.
    pub fn spend_tracked(
        &mut self,
        eps: Epsilon,
        stage: &str,
        sink: &obskit::MetricsSink,
    ) -> Result<(), BudgetError> {
        self.spend(eps)?;
        if sink.enabled() {
            let labels = [("stage", stage)];
            sink.add_labeled(
                obskit::names::BUDGET_SPENDS_TOTAL,
                &labels,
                obskit::Unit::Count,
                1,
            );
            sink.add_labeled(
                obskit::names::BUDGET_EPS_SPENT_NEPS,
                &labels,
                obskit::Unit::NanoEps,
                nano_eps(eps),
            );
        }
        Ok(())
    }
}

/// Quantises a budget to integer nano-ε for metric accumulation.
pub fn nano_eps(eps: Epsilon) -> u64 {
    (eps.value() * 1e9).round() as u64
}

/// A per-shard budget sub-ledger: labeled debits kept in integer nano-ε
/// so that merging across shards is exact, order-independent integer
/// arithmetic (no float accumulation drift between merge orders).
///
/// Each shard of a sharded fit records what *its* mechanisms spent per
/// stage label; [`ShardLedger::merge_parallel`] then folds the shard
/// ledgers into the combined cost under parallel composition
/// (Theorem 3.2): mechanisms with the same label run on **disjoint**
/// row shards, so the pooled release costs the *maximum* any single
/// shard spent on that label — not the sum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardLedger {
    /// Insertion-ordered `(label, nano-ε)` entries.
    entries: Vec<(String, u64)>,
}

impl ShardLedger {
    /// An empty sub-ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates a debit of `eps` (quantised to nano-ε) under `label`.
    pub fn spend(&mut self, label: &str, eps: Epsilon) {
        self.spend_neps(label, nano_eps(eps));
    }

    /// Accumulates a raw nano-ε debit under `label`.
    pub fn spend_neps(&mut self, label: &str, neps: u64) {
        if let Some(entry) = self.entries.iter_mut().find(|(l, _)| l == label) {
            entry.1 += neps;
        } else {
            self.entries.push((label.to_string(), neps));
        }
    }

    /// Nano-ε spent under `label` (0 for unknown labels).
    pub fn spent_neps(&self, label: &str) -> u64 {
        self.entries
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0, |(_, n)| *n)
    }

    /// Total nano-ε across all labels (sequential composition within the
    /// shard).
    pub fn total_neps(&self) -> u64 {
        self.entries.iter().map(|(_, n)| n).sum()
    }

    /// The `(label, nano-ε)` entries in insertion order.
    pub fn entries(&self) -> &[(String, u64)] {
        &self.entries
    }

    /// Folds per-shard sub-ledgers into the combined ledger under
    /// parallel composition (Theorem 3.2): for every label, the merged
    /// cost is the **maximum** nano-ε any single shard spent on it,
    /// because same-label mechanisms act on disjoint row shards. Labels
    /// keep their first-appearance order across the shard sequence.
    pub fn merge_parallel(shards: &[ShardLedger]) -> ShardLedger {
        let mut merged = ShardLedger::new();
        for shard in shards {
            for (label, neps) in &shard.entries {
                if let Some(entry) = merged.entries.iter_mut().find(|(l, _)| l == label) {
                    entry.1 = entry.1.max(*neps);
                } else {
                    merged.entries.push((label.clone(), *neps));
                }
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_validation() {
        assert!(Epsilon::new(1.0).is_ok());
        assert!(Epsilon::new(0.0).is_err());
        assert!(Epsilon::new(-0.5).is_err());
        assert!(Epsilon::new(f64::NAN).is_err());
        assert!(Epsilon::new(f64::INFINITY).is_err());
    }

    #[test]
    fn split_ratio_matches_paper_k() {
        let e = Epsilon::new(1.0).unwrap();
        let (e1, e2) = e.split_ratio(8.0);
        assert!((e1.value() - 8.0 / 9.0).abs() < 1e-12);
        assert!((e2.value() - 1.0 / 9.0).abs() < 1e-12);
        assert!((e1.value() + e2.value() - 1.0).abs() < 1e-12);
        // k = eps1/eps2 recovered.
        assert!((e1.value() / e2.value() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn divide_and_fraction() {
        let e = Epsilon::new(0.9).unwrap();
        assert!((e.divide(3).value() - 0.3).abs() < 1e-12);
        assert!((e.fraction(0.5).value() - 0.45).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn divide_by_zero_panics() {
        let _ = Epsilon::new(1.0).unwrap().divide(0);
    }

    #[test]
    fn accountant_enforces_total() {
        let mut acc = BudgetAccountant::new(Epsilon::new(1.0).unwrap());
        acc.spend(Epsilon::new(0.6).unwrap()).unwrap();
        assert!((acc.remaining() - 0.4).abs() < 1e-12);
        acc.spend(Epsilon::new(0.4).unwrap()).unwrap();
        assert!(acc.spend(Epsilon::new(0.01).unwrap()).is_err());
    }

    #[test]
    fn accountant_allows_exact_split() {
        // The exact k-split plus per-part divisions must sum to the total
        // without tripping the tolerance.
        let total = Epsilon::new(1.0).unwrap();
        let (e1, e2) = total.split_ratio(8.0);
        let mut acc = BudgetAccountant::new(total);
        let m = 8;
        for _ in 0..m {
            acc.spend(e1.divide(m)).unwrap();
        }
        let pairs = m * (m - 1) / 2;
        for _ in 0..pairs {
            acc.spend(e2.divide(pairs)).unwrap();
        }
        assert!(acc.remaining() < 1e-9);
    }

    #[test]
    fn spend_tracked_publishes_ledger_series() {
        use std::sync::Arc;
        let registry = Arc::new(obskit::MetricsRegistry::new());
        let sink = obskit::MetricsSink::to_registry(registry.clone());
        let mut acc = BudgetAccountant::new(Epsilon::new(1.0).unwrap());
        acc.spend_tracked(Epsilon::new(0.25).unwrap(), "margins", &sink)
            .unwrap();
        acc.spend_tracked(Epsilon::new(0.25).unwrap(), "margins", &sink)
            .unwrap();
        acc.spend_tracked(Epsilon::new(0.5).unwrap(), "correlation", &sink)
            .unwrap();
        // A failing spend publishes nothing.
        assert!(acc
            .spend_tracked(Epsilon::new(0.5).unwrap(), "correlation", &sink)
            .is_err());
        let snap = registry.snapshot();
        let get = |id: &str| snap.get(id).and_then(|e| e.value.as_u64());
        assert_eq!(get(r#"budget_spends_total{stage="margins"}"#), Some(2));
        assert_eq!(
            get(r#"budget_eps_spent_neps{stage="margins"}"#),
            Some(500_000_000)
        );
        assert_eq!(get(r#"budget_spends_total{stage="correlation"}"#), Some(1));
        assert_eq!(
            get(r#"budget_eps_spent_neps{stage="correlation"}"#),
            Some(500_000_000)
        );
    }

    #[test]
    fn nano_eps_quantisation() {
        assert_eq!(nano_eps(Epsilon::new(1.0).unwrap()), 1_000_000_000);
        assert_eq!(nano_eps(Epsilon::new(0.1).unwrap()), 100_000_000);
        assert_eq!(nano_eps(Epsilon::new(1e-9).unwrap()), 1);
    }

    #[test]
    fn shard_ledger_accumulates_in_nano_eps() {
        let mut ledger = ShardLedger::new();
        ledger.spend("margins", Epsilon::new(0.25).unwrap());
        ledger.spend("margins", Epsilon::new(0.25).unwrap());
        ledger.spend("correlation", Epsilon::new(0.1).unwrap());
        assert_eq!(ledger.spent_neps("margins"), 500_000_000);
        assert_eq!(ledger.spent_neps("correlation"), 100_000_000);
        assert_eq!(ledger.spent_neps("unknown"), 0);
        assert_eq!(ledger.total_neps(), 600_000_000);
        assert_eq!(ledger.entries().len(), 2);
    }

    #[test]
    fn parallel_merge_takes_per_label_maximum() {
        // Theorem 3.2: same-label mechanisms on disjoint shards cost the
        // max over shards, never the sum.
        let mut a = ShardLedger::new();
        a.spend("margins", Epsilon::new(0.5).unwrap());
        a.spend("correlation", Epsilon::new(0.1).unwrap());
        let mut b = ShardLedger::new();
        b.spend("margins", Epsilon::new(0.5).unwrap());
        b.spend("correlation", Epsilon::new(0.2).unwrap());
        b.spend("extra", Epsilon::new(0.05).unwrap());
        let merged = ShardLedger::merge_parallel(&[a.clone(), b.clone()]);
        assert_eq!(merged.spent_neps("margins"), 500_000_000);
        assert_eq!(merged.spent_neps("correlation"), 200_000_000);
        assert_eq!(merged.spent_neps("extra"), 50_000_000);
        assert_eq!(merged.total_neps(), 750_000_000);
        // Merging is order-independent and idempotent for one shard.
        assert_eq!(merged, ShardLedger::merge_parallel(&[b, a.clone()]));
        assert_eq!(ShardLedger::merge_parallel(&[a.clone()]), a);
        assert_eq!(ShardLedger::merge_parallel(&[]), ShardLedger::new());
    }

    #[test]
    fn shard_ledger_merge_is_exact_integer_arithmetic() {
        // 10 shards each spending an epsilon that does not sum cleanly in
        // f64 still merge to the exact per-label nano-ε maximum.
        let shards: Vec<ShardLedger> = (1..=10u64)
            .map(|i| {
                let mut l = ShardLedger::new();
                l.spend_neps("margins", i * 111_111_111);
                l
            })
            .collect();
        let merged = ShardLedger::merge_parallel(&shards);
        assert_eq!(merged.spent_neps("margins"), 1_111_111_110);
    }
}
