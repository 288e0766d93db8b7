//! Per-tenant ε admission control for `POST /v1/fit`.
//!
//! Every fit releases differentially private statistics and therefore
//! consumes privacy budget; the gate keeps each tenant's spent ε as one
//! integer nano-ε count and refuses fits that would overdraw the
//! tenant's configured total. Sampling is never routed
//! through the gate: rows drawn from an already-fitted model are
//! post-processing of the released statistics and cost no ε (DP's
//! closure under post-processing), so `/v1/sample` stays unmetered by
//! construction.
//!
//! Admission is conservative: the debit happens *before* the fit runs,
//! and a fit that subsequently fails does **not** refund it. Refunding
//! would make the ledger depend on failure timing — a fit that crashed
//! after releasing noisy margins has already spent real budget — so the
//! gate always charges the full requested ε at admission.

use dpmech::{nano_eps, Epsilon};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Tenant name used when a request carries no `tenant` field and when
/// the daemon runs without a tenant file.
pub const DEFAULT_TENANT: &str = "default";

/// A parse failure in the tenant budget file.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantConfigError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub reason: String,
}

impl std::fmt::Display for TenantConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant budget file line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for TenantConfigError {}

/// An admission refusal.
#[derive(Debug, Clone, PartialEq)]
pub enum GateError {
    /// The request named a tenant the budget file does not define.
    UnknownTenant {
        /// The unrecognised tenant name.
        tenant: String,
    },
    /// The debit would overdraw the tenant's budget.
    Exhausted {
        /// Tenant whose budget ran out.
        tenant: String,
        /// Nano-ε the request asked for.
        requested_neps: u64,
        /// Nano-ε the tenant still has.
        remaining_neps: u64,
    },
}

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateError::UnknownTenant { tenant } => write!(f, "unknown tenant `{tenant}`"),
            GateError::Exhausted {
                tenant,
                requested_neps,
                remaining_neps,
            } => write!(
                f,
                "tenant `{tenant}` budget exhausted: requested {requested_neps} nano-eps, \
                 {remaining_neps} nano-eps remaining"
            ),
        }
    }
}

impl std::error::Error for GateError {}

#[derive(Debug)]
struct TenantLedger {
    total_neps: u64,
    spent_neps: Mutex<u64>,
}

/// The admission gate: per-tenant totals plus spend ledgers.
#[derive(Debug)]
pub struct BudgetGate {
    tenants: BTreeMap<String, TenantLedger>,
}

impl BudgetGate {
    /// A gate with a single `default` tenant holding `total` ε.
    pub fn single_tenant(total: Epsilon) -> Self {
        let mut tenants = BTreeMap::new();
        tenants.insert(
            DEFAULT_TENANT.to_string(),
            TenantLedger {
                total_neps: nano_eps(total),
                spent_neps: Mutex::new(0),
            },
        );
        Self { tenants }
    }

    /// Parses an ini-like tenant budget file: one `name = epsilon` pair
    /// per line, `#` comments and blank lines ignored. Tenant names are
    /// restricted to `[A-Za-z0-9_-]` so they can appear verbatim as
    /// metric label values.
    pub fn from_config(text: &str) -> Result<Self, TenantConfigError> {
        let mut tenants = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let stripped = raw.split('#').next().unwrap_or("").trim();
            if stripped.is_empty() {
                continue;
            }
            let Some((name, value)) = stripped.split_once('=') else {
                return Err(TenantConfigError {
                    line,
                    reason: format!("expected `tenant = epsilon`, got `{stripped}`"),
                });
            };
            let name = name.trim();
            if name.is_empty()
                || !name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
            {
                return Err(TenantConfigError {
                    line,
                    reason: format!("tenant name `{name}` must be non-empty [A-Za-z0-9_-]"),
                });
            }
            let eps: f64 = value.trim().parse().map_err(|_| TenantConfigError {
                line,
                reason: format!("unparseable epsilon `{}`", value.trim()),
            })?;
            let eps = Epsilon::new(eps).map_err(|e| TenantConfigError {
                line,
                reason: e.to_string(),
            })?;
            if tenants
                .insert(
                    name.to_string(),
                    TenantLedger {
                        total_neps: nano_eps(eps),
                        spent_neps: Mutex::new(0),
                    },
                )
                .is_some()
            {
                return Err(TenantConfigError {
                    line,
                    reason: format!("tenant `{name}` defined twice"),
                });
            }
        }
        if tenants.is_empty() {
            return Err(TenantConfigError {
                line: 0,
                reason: "tenant budget file defines no tenants".into(),
            });
        }
        Ok(Self { tenants })
    }

    /// Debits `eps` from `tenant`'s ledger, refusing (without debiting)
    /// when the tenant is unknown or the debit would overdraw the total.
    pub fn admit(&self, tenant: &str, eps: Epsilon) -> Result<(), GateError> {
        let entry = self
            .tenants
            .get(tenant)
            .ok_or_else(|| GateError::UnknownTenant {
                tenant: tenant.to_string(),
            })?;
        let requested = nano_eps(eps);
        let mut spent = entry.spent_neps.lock().expect("tenant ledger poisoned");
        let remaining = entry.total_neps.saturating_sub(*spent);
        if requested > remaining {
            return Err(GateError::Exhausted {
                tenant: tenant.to_string(),
                requested_neps: requested,
                remaining_neps: remaining,
            });
        }
        *spent += requested;
        Ok(())
    }

    /// Nano-ε `tenant` has left, or `None` for unknown tenants.
    pub fn remaining_neps(&self, tenant: &str) -> Option<u64> {
        let entry = self.tenants.get(tenant)?;
        let spent = entry.spent_neps.lock().expect("tenant ledger poisoned");
        Some(entry.total_neps.saturating_sub(*spent))
    }

    /// Tenant names in sorted order.
    pub fn tenants(&self) -> Vec<String> {
        self.tenants.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn parses_ini_budget_file() {
        let gate =
            BudgetGate::from_config("# team budgets\nalpha = 1.0\n\nbeta=0.5 # trailing comment\n")
                .unwrap();
        assert_eq!(gate.tenants(), ["alpha", "beta"]);
        assert_eq!(gate.remaining_neps("alpha"), Some(1_000_000_000));
        assert_eq!(gate.remaining_neps("beta"), Some(500_000_000));
        assert_eq!(gate.remaining_neps("gamma"), None);
    }

    #[test]
    fn config_errors_carry_line_numbers() {
        for (text, line, needle) in [
            ("alpha 1.0\n", 1, "expected"),
            ("alpha = much\n", 1, "unparseable"),
            ("\na!pha = 1.0\n", 2, "must be non-empty"),
            ("alpha = -2\n", 1, "invalid epsilon"),
            ("alpha = 1\nalpha = 2\n", 2, "defined twice"),
            ("# only comments\n", 0, "no tenants"),
        ] {
            let err = BudgetGate::from_config(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}");
            assert!(err.reason.contains(needle), "{text:?} -> {}", err.reason);
        }
    }

    #[test]
    fn admission_debits_until_exhausted_then_429s() {
        let gate = BudgetGate::from_config("alpha = 1.0\n").unwrap();
        gate.admit("alpha", eps(0.4)).unwrap();
        gate.admit("alpha", eps(0.6)).unwrap();
        match gate.admit("alpha", eps(0.1)).unwrap_err() {
            GateError::Exhausted {
                tenant,
                requested_neps,
                remaining_neps,
            } => {
                assert_eq!(tenant, "alpha");
                assert_eq!(requested_neps, 100_000_000);
                assert_eq!(remaining_neps, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A refused admission debits nothing.
        assert_eq!(gate.remaining_neps("alpha"), Some(0));
    }

    #[test]
    fn unknown_tenants_are_refused_by_name() {
        let gate = BudgetGate::single_tenant(eps(1.0));
        gate.admit(DEFAULT_TENANT, eps(0.5)).unwrap();
        assert!(matches!(
            gate.admit("mallory", eps(0.1)),
            Err(GateError::UnknownTenant { tenant }) if tenant == "mallory"
        ));
    }
}
