//! Budget planner: how should you split a privacy budget between margins
//! and correlations (the ratio `k` of the paper's Fig 5), and what does
//! each epsilon buy you?
//!
//! The example sweeps both knobs on a synthetic workload and prints the
//! resulting error grid, plus the budget-accountant trace for one run.
//!
//! ```sh
//! cargo run -p dpcopula-examples --release --bin budget_planner
//! ```

use datagen::synthetic::{MarginKind, SyntheticSpec};
use dpcopula::synthesizer::{DpCopulaConfig, MarginMethod};
use dpcopula::SynthesisRequest;
use dpcopula_examples::heading;
use dpmech::{BudgetAccountant, Epsilon};
use queryeval::{ErrorSummary, Workload};
use rngkit::rngs::StdRng;
use rngkit::{RngCore, SeedableRng};

fn main() {
    let data = SyntheticSpec {
        records: 20_000,
        dims: 4,
        domain: 500,
        margin: MarginKind::Gaussian,
        ..Default::default()
    }
    .generate();
    let mut rng = StdRng::seed_from_u64(3);
    let workload = Workload::random(&data.domains(), 300, &mut rng);
    let truth = workload.true_counts(data.columns());

    heading("error grid: epsilon x budget-ratio k");
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>8}",
        "eps\\k", "0.5", "2", "8", "32"
    );
    for eps in [0.1, 0.5, 1.0, 2.0] {
        let mut row = format!("{eps:>8}");
        for k in [0.5, 2.0, 8.0, 32.0] {
            let config = DpCopulaConfig::kendall(Epsilon::new(eps).unwrap())
                .with_k_ratio(k)
                .with_margin(MarginMethod::Php);
            let mut rel = 0.0;
            let runs = 3;
            for s in 0..runs {
                let mut rng = StdRng::seed_from_u64(100 + s);
                let (out, _) =
                    SynthesisRequest::from_config(data.columns(), &data.domains(), config)
                        .seed(rng.next_u64())
                        .run()
                        .expect("synthesis failed");
                let answers = workload.estimate_with(|q| q.count(&out.columns));
                rel += ErrorSummary::from_answers(&answers, &truth, 1.0).mean_relative;
            }
            row.push_str(&format!(" {:>8.3}", rel / runs as f64));
        }
        println!("{row}");
    }
    println!("\n(read: rows = total epsilon, columns = k = eps1/eps2; the");
    println!(" plateau for k >= 1 is the paper's Fig 5 insensitivity claim)");

    heading("budget accounting trace (epsilon = 1.0, k = 8, m = 4)");
    let total = Epsilon::new(1.0).unwrap();
    let (eps1, eps2) = total.split_ratio(8.0);
    let mut acc = BudgetAccountant::new(total);
    let m = 4;
    for j in 0..m {
        acc.spend(eps1.divide(m)).unwrap();
        println!(
            "  margin {j}: spent {:.4}, remaining {:.4}",
            eps1.divide(m).value(),
            acc.remaining()
        );
    }
    acc.spend(eps2).unwrap();
    println!(
        "  correlations: spent {:.4}, remaining {:.4}",
        eps2.value(),
        acc.remaining()
    );
    println!("  any further spend now fails:");
    let err = acc.spend(Epsilon::new(0.01).unwrap()).unwrap_err();
    println!("  -> {err}");
}
