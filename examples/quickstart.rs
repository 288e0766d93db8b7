//! Quickstart: synthesize a differentially private copy of a small
//! two-attribute dataset and check what survived.
//!
//! ```sh
//! cargo run -p dpcopula-examples --release --bin quickstart
//! ```

use dpcopula::convergence::ConvergenceReport;
use dpcopula::kendall::kendall_tau;
use dpcopula::synthesizer::DpCopulaConfig;
use dpcopula::SynthesisRequest;
use dpcopula_examples::heading;
use dpmech::Epsilon;
use mathkit::correlation::equicorrelation;
use mathkit::dist::MultivariateNormal;
use mathkit::special::norm_cdf;
use rngkit::rngs::StdRng;
use rngkit::{RngCore, SeedableRng};

fn main() {
    // 1. Make a toy dataset: two attributes on a domain of 200 values,
    //    strongly dependent (Gaussian dependence, rho = 0.75).
    heading("original data");
    let n = 20_000;
    let domain = 200usize;
    let mvn = MultivariateNormal::new(&equicorrelation(2, 0.75)).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let columns: Vec<Vec<u32>> = mvn
        .sample_columns(&mut rng, n)
        .into_iter()
        .map(|zc| {
            zc.into_iter()
                .map(|z| ((norm_cdf(z) * domain as f64) as u32).min(domain as u32 - 1))
                .collect()
        })
        .collect();
    let tau_before = kendall_tau(&columns[0], &columns[1]);
    println!("records: {n}, domains: {domain}x{domain}");
    println!("kendall tau(a, b) = {tau_before:.3}");

    // 2. Synthesize under a total budget of epsilon = 1.0 with the
    //    paper's defaults (Kendall correlation, k = 8, EFPA margins).
    heading("DPCopula synthesis (epsilon = 1.0)");
    let config = DpCopulaConfig::kendall(Epsilon::new(1.0).unwrap());
    let (synthesis, _) = SynthesisRequest::from_config(&columns, &[domain, domain], config)
        .seed(rng.next_u64())
        .run()
        .expect("synthesis failed");
    println!(
        "budget split: margins eps1 = {:.3}, correlations eps2 = {:.3}",
        synthesis.epsilon_margins, synthesis.epsilon_correlations
    );
    println!(
        "released correlation matrix entry P[0,1] = {:.3}",
        synthesis.correlation[(0, 1)]
    );

    // 3. Compare: margins, dependence, and a few range counts.
    heading("utility check");
    let tau_after = kendall_tau(&synthesis.columns[0], &synthesis.columns[1]);
    println!("kendall tau original {tau_before:.3} -> synthetic {tau_after:.3}");
    let report = ConvergenceReport::compare(&columns, &synthesis.columns);
    println!(
        "max marginal KS distance = {:.4}, max tau gap = {:.4}",
        report.max_marginal_ks(),
        report.max_tau_gap
    );

    for (lo_a, hi_a, lo_b, hi_b) in [
        (0u32, 99u32, 0u32, 99u32),
        (50, 150, 50, 150),
        (0, 20, 180, 199),
    ] {
        let truth = count(&columns, lo_a, hi_a, lo_b, hi_b);
        let synth = count(&synthesis.columns, lo_a, hi_a, lo_b, hi_b);
        println!(
            "count(a in [{lo_a},{hi_a}], b in [{lo_b},{hi_b}]): true {truth}, synthetic {synth}"
        );
    }
    println!("\ndone — the synthetic table is safe to publish under 1.0-DP.");
}

fn count(cols: &[Vec<u32>], lo_a: u32, hi_a: u32, lo_b: u32, hi_b: u32) -> usize {
    cols[0]
        .iter()
        .zip(&cols[1])
        .filter(|(&a, &b)| a >= lo_a && a <= hi_a && b >= lo_b && b <= hi_b)
        .count()
}
