//! Figure 11: time efficiency.
//!
//! (a) wall time vs cardinality `n` on the 4-D (simulated) US census —
//!     expected linear in `n` for every method, PSD above DPCopula;
//! (b) wall time vs dimensionality at `n = 50 000` — DPCopula grows
//!     ~quadratically with `m` (pairwise coefficients) but stays
//!     acceptable at 8-D.
//!
//! Timing covers one full publish-plus-answer-the-workload cycle per
//! method (the lazy Privelet+ defers its transform work to query time, so
//! publication alone would not be comparable; see EXPERIMENTS.md).

use crate::methods::Method;
use crate::params::ExperimentParams;
use crate::report::{fmt, Table};
use crate::runner::evaluate_timed;
use datagen::census::us_census;
use datagen::synthetic::{MarginKind, SyntheticSpec};
use dpcopula::{DpCopulaConfig, EngineOptions, SynthesisRequest};
use dpmech::Epsilon;
use queryeval::Workload;
use rngkit::rngs::StdRng;
use rngkit::SeedableRng;

/// Cardinalities swept in panel (a).
pub const CARDINALITIES: [usize; 5] = [25_000, 50_000, 100_000, 200_000, 400_000];

/// Runs both panels.
pub fn run_fig11(params: &ExperimentParams) -> Vec<Table> {
    // Timing runs are serial and single-shot; keep the workload small so
    // the truth scan does not dominate.
    let queries = params.queries.min(200);
    let quick = std::env::var("QUICK").map(|v| v == "1").unwrap_or(false);

    // Panel (a): time vs n on 4-D census data.
    let mut ta = Table::new(
        "fig11a_time_vs_n",
        &["n", "DPCopula_s", "PSD_s", "PriveletPlus_s"],
    );
    let cards: Vec<usize> = if quick {
        vec![10_000, 25_000, 50_000]
    } else {
        CARDINALITIES.to_vec()
    };
    for &n in &cards {
        let data = us_census(n, 0x11a);
        let mut rng = StdRng::seed_from_u64(0xf21);
        let workload = Workload::random(&data.domains(), queries, &mut rng);
        let truth = workload.true_counts(data.columns());
        let mut row = vec![n.to_string()];
        for method in [Method::DpCopulaKendall, Method::Psd, Method::PriveletPlus] {
            let out = evaluate_timed(
                method,
                data.columns(),
                &data.domains(),
                params.epsilon,
                params.k_ratio,
                &workload,
                &truth,
                params.sanity,
                1,
                0x11a0,
            );
            println!(
                "fig11a: n={n} {} -> {:.3}s",
                method.name(),
                out.mean_time.as_secs_f64()
            );
            row.push(fmt(out.mean_time.as_secs_f64()));
        }
        ta.push_row(row);
    }

    // Panel (b): time vs m on synthetic data.
    let mut tb = Table::new("fig11b_time_vs_m", &["m", "DPCopula_s", "PSD_s"]);
    for m in [2usize, 4, 6, 8] {
        let data = SyntheticSpec {
            records: params.records,
            dims: m,
            domain: params.domain,
            margin: MarginKind::Gaussian,
            ..Default::default()
        }
        .generate();
        let mut rng = StdRng::seed_from_u64(0xf22);
        let workload = Workload::random(&data.domains(), queries, &mut rng);
        let truth = workload.true_counts(data.columns());
        let mut row = vec![m.to_string()];
        for method in [Method::DpCopulaKendall, Method::Psd] {
            let out = evaluate_timed(
                method,
                data.columns(),
                &data.domains(),
                params.epsilon,
                params.k_ratio,
                &workload,
                &truth,
                params.sanity,
                1,
                0x11b0,
            );
            println!(
                "fig11b: m={m} {} -> {:.3}s",
                method.name(),
                out.mean_time.as_secs_f64()
            );
            row.push(fmt(out.mean_time.as_secs_f64()));
        }
        tb.push_row(row);
    }

    // Panel (c) — extension beyond the paper: per-stage wall time of the
    // staged engine on fig11-sized census data at 1/2/4 workers. The
    // determinism contract guarantees the *released bytes* are identical
    // across rows; only the timings move.
    let mut tc = Table::new(
        "fig11c_stage_times",
        &[
            "workers",
            "budget_plan_s",
            "margins_s",
            "correlation_s",
            "pd_repair_s",
            "sampling_s",
            "total_s",
        ],
    );
    let n = if quick { 25_000 } else { 100_000 };
    let data = us_census(n, 0x11c);
    let config = DpCopulaConfig::kendall(
        Epsilon::new(params.epsilon).expect("experiment epsilon is positive"),
    )
    .with_k_ratio(params.k_ratio);
    for workers in [1usize, 2, 4] {
        let (_, report) = SynthesisRequest::from_config(data.columns(), &data.domains(), config)
            .engine(EngineOptions::with_workers(workers))
            .seed(0x11c0)
            .run()
            .expect("census synthesis succeeds");
        let t = report.timings;
        println!(
            "fig11c: workers={workers} total={:.3}s correlation={:.3}s",
            t.total().as_secs_f64(),
            t.correlation.as_secs_f64()
        );
        let mut row = vec![workers.to_string()];
        for (_, d) in t.stages() {
            row.push(fmt(d.as_secs_f64()));
        }
        row.push(fmt(t.total().as_secs_f64()));
        tc.push_row(row);
    }

    vec![ta, tb, tc]
}
