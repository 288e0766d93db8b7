//! Fit once, sample many: fit a DPCopula model on the simulated US
//! census, persist it as a `.dpcm` artifact, then serve three disjoint
//! row shards from a "fresh server" that only ever sees the artifact —
//! demonstrating that serving is free post-processing and that sharded
//! servers jointly reproduce the single-machine output bit for bit.
//!
//! ```sh
//! cargo run -p dpcopula-examples --release --bin fit_once_sample_many
//! ```

use datagen::census::us_census;
use dpcopula::{EngineOptions, FittedModel, SamplingProfile, SynthesisRequest};
use dpcopula_examples::heading;
use dpmech::Epsilon;

fn main() {
    heading("fitting the model (this is the only step that spends epsilon)");
    let data = us_census(30_000, 13);
    let domains = data.domains();
    let (mut model, report) =
        SynthesisRequest::new(data.columns(), &domains, Epsilon::new(1.0).unwrap())
            .engine(EngineOptions::with_workers(4))
            .seed(2024)
            .fit()
            .expect("fit failed");
    let names: Vec<&str> = data.attributes().iter().map(|a| a.name.as_str()).collect();
    model.set_attribute_names(&names);
    println!(
        "fitted {} attributes from {} records in {:?}",
        model.dims(),
        data.len(),
        report.timings.total()
    );
    let ledger = &model.artifact().ledger;
    for e in &ledger.entries {
        println!("  spent epsilon {:.4} on {}", e.epsilon, e.label);
    }
    println!("  total: {:.4} of {:.4}", ledger.spent(), ledger.total);

    heading("persisting the release as a .dpcm artifact");
    std::fs::create_dir_all("results").expect("cannot create results dir");
    let path = "results/us_census_model.dpcm";
    model.save(path).expect("cannot write artifact");
    let bytes = std::fs::metadata(path).expect("stat artifact").len();
    println!("wrote {path} ({bytes} bytes, checksummed, self-describing)");

    heading("serving from a fresh process: three disjoint shards");
    // A deployment would do this on three separate machines; each loads
    // the artifact and owns one row range. No raw data, no extra budget.
    let n = 30_000;
    let shard_rows = n / 3;
    let mut shards = Vec::new();
    for s in 0..3 {
        let server = FittedModel::load(path).expect("artifact must load");
        let offset = s * shard_rows;
        let rows = server
            .try_sample_range_profiled(SamplingProfile::Reference, offset, shard_rows, 1 + s)
            .expect("in-range window");
        println!(
            "  server {s}: rows [{offset}, {}) with {} worker(s)",
            offset + shard_rows,
            1 + s
        );
        shards.push(rows);
    }

    heading("checking the shards stitch to the single-machine output");
    let reference = FittedModel::load(path)
        .expect("artifact must load")
        .try_sample_range_profiled(SamplingProfile::Reference, 0, n, 8)
        .expect("in-range window");
    for j in 0..model.dims() {
        let stitched: Vec<u32> = shards.iter().flat_map(|s| s[j].iter().copied()).collect();
        assert_eq!(stitched, reference[j], "column {j} must stitch exactly");
    }
    println!(
        "all {} columns identical — shards are seamless.",
        model.dims()
    );
    println!(
        "\nevery row above is post-processing of one {:.1}-DP release:\n\
         serve as many rows, from as many servers, as you like.",
        ledger.total
    );
}
