//! Figure 3: precision/recall of the Hamming-threshold redundancy test on
//! **raw** tweet text, over the surrogate user study (2,000 stratified
//! pairs; see `firehose_datagen::UserStudy` for the substitution rationale).

use firehose_bench::{f3, Report, Scale};
use firehose_datagen::{UserStudy, UserStudyConfig};
use firehose_simhash::SimHashOptions;

fn main() {
    let scale = Scale::from_env();
    let pairs_per_distance = if scale == Scale::Test { 15 } else { 100 };
    let study = UserStudy::generate(UserStudyConfig {
        pairs_per_distance,
        ..UserStudyConfig::default()
    });
    eprintln!(
        "[fig03] {} pairs, {} labeled redundant (paper: 949 of 2000)",
        study.len(),
        study.redundant_count()
    );

    let mut r = Report::new(
        "fig03_precision_recall_raw",
        &["threshold", "precision", "recall"],
    );
    for pr in study.precision_recall(SimHashOptions::raw()) {
        r.row(&[pr.threshold.to_string(), f3(pr.precision), f3(pr.recall)]);
    }
    r.finish();

    let cross = study.crossover(SimHashOptions::raw());
    println!(
        "crossover (raw): h={} P={:.3} R={:.3}",
        cross.threshold, cross.precision, cross.recall
    );
}
