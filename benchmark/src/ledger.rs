//! The stage identity, checked in traced runs: the measured time per post
//! must be the sum of the separately timed layer terms plus a remainder
//! nothing timed. Terms that add up to *more* than the measured time are
//! double counting and fail the run; a large remainder is a finding about
//! the system (where the next issue should look), not a benchmark bug.

use crate::run::Run;
use crate::spec::Kind;

/// Timed terms may exceed the measured per-post time by this share before
/// the run fails.
const DOUBLE_COUNT_SLACK: f64 = 0.05;

/// A remainder above this share of the per-post time draws a warning.
const REMAINDER_WARN: f64 = 0.30;

/// One timed term, in microseconds per post.
struct Term {
    name: &'static str,
    us: f64,
}

/// Split `per_post_us` into `terms` and the remainder, print the table, and
/// return the remainder (negative when the terms overshoot).
fn settle(
    workload: &str,
    per_post_us: f64,
    terms: &[Term],
    remainder: &str,
) -> Result<f64, String> {
    let timed: f64 = terms.iter().map(|t| t.us).sum();
    let rest = per_post_us - timed;
    eprintln!("-- ledger {workload}: {per_post_us:.3} us per post");
    for t in terms {
        eprintln!(
            "   {:<52} {:>9.3} us {:>6.1}%",
            t.name,
            t.us,
            t.us / per_post_us * 100.0
        );
    }
    eprintln!(
        "   {:<52} {:>9.3} us {:>6.1}%",
        remainder,
        rest,
        rest / per_post_us * 100.0
    );
    if timed > per_post_us * (1.0 + DOUBLE_COUNT_SLACK) {
        return Err(format!(
            "{workload}: the timed terms sum to {timed:.3} us per post, more than the measured \
             {per_post_us:.3} us: a term is counted twice"
        ));
    }
    if rest > per_post_us * REMAINDER_WARN {
        eprintln!(
            "   warning: {:.0}% of the per-post time is unattributed; no layer the benchmark \
             times from outside accounts for it",
            rest / per_post_us * 100.0
        );
    }
    Ok(rest)
}

/// Print and check the identity for this run's workload.
pub fn check(run: &mut Run) -> Result<(), String> {
    let name = run.params.name;
    let get = |run: &Run, metric: &str| run.out.get(metric).unwrap_or(0.0);
    let per_post_us = 1e6 / get(run, "offers_per_s");
    if run.params.rate > 0 {
        // Below saturation the time per post is set by the schedule, not by
        // the work: there is no identity to check.
        eprintln!(
            "-- ledger {name}: open loop at {} posts/s, no stage identity",
            run.params.rate
        );
        return Ok(());
    }
    match run.params.kind {
        Kind::Spsd { .. } => {
            // Every term comes from the traced passes' own spans, so the
            // identity closes on the span tree: the pass is its children
            // plus the self time of the spans that only loop.
            let (pass_ns, posts) = run.tracer.total("pass");
            let per_post_us = pass_ns as f64 / 1e3 / posts.max(1) as f64;
            let loop_ns = run.tracer.self_ns("pass") + run.tracer.self_ns("batch");
            let terms = [
                Term {
                    name: "simhash.fingerprint",
                    us: get(run, "simhash.fingerprint_ns_per_post") / 1e3,
                },
                Term {
                    name: "engine.offer_record",
                    us: get(run, "engine.offer_record_ns_per_post") / 1e3,
                },
                Term {
                    name: "self time of the pass and batch spans (the loop)",
                    us: loop_ns as f64 / 1e3 / posts.max(1) as f64,
                },
            ];
            settle(name, per_post_us, &terms, "remainder")?;
        }
        Kind::Mspsd => {
            let (apply_ns, _) = run.tracer.total("multi.apply");
            let (_, traced_posts) = run.tracer.total("service.process_batch");
            let terms = [
                Term {
                    name: "simhash.fingerprint",
                    us: get(run, "simhash.fingerprint_ns_per_post") / 1e3,
                },
                Term {
                    name: "engine.offer_record x multi.engine_offers_per_post",
                    us: get(run, "engine.offer_record_ns_per_post") / 1e3
                        * get(run, "multi.engine_offers_per_post"),
                },
                Term {
                    name: "simhash.scan x engine.comparisons_per_post",
                    us: get(run, "simhash.scan_ns_per_fp") / 1e3
                        * get(run, "engine.comparisons_per_post"),
                },
                Term {
                    name: "multi.apply (churn ops, spread over the posts)",
                    us: apply_ns as f64 / 1e3 / traced_posts.max(1) as f64,
                },
            ];
            settle(name, per_post_us, &terms, "routing + fan-out remainder")?;
        }
        Kind::Wire => {
            let batch = run.params.batch as f64;
            let terms = [
                Term {
                    name: "net.http_parse (per request / batch)",
                    us: get(run, "net.http_parse_ns_per_request") / 1e3 / batch,
                },
                Term {
                    name: "stream.corpus_read",
                    us: get(run, "stream.corpus_read_ns_per_post") / 1e3,
                },
                Term {
                    name: "multi.process (fingerprint + engines + fan-out)",
                    us: get(run, "multi.process_ns_per_post") / 1e3,
                },
                Term {
                    name: "net.decision_line",
                    us: get(run, "net.decision_line_ns_per_post") / 1e3,
                },
                Term {
                    name: "net.delivery_line x multi.deliveries_per_post",
                    us: get(run, "net.delivery_line_ns_per_delivery") / 1e3
                        * get(run, "multi.deliveries_per_post"),
                },
                Term {
                    name: "multi.shard_hop",
                    us: get(run, "multi.shard_hop_ns_per_post").max(0.0) / 1e3,
                },
            ];
            let other = settle(
                name,
                per_post_us,
                &terms,
                "net.other (syscalls, loop, copies)",
            )?;
            run.out.set("net.other_us_per_post", other, 1);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terms_over_the_measured_time_are_double_counting() {
        let terms = |a, b| [Term { name: "a", us: a }, Term { name: "b", us: b }];
        assert_eq!(settle("w", 10.0, &terms(3.0, 4.0), "rest"), Ok(3.0));
        // 4% over is inside the slack; the remainder reads negative.
        assert!(settle("w", 10.0, &terms(6.0, 4.4), "rest").is_ok_and(|r| r < 0.0));
        assert!(settle("w", 10.0, &terms(6.0, 4.6), "rest").is_err());
        // A large remainder warns but passes.
        assert_eq!(settle("w", 10.0, &terms(1.0, 1.0), "rest"), Ok(8.0));
    }
}
