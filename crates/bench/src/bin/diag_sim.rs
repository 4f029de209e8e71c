//! Diagnostic: empirical followee-cosine vs ring distance.

use firehose_bench::Scale;
use firehose_datagen::SyntheticSocialGraph;
use firehose_graph::followee_cosine;

fn main() {
    let g = SyntheticSocialGraph::generate(Scale::Bench.social_config());
    let n = g.author_count() as u32;
    println!("F(author 500) = {}", g.graph.followees(500).len());
    for delta in [
        1u32, 10, 25, 50, 75, 100, 150, 200, 250, 300, 400, 500, 600, 800, 1200, 2000,
    ] {
        let mut total = 0.0;
        let k = 40;
        for i in 0..k {
            let a = (200 + i * 97) % n;
            let b = (a + delta) % n;
            total += followee_cosine(&g.graph, a, b);
        }
        println!("δ={delta:5}  cos={:.4}", total / f64::from(k));
    }
}
