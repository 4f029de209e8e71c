//! The analytical cost model of Section 4.4 / Table 2.
//!
//! With `m` subscribed authors producing `n` posts per `λt` window, an
//! emit ratio `r`, and similarity-graph topology `d` (neighbors/author),
//! `c` (cliques/author) and `s` (authors/clique), the per-window estimates
//! are:
//!
//! | | UniBin | NeighborBin | CliqueBin |
//! |---|---|---|---|
//! | RAM (records) | `r·n` | `(d+1)·r·n` | `c·r·n` |
//! | comparisons | `r·n²` | `(d+1)/m·r·n²` | `s·c/m·r·n²` |
//! | insertions | `r·n` | `(d+1)·r·n` | `c·r·n` |
//!
//! The `table2_cost_model` benchmark checks these predictions against the
//! engines' measured counters.

use firehose_core::engine::AlgorithmKind;

/// Model inputs, either assumed or measured from a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostInputs {
    /// Subscribed authors (`m`).
    pub m: f64,
    /// Posts arriving per `λt` window (`n`).
    pub n: f64,
    /// Fraction of posts emitted after diversification (`r`).
    pub r: f64,
    /// Average neighbors per author (`d`).
    pub d: f64,
    /// Average cliques per author (`c`).
    pub c: f64,
    /// Average authors per clique (`s`).
    pub s: f64,
}

/// Predicted per-λt-window costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPrediction {
    /// Stored record copies (RAM, in records).
    pub ram_records: f64,
    /// Pairwise post comparisons.
    pub comparisons: f64,
    /// Bin insertions.
    pub insertions: f64,
}

impl CostInputs {
    /// Table 2, one column.
    pub fn predict(&self, kind: AlgorithmKind) -> CostPrediction {
        let rn = self.r * self.n;
        match kind {
            AlgorithmKind::UniBin => CostPrediction {
                ram_records: rn,
                comparisons: rn * self.n,
                insertions: rn,
            },
            AlgorithmKind::NeighborBin => CostPrediction {
                ram_records: (self.d + 1.0) * rn,
                comparisons: (self.d + 1.0) / self.m * rn * self.n,
                insertions: (self.d + 1.0) * rn,
            },
            AlgorithmKind::CliqueBin => CostPrediction {
                ram_records: self.c * rn,
                comparisons: self.s * self.c / self.m * rn * self.n,
                insertions: self.c * rn,
            },
        }
    }

    /// The algorithm with the fewest predicted comparisons.
    pub fn fewest_comparisons(&self) -> AlgorithmKind {
        AlgorithmKind::ALL
            .into_iter()
            .min_by(|&a, &b| {
                self.predict(a)
                    .comparisons
                    .partial_cmp(&self.predict(b).comparisons)
                    .expect("predictions are finite")
            })
            .expect("ALL is non-empty")
    }

    /// The algorithm with the smallest predicted RAM.
    pub fn least_ram(&self) -> AlgorithmKind {
        AlgorithmKind::ALL
            .into_iter()
            .min_by(|&a, &b| {
                self.predict(a)
                    .ram_records
                    .partial_cmp(&self.predict(b).ram_records)
                    .expect("predictions are finite")
            })
            .expect("ALL is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's λa = 0.7 topology: d ≈ 113.7, c ≈ 29, s ≈ 20, m = 20,150.
    fn paper_inputs() -> CostInputs {
        CostInputs {
            m: 20_150.0,
            n: 4_441.0,
            r: 0.9,
            d: 113.7,
            c: 29.0,
            s: 20.0,
        }
    }

    #[test]
    fn table2_formulas() {
        let i = CostInputs {
            m: 100.0,
            n: 1_000.0,
            r: 0.5,
            d: 9.0,
            c: 3.0,
            s: 4.0,
        };
        let u = i.predict(AlgorithmKind::UniBin);
        assert_eq!(u.ram_records, 500.0);
        assert_eq!(u.comparisons, 500_000.0);
        assert_eq!(u.insertions, 500.0);

        let nb = i.predict(AlgorithmKind::NeighborBin);
        assert_eq!(nb.ram_records, 5_000.0);
        assert_eq!(nb.comparisons, 50_000.0);
        assert_eq!(nb.insertions, 5_000.0);

        let cb = i.predict(AlgorithmKind::CliqueBin);
        assert_eq!(cb.ram_records, 1_500.0);
        assert_eq!(cb.comparisons, 60_000.0);
        assert_eq!(cb.insertions, 1_500.0);
    }

    #[test]
    fn unibin_always_least_ram() {
        // d ≥ 0 ⇒ d+1 ≥ 1 and c ≥ 1 whenever cliques exist.
        assert_eq!(paper_inputs().least_ram(), AlgorithmKind::UniBin);
    }

    #[test]
    fn neighborbin_fewest_comparisons_on_sparse_graphs() {
        // (d+1)/m < s·c/m < 1 for the paper's topology.
        assert_eq!(
            paper_inputs().fewest_comparisons(),
            AlgorithmKind::NeighborBin
        );
    }

    #[test]
    fn dense_graph_favors_unibin_comparisons() {
        // d+1 > m means per-author bins are larger than the whole window.
        let i = CostInputs {
            m: 10.0,
            n: 100.0,
            r: 0.9,
            d: 12.0,
            c: 8.0,
            s: 6.0,
        };
        assert_eq!(i.fewest_comparisons(), AlgorithmKind::UniBin);
    }

    #[test]
    fn ram_ordering_uni_clique_neighbor() {
        // Table 3: Low (Uni) < Moderate (Clique) < High (Neighbor) whenever
        // 1 < c < d+1.
        let i = paper_inputs();
        let u = i.predict(AlgorithmKind::UniBin).ram_records;
        let cb = i.predict(AlgorithmKind::CliqueBin).ram_records;
        let nb = i.predict(AlgorithmKind::NeighborBin).ram_records;
        assert!(u < cb && cb < nb);
    }
}
