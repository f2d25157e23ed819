//! LabelPick: label-function selection (paper §3.4, Figure 2).
//!
//! Two stages:
//!
//! 1. **Accuracy pruning** — LFs whose validation-split accuracy (over the
//!    instances they fire on) is no better than random (`≤ 1/C`) are
//!    dropped (λ4 in the paper's running example).
//! 2. **Markov-blanket selection** — a small supervised dataset `L_Λ` is
//!    assembled from the past query instances: one row per query, columns =
//!    the surviving LFs' votes plus the pseudo-label. The graphical lasso
//!    estimates the dependency structure between LFs and label, and the LFs
//!    with non-zero partial correlation to the label — the label's Markov
//!    blanket — are kept (λ1, λ3 in Figure 2; λ2 is redundant given them).
//!
//! Votes are encoded signed (class 1 → +1, class 0 → −1, abstain → 0);
//! the experiments are all binary. For scalability the glasso input is
//! capped at the top-`cap` survivors by validation accuracy × coverage —
//! never reached before ~70 iterations at paper scale.

use crate::error::ActiveDpError;
use adp_glasso::{graphical_lasso_with, markov_blanket, GlassoConfig, MIN_PARALLEL_DIM};
use adp_lf::{LabelMatrix, ABSTAIN};
use adp_linalg::{correlation_matrix, Matrix};

/// LabelPick hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelPickConfig {
    /// Graphical-lasso ℓ1 penalty.
    pub rho: f64,
    /// Absolute floor below which a precision entry counts as zero.
    pub blanket_tol: f64,
    /// Relative floor: label edges weaker than this fraction of the
    /// strongest label edge are treated as zero. Finite-sample glasso
    /// retains small spurious partial correlations on redundant LFs (the
    /// population value is zero but the estimate is noise-inflated), so a
    /// purely absolute threshold cannot separate blanket members from
    /// redundancy.
    pub blanket_rel: f64,
    /// Maximum number of LFs entering the glasso.
    pub cap: usize,
    /// Minimum number of query rows before structure learning is attempted;
    /// below this every accuracy-surviving LF is kept.
    pub min_queries: usize,
    /// Let the graphical lasso fan its precision recovery out over scoped
    /// threads when the LF set is large enough. The selection is bitwise
    /// identical either way; this switch only controls scheduling.
    pub parallel: bool,
}

impl Default for LabelPickConfig {
    fn default() -> Self {
        LabelPickConfig {
            rho: 0.03,
            blanket_tol: 1e-6,
            blanket_rel: 0.0,
            cap: 64,
            min_queries: 30,
            parallel: true,
        }
    }
}

/// The LabelPick selector.
#[derive(Debug, Clone, Default)]
pub struct LabelPick {
    config: LabelPickConfig,
}

impl LabelPick {
    /// A selector with the given configuration.
    pub fn new(config: LabelPickConfig) -> Self {
        LabelPick { config }
    }

    /// Selects the helpful subset Λ* ⊆ Λ.
    ///
    /// * `query_matrix` — votes of all LFs on the past query instances
    ///   (rows = queries, in iteration order);
    /// * `pseudo_labels` — the pseudo-label of each query instance;
    /// * `valid_matrix` / `valid_labels` — votes and ground truth on the
    ///   validation split, used for accuracy pruning.
    ///
    /// Returns indices into the LF list (ascending). Falls back to "all
    /// accuracy-survivors" when too few queries exist or the blanket comes
    /// back empty, so the label model never starves.
    pub fn select(
        &self,
        query_matrix: &LabelMatrix,
        pseudo_labels: &[usize],
        valid_matrix: &LabelMatrix,
        valid_labels: &[usize],
        n_classes: usize,
    ) -> Result<Vec<usize>, ActiveDpError> {
        let m = query_matrix.n_lfs();
        if m == 0 {
            return Ok(vec![]);
        }
        if valid_matrix.n_lfs() != m {
            return Err(ActiveDpError::BadConfig {
                reason: format!(
                    "query matrix has {m} LFs but validation matrix has {}",
                    valid_matrix.n_lfs()
                ),
            });
        }
        if query_matrix.n_instances() != pseudo_labels.len() {
            return Err(ActiveDpError::BadConfig {
                reason: "pseudo labels must align with query rows".into(),
            });
        }

        // Stage 1: prune LFs performing worse than (or equal to) random on
        // the validation split. LFs that never fire there get the benefit
        // of the doubt — small validation sets say nothing about them.
        let random = 1.0 / n_classes as f64;
        let accuracy: Vec<Option<f64>> = (0..m)
            .map(|j| valid_matrix.lf_accuracy(j, valid_labels))
            .collect();
        let mut survivors: Vec<usize> = (0..m)
            .filter(|&j| accuracy[j].map_or(true, |acc| acc > random))
            .collect();
        if survivors.len() <= 1 || query_matrix.n_instances() < self.config.min_queries {
            return Ok(survivors);
        }
        // Each LF's validation accuracy × coverage, which both the cap and
        // the polarity guard rank by.
        let score: Vec<f64> = (0..m)
            .map(|j| accuracy[j].unwrap_or(random) * valid_matrix.lf_coverage(j))
            .collect();

        // Cap for glasso tractability: rank by validation accuracy × coverage.
        if survivors.len() > self.config.cap {
            let mut ranked: Vec<(usize, f64)> = survivors.iter().map(|&j| (j, score[j])).collect();
            ranked.sort_unstable_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("finite scores")
                    .then(a.0.cmp(&b.0))
            });
            ranked.truncate(self.config.cap);
            survivors = ranked.into_iter().map(|(j, _)| j).collect();
            survivors.sort_unstable();
        }

        // Stage 2: build L_Λ (signed encoding) and find the label's blanket.
        let t = query_matrix.n_instances();
        let p = survivors.len() + 1;
        let data = Matrix::from_fn(t, p, |i, col| {
            if col < survivors.len() {
                signed(query_matrix.get(i, survivors[col]))
            } else {
                signed(pseudo_labels[i] as i8)
            }
        });
        // Standardise to correlations: signed sparse votes have variance
        // proportional to coverage, and a fixed penalty on raw covariances
        // would wipe out low-coverage LFs' label edges regardless of their
        // accuracy. On the correlation scale the penalty treats every LF
        // alike.
        let corr = correlation_matrix(&data)?;
        let exec = if self.config.parallel {
            adp_linalg::parallel::auto(corr.nrows(), MIN_PARALLEL_DIM)
        } else {
            adp_linalg::Execution::Serial
        };
        let result = graphical_lasso_with(
            &corr,
            GlassoConfig {
                rho: self.config.rho,
                ..GlassoConfig::default()
            },
            exec,
        )?;
        let max_edge = (0..p - 1)
            .map(|k| result.precision[(p - 1, k)].abs())
            .fold(0.0_f64, f64::max);
        let tol = self
            .config
            .blanket_tol
            .max(self.config.blanket_rel * max_edge);
        let blanket = markov_blanket(&result.precision, p - 1, tol);
        if blanket.is_empty() {
            // Degenerate structure (e.g. constant columns early on): keep
            // the accuracy survivors rather than starving the label model.
            return Ok(survivors);
        }
        let mut selected: Vec<usize> = blanket.into_iter().map(|k| survivors[k]).collect();

        // Polarity guard: a blanket containing only one class's LFs labels
        // only one side of the pool, and the downstream model collapses to
        // a constant predictor. Ensure every class that has a surviving LF
        // keeps its best representative (validation accuracy × coverage).
        // An LF's polarity is its first vote, on validation then on the
        // queries.
        let polarity: Vec<Option<i8>> = (0..m)
            .map(|j| {
                (0..valid_matrix.n_instances())
                    .map(|i| valid_matrix.get(i, j))
                    .chain((0..query_matrix.n_instances()).map(|i| query_matrix.get(i, j)))
                    .find(|&v| v != ABSTAIN)
            })
            .collect();
        for class in 0..n_classes {
            let c = class as i8;
            if selected.iter().any(|&j| polarity[j] == Some(c)) {
                continue;
            }
            let best = survivors
                .iter()
                .copied()
                .filter(|&j| polarity[j] == Some(c))
                .max_by(|&a, &b| {
                    score[a]
                        .partial_cmp(&score[b])
                        .expect("finite scores")
                        .then(b.cmp(&a))
                });
            if let Some(j) = best {
                selected.push(j);
            }
        }
        selected.sort_unstable();
        Ok(selected)
    }
}

fn signed(vote: i8) -> f64 {
    match vote {
        ABSTAIN => 0.0,
        0 => -1.0,
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 2 running example, reconstructed with planted
    /// structure: λ1 and λ3 carry independent signal about the label and
    /// form its Markov blanket; λ2 is a noisy copy of λ1 (dependent on the
    /// label only *through* λ1, hence redundant); λ4 is inaccurate and must
    /// fall to the accuracy filter.
    fn figure2_matrices() -> (LabelMatrix, Vec<usize>, LabelMatrix, Vec<usize>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let flip = |v: i8, p: f64, rng: &mut rand::rngs::StdRng| -> i8 {
            if rng.gen::<f64>() < p {
                1 - v
            } else {
                v
            }
        };
        let mut rows = Vec::new();
        let mut pseudo = Vec::new();
        let mut vrows = Vec::new();
        let mut vlabels = Vec::new();
        for rep in 0..600 {
            let y = rep % 2;
            let v = y as i8;
            let lam1 = flip(v, 0.05, &mut rng);
            let lam2 = flip(lam1, 0.15, &mut rng); // copy of λ1, not of y
            let lam3 = flip(v, 0.15, &mut rng); // independent signal
            let lam4 = flip(v, 0.60, &mut rng); // worse than random
            if rep < 400 {
                rows.push(vec![lam1, lam2, lam3, lam4]);
                pseudo.push(y);
            } else {
                vrows.push(vec![lam1, lam2, lam3, lam4]);
                vlabels.push(y);
            }
        }
        (
            LabelMatrix::from_votes(&rows).unwrap(),
            pseudo,
            LabelMatrix::from_votes(&vrows).unwrap(),
            vlabels,
        )
    }

    #[test]
    fn figure2_running_example() {
        let (qm, pseudo, vm, vlabels) = figure2_matrices();
        // A deliberately aggressive relative threshold: this test checks
        // the *mechanism* (redundant-copy pruning), so the spurious edge a
        // finite sample leaves on λ2 must fall below the cut.
        let pick = LabelPick::new(LabelPickConfig {
            rho: 0.1,
            blanket_rel: 0.3,
            ..LabelPickConfig::default()
        });
        let selected = pick.select(&qm, &pseudo, &vm, &vlabels, 2).unwrap();
        // λ4 (index 3) must be pruned by the accuracy filter.
        assert!(
            !selected.contains(&3),
            "inaccurate LF survived: {selected:?}"
        );
        // The Markov blanket is {λ1, λ3}; λ2 is redundant given λ1.
        assert!(selected.contains(&0), "{selected:?}");
        assert!(selected.contains(&2), "{selected:?}");
        assert!(!selected.contains(&1), "redundant LF kept: {selected:?}");
    }

    #[test]
    fn accuracy_filter_uses_validation_split() {
        let (qm, pseudo, _, _) = figure2_matrices();
        // Validation where λ1 is *wrong* (votes the opposite label).
        let mut vrows = Vec::new();
        let mut vlabels = Vec::new();
        for rep in 0..20 {
            let y = rep % 2;
            let v = y as i8;
            vrows.push(vec![1 - v, v, v, v]);
            vlabels.push(y);
        }
        let vm = LabelMatrix::from_votes(&vrows).unwrap();
        let pick = LabelPick::default();
        let selected = pick.select(&qm, &pseudo, &vm, &vlabels, 2).unwrap();
        assert!(!selected.contains(&0), "{selected:?}");
    }

    #[test]
    fn few_queries_keep_all_survivors() {
        let qm = LabelMatrix::from_votes(&[vec![1, 1], vec![0, 0]]).unwrap();
        let vm = LabelMatrix::from_votes(&[vec![1, 1], vec![0, 0]]).unwrap();
        let pick = LabelPick::default(); // min_queries = 30 > 2 rows
        let selected = pick.select(&qm, &[1, 0], &vm, &[1, 0], 2).unwrap();
        assert_eq!(selected, vec![0, 1]);
    }

    #[test]
    fn lf_without_validation_coverage_survives_pruning() {
        let qm = LabelMatrix::from_votes(&[vec![1], vec![0]]).unwrap();
        let vm = LabelMatrix::from_votes(&[vec![ABSTAIN], vec![ABSTAIN]]).unwrap();
        let pick = LabelPick::default();
        let selected = pick.select(&qm, &[1, 0], &vm, &[1, 0], 2).unwrap();
        assert_eq!(selected, vec![0]);
    }

    #[test]
    fn empty_lf_set_selects_nothing() {
        let qm = LabelMatrix::empty(0);
        let vm = LabelMatrix::empty(0);
        let pick = LabelPick::default();
        assert!(pick.select(&qm, &[], &vm, &[], 2).unwrap().is_empty());
    }

    #[test]
    fn cap_limits_glasso_input() {
        // 12 identical accurate LFs with cap 4: selection must come from at
        // most 4 survivors.
        let mut rows = Vec::new();
        let mut pseudo = Vec::new();
        for rep in 0..30 {
            let y = rep % 2;
            rows.push(vec![y as i8; 12]);
            pseudo.push(y);
        }
        let qm = LabelMatrix::from_votes(&rows).unwrap();
        let vm = qm.clone();
        let vlabels = pseudo.clone();
        let pick = LabelPick::new(LabelPickConfig {
            cap: 4,
            ..LabelPickConfig::default()
        });
        let selected = pick.select(&qm, &pseudo, &vm, &vlabels, 2).unwrap();
        assert!(!selected.is_empty());
        assert!(selected.len() <= 4, "{selected:?}");
    }

    #[test]
    fn mismatched_matrices_error() {
        let qm = LabelMatrix::from_votes(&[vec![1, 0]]).unwrap();
        let vm = LabelMatrix::from_votes(&[vec![1]]).unwrap();
        let pick = LabelPick::default();
        assert!(pick.select(&qm, &[1], &vm, &[1], 2).is_err());
        let vm2 = LabelMatrix::from_votes(&[vec![1, 0]]).unwrap();
        assert!(pick.select(&qm, &[1, 0], &vm2, &[1], 2).is_err());
    }
}
