//! ConFusion: confidence-based label aggregation (paper §3.2, Eq. 1).
//!
//! ```text
//!   ŷ(x) = f_a(x)          if max f_a(x) ≥ τ
//!        = f_l(x, Λ*)      if max f_a(x) < τ and some λ ∈ Λ* fires on x
//!        = ∅               otherwise (rejected)
//! ```
//!
//! The threshold τ is tuned per evaluation on the validation split: the
//! candidate set is the distinct AL confidences observed on validation plus
//! the boundary values {0, 1}, and the winner maximises the accuracy of the
//! aggregated labels over the *non-rejected* part (§3.2 — accuracy, not
//! coverage, because a zero threshold would trivially maximise coverage).

use adp_linalg::{argmax, Matrix};

/// Result of aggregating a dataset's labels.
#[derive(Debug, Clone)]
pub struct AggregatedLabels {
    /// Per-instance soft labels; `None` = rejected (dropped from downstream
    /// training).
    pub labels: Vec<Option<Vec<f64>>>,
    /// The confidence threshold used.
    pub threshold: f64,
}

impl AggregatedLabels {
    /// Fraction of instances that received a label.
    pub fn coverage(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().filter(|l| l.is_some()).count() as f64 / self.labels.len() as f64
    }

    /// Accuracy of the hard aggregated labels against ground truth over the
    /// covered instances; `None` when everything was rejected.
    pub fn accuracy_against(&self, truth: &[usize]) -> Option<f64> {
        let mut n = 0usize;
        let mut correct = 0usize;
        for (l, &t) in self.labels.iter().zip(truth) {
            if let Some(dist) = l {
                n += 1;
                if argmax(dist).expect("non-empty distribution") == t {
                    correct += 1;
                }
            }
        }
        (n > 0).then(|| correct as f64 / n as f64)
    }
}

/// Applies Eq. 1 with threshold `tau`.
///
/// `al_probs`/`lm_probs` are per-instance distributions; `has_vote[i]` says
/// whether any *selected* LF fires on instance `i`.
///
/// # Panics
/// Panics when the slice lengths disagree (sessions construct them from the
/// same dataset, so a mismatch is a bug).
pub fn aggregate(
    al_probs: &Matrix,
    lm_probs: &Matrix,
    has_vote: &[bool],
    tau: f64,
) -> Vec<Option<Vec<f64>>> {
    assert_eq!(al_probs.nrows(), lm_probs.nrows(), "probs length mismatch");
    assert_eq!(al_probs.nrows(), has_vote.len(), "has_vote length mismatch");
    al_probs
        .row_iter()
        .zip(lm_probs.row_iter())
        .zip(has_vote)
        .map(|((al, lm), &voted)| {
            if confidence(al) >= tau {
                Some(al.to_vec())
            } else if voted {
                Some(lm.to_vec())
            } else {
                None
            }
        })
        .collect()
}

/// A distribution's largest probability (0 for an empty one).
fn confidence(p: &[f64]) -> f64 {
    p.iter().fold(0.0_f64, |m, &v| m.max(v))
}

/// Tunes τ on a validation set (§3.2): evaluates every distinct AL
/// confidence plus {0, 1} and returns the value maximising aggregated-label
/// accuracy over non-rejected instances. Ties break toward the smaller τ
/// (more AL coverage); if every candidate rejects everything, returns 0.
///
/// Equivalent to scoring [`aggregate`] at every candidate with
/// [`AggregatedLabels::accuracy_against`], in O(n log n): rows are sorted
/// by AL confidence once, and the ascending candidate sweep moves each row
/// from the AL branch to the label-model branch (or to rejection) exactly
/// once, keeping integer covered/correct counts. The accuracies are the
/// same integer ratios, so the chosen τ is identical to the bit.
///
/// # Panics
/// Panics when the slice lengths disagree, as [`aggregate`] does.
pub fn tune_threshold(
    al_probs: &Matrix,
    lm_probs: &Matrix,
    has_vote: &[bool],
    truth: &[usize],
) -> f64 {
    assert_eq!(al_probs.nrows(), lm_probs.nrows(), "probs length mismatch");
    assert_eq!(al_probs.nrows(), has_vote.len(), "has_vote length mismatch");
    let mut candidates: Vec<f64> = al_probs.row_iter().map(confidence).collect();
    candidates.push(0.0);
    candidates.push(1.0);
    candidates.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite confidences"));
    candidates.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

    // Rows that count toward accuracy (those with ground truth), each with
    // its confidence and whether each branch would label it correctly.
    let correct = |dist: &[f64], t: usize| argmax(dist).expect("non-empty distribution") == t;
    let mut rows: Vec<(f64, bool, Option<bool>)> = al_probs
        .row_iter()
        .zip(lm_probs.row_iter())
        .zip(has_vote)
        .zip(truth)
        .map(|(((al, lm), &voted), &t)| {
            (
                confidence(al),
                correct(al, t),
                voted.then(|| correct(lm, t)),
            )
        })
        .collect();
    rows.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite confidences"));

    // Below every candidate, every row takes the AL branch.
    let mut covered = rows.len();
    let mut n_correct = rows.iter().filter(|r| r.1).count();
    let mut below = 0; // rows[..below] have confidence < τ
    let mut best_tau = 0.0;
    let mut best_acc = f64::NEG_INFINITY;
    for &tau in &candidates {
        while below < rows.len() && rows[below].0 < tau {
            let (_, al_correct, lm_correct) = rows[below];
            covered -= 1;
            n_correct -= usize::from(al_correct);
            if let Some(lm_correct) = lm_correct {
                covered += 1;
                n_correct += usize::from(lm_correct);
            }
            below += 1;
        }
        if covered > 0 {
            let acc = n_correct as f64 / covered as f64;
            // Strict improvement required: equal accuracy keeps the smaller
            // tau already recorded (candidates are scanned ascending).
            if acc > best_acc + 1e-12 {
                best_acc = acc;
                best_tau = tau;
            }
        }
    }
    best_tau
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quadratic sweep [`tune_threshold`] replaced: a full
    /// [`aggregate`] rescored at every candidate.
    fn reference_tune_threshold(
        al_probs: &Matrix,
        lm_probs: &Matrix,
        has_vote: &[bool],
        truth: &[usize],
    ) -> f64 {
        let mut candidates: Vec<f64> = al_probs.row_iter().map(confidence).collect();
        candidates.push(0.0);
        candidates.push(1.0);
        candidates.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite confidences"));
        candidates.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let mut best_tau = 0.0;
        let mut best_acc = f64::NEG_INFINITY;
        for &tau in &candidates {
            let agg = AggregatedLabels {
                labels: aggregate(al_probs, lm_probs, has_vote, tau),
                threshold: tau,
            };
            if let Some(acc) = agg.accuracy_against(truth) {
                if acc > best_acc + 1e-12 {
                    best_acc = acc;
                    best_tau = tau;
                }
            }
        }
        best_tau
    }

    #[test]
    fn sorted_sweep_matches_quadratic_reference_bitwise() {
        // Confidences drawn from a coarse grid so ties (exact, and within
        // the 1e-12 dedup window) are common; some rows carry no vote and
        // some cases have fewer truth labels than rows.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |k: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % k
        };
        for case in 0..200 {
            let n = 1 + next(60) as usize;
            let grid = 2 + next(12);
            let al = probs(
                &(0..n)
                    .map(|_| {
                        let pos = next(grid + 1) as f64 / grid as f64;
                        if next(5) == 0 {
                            pos + 1e-13
                        } else {
                            pos
                        }
                    })
                    .collect::<Vec<_>>(),
            );
            let lm = probs(
                &(0..n)
                    .map(|_| next(grid + 1) as f64 / grid as f64)
                    .collect::<Vec<_>>(),
            );
            let has_vote: Vec<bool> = (0..n).map(|_| next(3) != 0).collect();
            let labelled = if case % 7 == 0 { n / 2 } else { n };
            let truth: Vec<usize> = (0..labelled).map(|_| next(2) as usize).collect();
            let fast = tune_threshold(&al, &lm, &has_vote, &truth);
            let slow = reference_tune_threshold(&al, &lm, &has_vote, &truth);
            assert_eq!(
                fast.to_bits(),
                slow.to_bits(),
                "case {case}: {fast} vs {slow}"
            );
        }
    }

    fn p(pos: f64) -> Vec<f64> {
        vec![1.0 - pos, pos]
    }

    /// One `[1 − pos, pos]` row per positive-class probability.
    fn probs(pos: &[f64]) -> Matrix {
        Matrix::from_fn(
            pos.len(),
            2,
            |i, c| if c == 1 { pos[i] } else { 1.0 - pos[i] },
        )
    }

    #[test]
    fn eq1_three_branches() {
        let al = probs(&[0.9, 0.6, 0.55]);
        let lm = probs(&[0.1, 0.8, 0.2]);
        let has_vote = vec![true, true, false];
        let out = aggregate(&al, &lm, &has_vote, 0.7);
        // Instance 0: AL confident (0.9 >= 0.7) -> AL.
        assert_eq!(out[0].as_ref().unwrap()[1], 0.9);
        // Instance 1: AL unconfident, LF fires -> LM.
        assert_eq!(out[1].as_ref().unwrap()[1], 0.8);
        // Instance 2: AL unconfident, no LF -> rejected.
        assert!(out[2].is_none());
    }

    #[test]
    fn tau_zero_always_uses_al() {
        let al = probs(&[0.5, 0.51]);
        let lm = probs(&[0.99, 0.99]);
        let out = aggregate(&al, &lm, &[true, true], 0.0);
        assert_eq!(out[0].as_ref().unwrap()[1], 0.5);
        assert_eq!(out[1].as_ref().unwrap()[1], 0.51);
    }

    #[test]
    fn coverage_monotone_decreasing_in_tau() {
        let al = probs(&[0.9, 0.7, 0.6, 0.55]);
        let lm = probs(&[0.5; 4]);
        let has_vote = vec![true, false, false, false];
        let cov = |tau| {
            AggregatedLabels {
                labels: aggregate(&al, &lm, &has_vote, tau),
                threshold: tau,
            }
            .coverage()
        };
        assert!(cov(0.0) >= cov(0.65));
        assert!(cov(0.65) >= cov(0.95));
        // With tau above every confidence, only voted instances survive.
        assert!((cov(0.95) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn accuracy_against_covers_only_labelled() {
        let agg = AggregatedLabels {
            labels: vec![Some(p(0.9)), None, Some(p(0.2))],
            threshold: 0.5,
        };
        // predictions: 1, -, 0 vs truth 1, 0, 1 -> 1 of 2 covered correct.
        assert_eq!(agg.accuracy_against(&[1, 0, 1]), Some(0.5));
        let all_rejected = AggregatedLabels {
            labels: vec![None, None],
            threshold: 0.5,
        };
        assert_eq!(all_rejected.accuracy_against(&[0, 1]), None);
        assert_eq!(all_rejected.coverage(), 0.0);
    }

    #[test]
    fn tuning_prefers_accurate_model() {
        // AL is wrong but confident on instances 2,3; LM is right everywhere
        // it fires. A high tau routes everything to the LM.
        let al = probs(&[0.95, 0.9, 0.85, 0.8]);
        let lm = probs(&[0.9, 0.9, 0.1, 0.1]);
        let has_vote = vec![true; 4];
        let truth = vec![1, 1, 0, 0];
        let tau = tune_threshold(&al, &lm, &has_vote, &truth);
        // τ = 0.9 is the smallest perfect threshold: the two correct AL
        // predictions (conf 0.95, 0.9) stay with the AL model, the two wrong
        // ones fall through to the label model.
        assert!((tau - 0.9).abs() < 1e-9, "tau {tau}");
        let agg = aggregate(&al, &lm, &has_vote, tau);
        let acc = AggregatedLabels {
            labels: agg,
            threshold: tau,
        }
        .accuracy_against(&truth)
        .unwrap();
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn tuning_prefers_al_when_al_is_better() {
        let al = probs(&[0.95, 0.9, 0.15, 0.1]);
        let lm = probs(&[0.2, 0.2, 0.8, 0.8]);
        let has_vote = vec![true; 4];
        let truth = vec![1, 1, 0, 0];
        let tau = tune_threshold(&al, &lm, &has_vote, &truth);
        // AL is perfect: any tau <= min-confidence works, ties -> smallest.
        assert_eq!(tau, 0.0);
    }

    #[test]
    fn tuning_ties_break_to_smaller_tau() {
        // Both models perfect: every candidate achieves accuracy 1 -> tau 0.
        let al = probs(&[0.9, 0.1]);
        let lm = probs(&[0.9, 0.1]);
        let truth = vec![1, 0];
        let tau = tune_threshold(&al, &lm, &[true, true], &truth);
        assert_eq!(tau, 0.0);
    }

    #[test]
    fn tuning_handles_all_rejected_candidates() {
        // No LF votes and low AL confidence: high taus reject everything and
        // must not win by default.
        let al = probs(&[0.55, 0.45]);
        let lm = probs(&[0.5, 0.5]);
        let truth = vec![1, 0];
        let tau = tune_threshold(&al, &lm, &[false, false], &truth);
        assert!(tau <= 0.55 + 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn aggregate_checks_lengths() {
        aggregate(&probs(&[0.5]), &probs(&[]), &[true], 0.5);
    }
}
