//! Golden engine trajectories that reach LabelPick's graphical lasso.
//!
//! `tests/engine_parity.rs` stops at 15 steps, below LabelPick's
//! `min_queries` = 30, so it never exercises structure learning. These
//! runs go to 40 steps on Youtube and Census at `Scale::Tiny` (dataset
//! seed 7, session seed 7), so the last refits select LFs through the
//! glasso's Markov blanket. Pinned: an FNV-1a hash of LabelPick's
//! selection after every step, the final downstream test accuracy bits,
//! and the number of refits that ran the glasso — so a glasso kernel
//! change that moves bits but not supports passes, and one that moves a
//! selection fails.

use activedp_repro::core::{Engine, LabelPickConfig, SessionConfig};
use activedp_repro::data::{generate, DatasetId, Scale};

const STEPS: usize = 40;

struct Golden {
    dataset: DatasetId,
    /// FNV-1a over every step's `selected` list (length-prefixed).
    selected_hash: u64,
    test_accuracy: f64,
    /// Refits whose LabelPick call reached the glasso.
    glasso_refits: usize,
}

const GOLDENS: [Golden; 2] = [
    Golden {
        dataset: DatasetId::Youtube,
        selected_hash: 0x2c45_f7c4_2e64_4ba2,
        test_accuracy: 0.65,
        glasso_refits: 10,
    },
    Golden {
        dataset: DatasetId::Census,
        selected_hash: 0x89c9_7b1f_3777_32fd,
        test_accuracy: 0.833_333_333_333_333_4,
        glasso_refits: 7,
    },
];

fn fnv1a(h: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Runs the golden session and returns (selection hash, final test
/// accuracy, glasso-reaching refits).
fn run(dataset: DatasetId) -> (u64, f64, usize) {
    let data = generate(dataset, Scale::Tiny, 7)
        .expect("dataset generates")
        .into_shared();
    let cfg = SessionConfig::paper_defaults(dataset.is_textual(), 7);
    let pick = LabelPickConfig::default();
    assert_eq!(cfg.labelpick, pick, "golden assumes LabelPick defaults");
    let mut engine = Engine::builder(data.clone()).config(cfg).build().unwrap();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut glasso_refits = 0;
    for _ in 0..STEPS {
        let out = engine.step().unwrap();
        let state = engine.state();
        // LabelPick's gate: a refit with at least `min_queries` query rows
        // and more than one LF better than random on the validation split.
        let survivors = (0..state.lfs.len())
            .filter(|&j| {
                state
                    .valid_matrix
                    .lf_accuracy(j, &data.valid.labels)
                    .map_or(true, |acc| acc > 1.0 / data.train.n_classes as f64)
            })
            .count();
        if out.lf.is_some() && state.query_indices.len() >= pick.min_queries && survivors > 1 {
            glasso_refits += 1;
        }
        fnv1a(&mut hash, state.selected.len() as u64);
        for &j in &state.selected {
            fnv1a(&mut hash, j as u64);
        }
    }
    let report = engine.evaluate_downstream().unwrap();
    (hash, report.test_accuracy, glasso_refits)
}

#[test]
fn labelpick_glasso_trajectories_match_golden() {
    for golden in &GOLDENS {
        let (hash, accuracy, glasso_refits) = run(golden.dataset);
        let name = golden.dataset;
        assert!(glasso_refits > 0, "{name}: the glasso was never reached");
        assert_eq!(
            (hash, accuracy.to_bits(), glasso_refits),
            (
                golden.selected_hash,
                golden.test_accuracy.to_bits(),
                golden.glasso_refits
            ),
            "{name}: selections hash {hash:#018x}, test accuracy {accuracy:?}, \
             {glasso_refits} glasso refits"
        );
    }
}
