//! Spam detection walkthrough: the paper's running example, end to end.
//!
//! Builds a Youtube-comment-spam-like corpus, then narrates an ActiveDP
//! session the way Figure 1 does: each printed iteration shows the query
//! the sampler picked, the comment text, the keyword LF the simulated user
//! wrote, and the pseudo-label the framework inferred from it. At the end
//! the LF portfolio is dumped with LabelPick's verdicts, mirroring Figure 2.
//!
//! Run with: `cargo run --release --example spam_detection`

use activedp_repro::core::{Engine, SessionConfig};
use activedp_repro::data::{generate, DatasetId, Scale};
use activedp_repro::lf::LabelMatrix;

fn main() {
    let data = generate(DatasetId::Youtube, Scale::Tiny, 11)
        .expect("dataset generates")
        .into_shared();
    let vocab = data.vocab.as_ref().expect("text dataset has a vocabulary");
    println!(
        "Youtube-like spam corpus: {} unlabeled comments, vocabulary of {} words\n",
        data.train.len(),
        vocab.len()
    );

    let config = SessionConfig::paper_defaults(true, 11);
    let mut session = Engine::builder(data.clone())
        .config(config)
        .build()
        .expect("session builds");

    println!("-- training phase (Figure 1, left) --");
    let texts = data
        .train
        .texts
        .as_ref()
        .expect("text dataset keeps raw docs");
    for _ in 0..30 {
        let outcome = session.step().expect("step succeeds");
        let (Some(query), Some(lf)) = (outcome.query, outcome.lf.as_ref()) else {
            continue;
        };
        if outcome.iteration <= 5 {
            let mut excerpt: String = texts[query].chars().take(48).collect();
            if texts[query].len() > 48 {
                excerpt.push('…');
            }
            let (_, pseudo) = session
                .state()
                .pseudo_labelled()
                .last()
                .expect("LF was just recorded");
            println!(
                "iter {:>2}: inspected \"{excerpt}\"\n         user wrote LF {} => pseudo-label {} ({})",
                outcome.iteration,
                lf.describe(Some(vocab)),
                pseudo,
                if pseudo == 1 { "SPAM" } else { "HAM" },
            );
        }
    }

    println!("\n-- LF portfolio after 30 iterations (Figure 2 view) --");
    let lfs = &session.state().lfs;
    let selected: std::collections::HashSet<usize> =
        session.state().selected.iter().copied().collect();
    let valid_matrix = LabelMatrix::from_lfs(lfs, &data.valid);
    for (j, lf) in lfs.iter().enumerate().take(12) {
        let acc = valid_matrix
            .lf_accuracy(j, &data.valid.labels)
            .map_or("  n/a".to_string(), |a| format!("{a:.3}"));
        println!(
            "  λ{:<2} {:<24} valid acc {acc}  cov {:.3}  [{}]",
            j + 1,
            lf.describe(Some(vocab)),
            valid_matrix.lf_coverage(j),
            if selected.contains(&j) {
                "kept by LabelPick"
            } else {
                "pruned"
            },
        );
    }
    if lfs.len() > 12 {
        println!("  … and {} more", lfs.len() - 12);
    }

    println!("\n-- inference phase (Figure 1, right) --");
    let report = session.evaluate_downstream().expect("evaluation succeeds");
    println!(
        "ConFusion threshold τ = {:.3}; {}/{} LFs selected",
        report.threshold.unwrap_or(f64::NAN),
        report.n_selected,
        lfs.len()
    );
    println!(
        "labels: {:.1}% coverage at {:.1}% accuracy",
        report.label_coverage * 100.0,
        report.label_accuracy.unwrap_or(0.0) * 100.0
    );
    println!(
        "downstream spam classifier test accuracy: {:.1}%",
        report.test_accuracy * 100.0
    );
}
