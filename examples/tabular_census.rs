//! Tabular labelling with decision-stump LFs on a Census-like dataset.
//!
//! Tabular data changes two things versus text (paper §3.3 and §4.2): the
//! user's LFs are decision stumps `x_j ≶ v → y` anchored at the query
//! instance's own feature values, and the ADP sampler runs with α = 0.99 —
//! stumps give only coarse supervision, so the AL model's uncertainty
//! dominates query selection. This example shows both, plus the ConFusion
//! hand-off from label model to AL model as the budget grows.
//!
//! Run with: `cargo run --release --example tabular_census`

use activedp_repro::core::{Engine, SessionConfig};
use activedp_repro::data::{generate, DatasetId, Scale};

fn main() {
    let data = generate(DatasetId::Census, Scale::Tiny, 3).expect("dataset generates");
    println!(
        "Census-like income dataset: {} train instances, {} features, class balance {:.2}/{:.2}\n",
        data.train.len(),
        data.train.features.ncols(),
        data.train.class_balance()[0],
        data.train.class_balance()[1],
    );

    // α = 0.99: the paper's tabular setting.
    let config = SessionConfig::paper_defaults(false, 3);
    assert!((config.alpha - 0.99).abs() < 1e-12);
    let mut session = Engine::builder(data)
        .config(config)
        .build()
        .expect("session builds");

    println!("budget  LFs  selected  τ      coverage  label acc  test acc");
    for block in 0..6 {
        session.run(10).expect("session runs");
        let report = session.evaluate_downstream().expect("evaluation succeeds");
        println!(
            "{:>5}  {:>4}  {:>8}  {:.3}  {:>7.1}%  {:>8.1}%  {:>7.1}%",
            (block + 1) * 10,
            session.state().lfs.len(),
            report.n_selected,
            report.threshold.unwrap_or(f64::NAN),
            report.label_coverage * 100.0,
            report.label_accuracy.unwrap_or(0.0) * 100.0,
            report.test_accuracy * 100.0,
        );
    }

    println!("\nFirst few decision stumps the simulated user returned:");
    for (j, lf) in session.state().lfs.iter().take(8).enumerate() {
        println!("  λ{:<2} {}", j + 1, lf.describe(None));
    }

    // Show the pseudo-labelled set that trains the AL model (§3.1): each
    // query instance paired with its LF's vote.
    let n_pseudo = session.state().pseudo_labelled().count();
    println!("\npseudo-labelled AL training set: {n_pseudo} instances");
}
