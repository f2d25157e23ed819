//! Regenerates **Figure 2**: the LabelPick workflow on a live session.
//!
//! Runs a short ActiveDP session on a chosen dataset (default Youtube) and
//! prints each collected LF with its validation accuracy, coverage, and
//! whether LabelPick kept it — the pipeline Figure 2 depicts: accuracy
//! filter, dependency-structure estimation, Markov-blanket selection.

use activedp::{Engine, SessionConfig};
use adp_data::{generate, DatasetId};
use adp_experiments::{write_csv, RunOpts, TableWriter};
use adp_lf::LabelMatrix;
use std::path::Path;

fn main() {
    let opts = match RunOpts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let cfg = opts.protocol();
    let id = opts
        .datasets
        .as_ref()
        .and_then(|d| d.first().copied())
        .unwrap_or(DatasetId::Youtube);
    let iterations = opts.iterations.unwrap_or(40);

    println!(
        "Figure 2: LabelPick workflow on {} ({} iterations, {})",
        id.name(),
        iterations,
        opts.describe()
    );
    println!();

    let data = generate(id, cfg.scale, cfg.seeds[0])
        .expect("generation succeeds")
        .into_shared();
    let session_cfg = SessionConfig::paper_defaults(id.is_textual(), cfg.seeds[0]);
    let mut session = Engine::builder(data.clone())
        .config(session_cfg)
        .build()
        .expect("session builds");
    session.run(iterations).expect("session runs");

    let lfs = &session.state().lfs;
    let selected: std::collections::HashSet<usize> =
        session.state().selected.iter().copied().collect();
    let valid_matrix = LabelMatrix::from_lfs(lfs, &data.valid);

    let mut table = TableWriter::new(&["LF", "Rule", "Valid acc", "Coverage", "LabelPick"]);
    for (j, lf) in lfs.iter().enumerate() {
        let acc = valid_matrix
            .lf_accuracy(j, &data.valid.labels)
            .map_or("n/a".to_string(), |a| format!("{a:.3}"));
        table.add_row(vec![
            format!("λ{}", j + 1),
            lf.describe(data.vocab.as_ref()),
            acc,
            format!("{:.3}", valid_matrix.lf_coverage(j)),
            if selected.contains(&j) {
                "selected"
            } else {
                "pruned"
            }
            .to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "{} of {} LFs selected (Markov blanket of the label after the accuracy filter)",
        selected.len(),
        lfs.len()
    );
    let out = Path::new(&opts.out_dir).join("fig2_labelpick.csv");
    match write_csv(&out, &table) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}
