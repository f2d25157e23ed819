//! All five interactive frameworks head-to-head on one dataset — a
//! single-dataset slice of the paper's Figure 3.
//!
//! Runs ActiveDP, Nemo, IWS, Revising-LF and uncertainty sampling under the
//! same budget and seed, printing each framework's accuracy trajectory and
//! the final area-under-curve ranking.
//!
//! Run with: `cargo run --release --example compare_methods`
//! (pass a dataset name to switch, e.g. `-- Occupancy`)

use activedp_repro::baselines::{Framework, Iws, Nemo, RevisingLf, UncertaintySampling};
use activedp_repro::core::{Engine, SessionConfig};
use activedp_repro::data::{generate, DatasetId, Scale};

const BUDGET: usize = 60;
const EVAL_EVERY: usize = 10;

fn run(framework: &mut dyn Framework) -> Vec<f64> {
    let mut curve = Vec::new();
    for it in 1..=BUDGET {
        framework.step().expect("step succeeds");
        if it % EVAL_EVERY == 0 {
            curve.push(
                framework
                    .evaluate()
                    .expect("evaluate succeeds")
                    .test_accuracy,
            );
        }
    }
    curve
}

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Youtube".to_string());
    let id = DatasetId::all()
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(&name))
        .unwrap_or_else(|| {
            eprintln!("unknown dataset {name}, using Youtube");
            DatasetId::Youtube
        });
    let seed = 5;
    let data = generate(id, Scale::Tiny, seed)
        .expect("dataset generates")
        .into_shared();
    println!(
        "{}: {} budget of {BUDGET} queries, evaluated every {EVAL_EVERY}\n",
        id.name(),
        data.train.len()
    );

    let mut results: Vec<(String, Vec<f64>)> = Vec::new();

    let mut adp = Engine::builder(data.clone())
        .config(SessionConfig::paper_defaults(id.is_textual(), seed))
        .build()
        .expect("session builds");
    results.push(("ActiveDP".into(), run(&mut adp)));
    if id.is_textual() {
        // Nemo's SEU strategy is text-specific (paper §4.1.2).
        results.push(("Nemo".into(), run(&mut Nemo::new(&data, seed))));
    }
    results.push(("IWS".into(), run(&mut Iws::new(&data, seed))));
    results.push(("RLF".into(), run(&mut RevisingLf::new(&data, seed))));
    results.push(("US".into(), run(&mut UncertaintySampling::new(&data, seed))));

    println!(
        "queries:  {}",
        (1..=BUDGET / EVAL_EVERY)
            .map(|k| format!("{:>6}", k * EVAL_EVERY))
            .collect::<String>()
    );
    for (name, curve) in &results {
        let series: String = curve.iter().map(|a| format!("{a:>6.3}")).collect();
        println!("{name:>8}: {series}");
    }

    println!("\nranking by average accuracy during the run:");
    let mut ranked: Vec<(f64, &str)> = results
        .iter()
        .map(|(n, c)| (c.iter().sum::<f64>() / c.len() as f64, n.as_str()))
        .collect();
    ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite averages"));
    for (rank, (auc, name)) in ranked.iter().enumerate() {
        println!("  {}. {name:<8} {auc:.4}", rank + 1);
    }
}
