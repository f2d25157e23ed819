//! End-to-end integration tests: every framework on miniature versions of
//! the paper's datasets, checking that learning actually happens and runs
//! are reproducible.

use activedp_repro::baselines::{Framework, Iws, Nemo, RevisingLf, UncertaintySampling};
use activedp_repro::core::{Engine, SessionConfig};
use activedp_repro::data::{generate, DatasetId, Scale};

fn drive(fw: &mut dyn Framework, iters: usize) -> f64 {
    for _ in 0..iters {
        fw.step().expect("step succeeds");
    }
    fw.evaluate().expect("evaluate succeeds").test_accuracy
}

#[test]
fn activedp_beats_chance_on_text_and_tabular() {
    for (id, floor) in [(DatasetId::Youtube, 0.60), (DatasetId::Occupancy, 0.80)] {
        let data = generate(id, Scale::Tiny, 21).expect("dataset generates");
        let cfg = SessionConfig::paper_defaults(id.is_textual(), 21);
        let mut session = Engine::builder(data)
            .config(cfg)
            .build()
            .expect("session builds");
        let acc = drive(&mut session, 30);
        assert!(acc > floor, "{}: accuracy {acc}", id.name());
    }
}

#[test]
fn every_framework_completes_the_protocol_on_text() {
    let data = generate(DatasetId::Youtube, Scale::Tiny, 22)
        .expect("dataset generates")
        .into_shared();
    let cfg = SessionConfig::paper_defaults(true, 22);
    let mut frameworks: Vec<Box<dyn Framework>> = vec![
        Box::new(
            Engine::builder(data.clone())
                .config(cfg)
                .build()
                .expect("session builds"),
        ),
        Box::new(Nemo::new(&data, 22)),
        Box::new(Iws::new(&data, 22)),
        Box::new(RevisingLf::new(&data, 22)),
        Box::new(UncertaintySampling::new(&data, 22)),
    ];
    for fw in &mut frameworks {
        let acc = drive(fw.as_mut(), 20);
        assert!(
            (0.0..=1.0).contains(&acc),
            "{} produced accuracy {acc}",
            fw.name()
        );
    }
}

#[test]
fn every_non_nemo_framework_completes_on_tabular() {
    let data = generate(DatasetId::Census, Scale::Tiny, 23)
        .expect("dataset generates")
        .into_shared();
    let cfg = SessionConfig::paper_defaults(false, 23);
    let mut frameworks: Vec<Box<dyn Framework>> = vec![
        Box::new(
            Engine::builder(data.clone())
                .config(cfg)
                .build()
                .expect("session builds"),
        ),
        Box::new(Iws::new(&data, 23)),
        Box::new(RevisingLf::new(&data, 23)),
        Box::new(UncertaintySampling::new(&data, 23)),
    ];
    for fw in &mut frameworks {
        let acc = drive(fw.as_mut(), 20);
        assert!(acc > 0.4, "{}: accuracy {acc}", fw.name());
    }
}

#[test]
fn runs_are_deterministic_given_seed() {
    let run = || {
        let data = generate(DatasetId::Imdb, Scale::Tiny, 24).expect("dataset generates");
        let cfg = SessionConfig::paper_defaults(true, 24);
        let mut session = Engine::builder(data)
            .config(cfg)
            .build()
            .expect("session builds");
        let acc = drive(&mut session, 15);
        (
            acc.to_bits(),
            session.state().lfs.len(),
            session.state().selected.clone(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_explore_differently() {
    let run = |seed: u64| {
        let data = generate(DatasetId::Imdb, Scale::Tiny, seed).expect("dataset generates");
        let cfg = SessionConfig::paper_defaults(true, seed);
        let mut session = Engine::builder(data)
            .config(cfg)
            .build()
            .expect("session builds");
        session.run(10).expect("session runs");
        session
            .state()
            .pseudo_labelled()
            .map(|(q, _)| q)
            .collect::<Vec<_>>()
    };
    assert_ne!(run(31), run(32));
}

#[test]
fn learning_improves_with_budget() {
    // Average over seeds: accuracy with a 40-query budget should not be
    // dramatically below a 10-query budget, and typically above.
    let mut short = 0.0;
    let mut long = 0.0;
    for seed in 40..43 {
        let data = generate(DatasetId::Occupancy, Scale::Tiny, seed).expect("dataset generates");
        let cfg = SessionConfig::paper_defaults(false, seed);
        let mut session = Engine::builder(data)
            .config(cfg)
            .build()
            .expect("session builds");
        session.run(10).expect("session runs");
        short += session
            .evaluate_downstream()
            .expect("evaluation succeeds")
            .test_accuracy;
        session.run(30).expect("session runs");
        long += session
            .evaluate_downstream()
            .expect("evaluation succeeds")
            .test_accuracy;
    }
    assert!(
        long >= short - 0.05 * 3.0,
        "budget hurt badly: short {short} long {long}"
    );
}

#[test]
fn full_protocol_runner_produces_curves() {
    use activedp_repro::experiments::{run_framework_curve, Method, ProtocolConfig};
    let cfg = ProtocolConfig::tiny();
    let curve =
        run_framework_curve(DatasetId::Youtube, Method::ActiveDp, &cfg).expect("protocol runs");
    assert_eq!(curve.points.len(), cfg.iterations / cfg.eval_every);
    assert!(curve.points.iter().all(|&(_, a)| (0.0..=1.0).contains(&a)));
    assert!(curve.auc() > 0.3);
}
