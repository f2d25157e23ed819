//! Integration tests for the paper's comparative studies: Table 3 ablation
//! switches, Table 4 sampler choices, Table 5 label noise.

use activedp_repro::core::{Engine, SamplerChoice, SessionConfig};
use activedp_repro::data::{generate, DatasetId, Scale, SharedDataset};

fn auc(data: &SharedDataset, cfg: SessionConfig, iters: usize) -> f64 {
    let mut session = Engine::builder(data.clone())
        .config(cfg)
        .build()
        .expect("session builds");
    let mut points = Vec::new();
    for it in 1..=iters {
        session.step().expect("step succeeds");
        if it % 10 == 0 {
            points.push(
                session
                    .evaluate_downstream()
                    .expect("evaluation succeeds")
                    .test_accuracy,
            );
        }
    }
    points.iter().sum::<f64>() / points.len() as f64
}

#[test]
fn all_four_ablation_variants_run() {
    let data = generate(DatasetId::Youtube, Scale::Tiny, 50)
        .expect("dataset generates")
        .into_shared();
    for (lp, cf) in [(false, false), (true, false), (false, true), (true, true)] {
        let cfg = SessionConfig {
            use_labelpick: lp,
            use_confusion: cf,
            ..SessionConfig::paper_defaults(true, 50)
        };
        let a = auc(&data, cfg, 20);
        assert!(a > 0.4, "LP={lp} CF={cf}: auc {a}");
    }
}

#[test]
fn confusion_lifts_tabular_performance() {
    // The paper's strongest ablation effect: ConFusion on Occupancy
    // (Table 3: 0.8881 -> 0.9906). Verify the direction on average.
    let mut with = 0.0;
    let mut without = 0.0;
    for seed in 51..54 {
        let data = generate(DatasetId::Occupancy, Scale::Tiny, seed)
            .expect("dataset generates")
            .into_shared();
        without += auc(&data, SessionConfig::ablation_baseline(false, seed), 30);
        with += auc(
            &data,
            SessionConfig {
                use_labelpick: false,
                ..SessionConfig::paper_defaults(false, seed)
            },
            30,
        );
    }
    assert!(
        with > without - 0.01,
        "ConFusion should not hurt Occupancy: with {with:.3} without {without:.3}"
    );
}

#[test]
fn every_sampler_choice_completes() {
    let data = generate(DatasetId::Imdb, Scale::Tiny, 55)
        .expect("dataset generates")
        .into_shared();
    for sampler in [
        SamplerChoice::Adp,
        SamplerChoice::Passive,
        SamplerChoice::Uncertainty,
        SamplerChoice::Lal,
        SamplerChoice::Seu,
    ] {
        let cfg = SessionConfig {
            sampler,
            ..SessionConfig::paper_defaults(true, 55)
        };
        let a = auc(&data, cfg, 20);
        assert!(a > 0.35, "{}: auc {a}", sampler.label());
    }
}

#[test]
fn label_noise_degrades_gracefully() {
    // Table 5's qualitative claim: noise hurts, but moderately.
    let mut label_acc = [0.0f64; 2];
    for seed in 56..59 {
        let data = generate(DatasetId::Youtube, Scale::Tiny, seed)
            .expect("dataset generates")
            .into_shared();
        for (k, noise) in [0.0, 0.3].iter().enumerate() {
            let cfg = SessionConfig {
                noise_rate: *noise,
                ..SessionConfig::paper_defaults(true, seed)
            };
            let mut session = Engine::builder(data.clone())
                .config(cfg)
                .build()
                .expect("session builds");
            session.run(30).expect("session runs");
            label_acc[k] += session
                .evaluate_downstream()
                .expect("evaluation succeeds")
                .label_accuracy
                .unwrap_or(0.5);
        }
    }
    assert!(
        label_acc[0] > label_acc[1],
        "clean labels {:.3} should beat noisy {:.3}",
        label_acc[0],
        label_acc[1]
    );
}

#[test]
fn noisy_user_still_returns_accurate_lfs_globally() {
    // Table 5's setup detail: flipped-label LFs misfire on their query but
    // keep train-set accuracy above the threshold.
    use activedp_repro::lf::{CandidateSpace, SimulatedUser, UserConfig};
    let data = generate(DatasetId::Youtube, Scale::Tiny, 60).expect("dataset generates");
    let space = CandidateSpace::build(&data.train);
    let mut user = SimulatedUser::new(
        UserConfig {
            acc_threshold: 0.6,
            noise_rate: 1.0,
        },
        60,
    );
    let mut checked = 0;
    for idx in 0..data.train.len() {
        if let Some(lf) = user.respond(&space, &data.train, &data.train, idx) {
            let acc = lf.accuracy(&data.train).expect("candidate LFs fire");
            assert!(acc > 0.6, "noisy LF with train accuracy {acc}");
            // And it misfires on its own query instance.
            assert_ne!(lf.apply(&data.train, idx) as usize, data.train.labels[idx]);
            checked += 1;
            if checked >= 10 {
                break;
            }
        }
    }
    assert!(checked > 0, "no noisy candidates found at all");
}
