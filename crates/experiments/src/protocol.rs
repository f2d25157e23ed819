//! Protocol runner: iterate → evaluate every k → average over seeds.

use activedp::{ActiveDpError, Engine, SessionConfig};
use adp_baselines::{Framework, Iws, Nemo, RevisingLf, UncertaintySampling};
use adp_data::{generate, DatasetId, Scale};

/// Protocol parameters (§4.1.3).
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Rounds of simulated supervision (paper: 300).
    pub iterations: usize,
    /// Evaluate the downstream model every this many rounds (paper: 10).
    pub eval_every: usize,
    /// Seeds to average over (paper: 5).
    pub seeds: Vec<u64>,
    /// Dataset scale.
    pub scale: Scale,
}

impl ProtocolConfig {
    /// Paper-scale protocol: 300 iterations, eval@10, 5 seeds, full sizes.
    pub fn paper() -> Self {
        ProtocolConfig {
            iterations: 300,
            eval_every: 10,
            seeds: vec![1, 2, 3, 4, 5],
            scale: Scale::Paper,
        }
    }

    /// Reduced-scale default for the experiment binaries: ≈20% data,
    /// 100 iterations, 2 seeds — minutes instead of hours, same shape.
    pub fn reduced() -> Self {
        ProtocolConfig {
            iterations: 100,
            eval_every: 10,
            seeds: vec![1, 2],
            scale: Scale::Reduced,
        }
    }

    /// Tiny protocol for tests and Criterion benches.
    pub fn tiny() -> Self {
        ProtocolConfig {
            iterations: 20,
            eval_every: 10,
            seeds: vec![1],
            scale: Scale::Tiny,
        }
    }
}

/// The five frameworks of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The paper's framework.
    ActiveDp,
    /// Nemo (textual datasets only, as in the paper).
    Nemo,
    /// Interactive weak supervision (IWS-LSE-a).
    Iws,
    /// Revising LF.
    Rlf,
    /// Uncertainty sampling.
    Us,
}

impl Method {
    /// All methods, in the paper's legend order.
    pub fn all() -> [Method; 5] {
        [
            Method::ActiveDp,
            Method::Nemo,
            Method::Iws,
            Method::Rlf,
            Method::Us,
        ]
    }

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            Method::ActiveDp => "ActiveDP",
            Method::Nemo => "Nemo",
            Method::Iws => "IWS",
            Method::Rlf => "RLF",
            Method::Us => "US",
        }
    }

    /// Nemo's SEU is text-specific; the paper evaluates it on the six
    /// textual datasets only.
    pub fn supports(self, id: DatasetId) -> bool {
        !matches!(self, Method::Nemo) || id.is_textual()
    }
}

/// A performance curve: `(iteration, mean test accuracy across seeds)`.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Method/config label.
    pub label: String,
    /// Evaluation points.
    pub points: Vec<(usize, f64)>,
}

impl Curve {
    /// Average accuracy over the curve — the paper's summary metric
    /// ("average test accuracy during the run, corresponding to the area
    /// under the performance curve").
    pub fn auc(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, a)| a).sum::<f64>() / self.points.len() as f64
    }

    /// Final-iteration accuracy.
    pub fn last(&self) -> f64 {
        self.points.last().map_or(0.0, |&(_, a)| a)
    }
}

fn drive(fw: &mut dyn Framework, cfg: &ProtocolConfig) -> Result<Vec<(usize, f64)>, ActiveDpError> {
    let mut points = Vec::new();
    for it in 1..=cfg.iterations {
        fw.step()?;
        if it % cfg.eval_every == 0 {
            let eval = fw.evaluate()?;
            points.push((it, eval.test_accuracy));
        }
    }
    Ok(points)
}

fn average_seed_points(per_seed: Vec<Vec<(usize, f64)>>, label: String) -> Curve {
    let n_seeds = per_seed.len().max(1);
    let n_points = per_seed.first().map_or(0, |p| p.len());
    let mut points = Vec::with_capacity(n_points);
    for k in 0..n_points {
        let it = per_seed[0][k].0;
        let mean = per_seed.iter().map(|p| p[k].1).sum::<f64>() / n_seeds as f64;
        points.push((it, mean));
    }
    Curve { label, points }
}

/// Runs one Figure-3 method on one dataset across the protocol's seeds.
/// Seeds run in parallel (one thread each).
pub fn run_framework_curve(
    id: DatasetId,
    method: Method,
    cfg: &ProtocolConfig,
) -> Result<Curve, ActiveDpError> {
    let per_seed = parallel_over_seeds(cfg, |seed| {
        let data = generate(id, cfg.scale, seed).map_err(|e| ActiveDpError::BadConfig {
            reason: format!("dataset generation failed: {e}"),
        })?;
        match method {
            Method::ActiveDp => {
                let session_cfg = SessionConfig::paper_defaults(id.is_textual(), seed);
                let mut fw = Engine::builder(data).config(session_cfg).build()?;
                drive(&mut fw, cfg)
            }
            Method::Nemo => {
                let mut fw = Nemo::new(&data, seed);
                drive(&mut fw, cfg)
            }
            Method::Iws => {
                let mut fw = Iws::new(&data, seed);
                drive(&mut fw, cfg)
            }
            Method::Rlf => {
                let mut fw = RevisingLf::new(&data, seed);
                drive(&mut fw, cfg)
            }
            Method::Us => {
                let mut fw = UncertaintySampling::new(&data, seed);
                drive(&mut fw, cfg)
            }
        }
    })?;
    Ok(average_seed_points(per_seed, method.label().to_string()))
}

/// Runs an ActiveDP session variant (ablations, sampler study, noise study)
/// given a per-seed config factory.
pub fn run_session_curve(
    id: DatasetId,
    label: &str,
    cfg: &ProtocolConfig,
    make_session: impl Fn(bool, u64) -> SessionConfig + Sync,
) -> Result<Curve, ActiveDpError> {
    let per_seed = parallel_over_seeds(cfg, |seed| {
        let data = generate(id, cfg.scale, seed).map_err(|e| ActiveDpError::BadConfig {
            reason: format!("dataset generation failed: {e}"),
        })?;
        let mut fw = Engine::builder(data)
            .config(make_session(id.is_textual(), seed))
            .build()?;
        drive(&mut fw, cfg)
    })?;
    Ok(average_seed_points(per_seed, label.to_string()))
}

fn parallel_over_seeds(
    cfg: &ProtocolConfig,
    run: impl Fn(u64) -> Result<Vec<(usize, f64)>, ActiveDpError> + Sync,
) -> Result<Vec<Vec<(usize, f64)>>, ActiveDpError> {
    let run = &run;
    let results: Vec<Result<Vec<(usize, f64)>, ActiveDpError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = cfg
            .seeds
            .iter()
            .map(|&seed| scope.spawn(move || run(seed)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("seed thread panicked"))
            .collect()
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_auc_and_last() {
        let c = Curve {
            label: "x".into(),
            points: vec![(10, 0.5), (20, 0.7), (30, 0.9)],
        };
        assert!((c.auc() - 0.7).abs() < 1e-12);
        assert_eq!(c.last(), 0.9);
        let empty = Curve {
            label: "e".into(),
            points: vec![],
        };
        assert_eq!(empty.auc(), 0.0);
    }

    #[test]
    fn method_metadata() {
        assert_eq!(Method::all().len(), 5);
        assert!(Method::Nemo.supports(DatasetId::Youtube));
        assert!(!Method::Nemo.supports(DatasetId::Census));
        assert!(Method::Us.supports(DatasetId::Census));
        assert_eq!(Method::ActiveDp.label(), "ActiveDP");
    }

    #[test]
    fn tiny_protocol_runs_every_method_on_text() {
        let cfg = ProtocolConfig::tiny();
        for method in Method::all() {
            let curve = run_framework_curve(DatasetId::Youtube, method, &cfg).unwrap();
            assert_eq!(curve.points.len(), 2, "{}", method.label());
            assert!(curve.auc() > 0.3, "{} auc {}", method.label(), curve.auc());
        }
    }

    #[test]
    fn session_curve_runs_ablation_config() {
        let cfg = ProtocolConfig::tiny();
        let curve = run_session_curve(DatasetId::Occupancy, "Baseline", &cfg, |textual, seed| {
            SessionConfig::ablation_baseline(textual, seed)
        })
        .unwrap();
        assert_eq!(curve.label, "Baseline");
        assert_eq!(curve.points.len(), 2);
    }

    #[test]
    fn seed_averaging_is_pointwise() {
        let avg = average_seed_points(
            vec![vec![(10, 0.4), (20, 0.6)], vec![(10, 0.6), (20, 1.0)]],
            "m".into(),
        );
        assert_eq!(avg.points, vec![(10, 0.5), (20, 0.8)]);
    }
}
