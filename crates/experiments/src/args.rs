//! Minimal command-line options shared by the experiment binaries.
//!
//! Name parsing routes through the types' own `FromStr` impls
//! (`DatasetId`, `Scale`, `SamplerChoice`, `LabelModelKind`) — one source
//! of truth for the valid options and the error messages listing them.

use crate::protocol::ProtocolConfig;
use activedp::{LabelModelKind, SamplerChoice};
use adp_data::{DatasetId, Scale};

/// Parsed binary options.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Paper-scale protocol (300 iterations, 5 seeds, full data).
    pub full: bool,
    /// Restrict to specific datasets.
    pub datasets: Option<Vec<DatasetId>>,
    /// Override iteration count.
    pub iterations: Option<usize>,
    /// Override seed count.
    pub seeds: Option<usize>,
    /// Output directory for CSVs.
    pub out_dir: String,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            full: false,
            datasets: None,
            iterations: None,
            seeds: None,
            out_dir: "results".into(),
        }
    }
}

impl RunOpts {
    /// Parses `--full`, `--dataset <name>` (repeatable), `--iters N`,
    /// `--seeds N`, `--out DIR`. Unknown flags abort with a usage message.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<RunOpts, String> {
        let mut opts = RunOpts::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => opts.full = true,
                "--dataset" => {
                    let name = args.next().ok_or("--dataset needs a name")?;
                    let id = parse_dataset(&name)?;
                    opts.datasets.get_or_insert_with(Vec::new).push(id);
                }
                "--iters" => {
                    let n = args.next().ok_or("--iters needs a number")?;
                    opts.iterations = Some(n.parse().map_err(|_| format!("bad --iters {n}"))?);
                }
                "--seeds" => {
                    let n = args.next().ok_or("--seeds needs a number")?;
                    opts.seeds = Some(n.parse().map_err(|_| format!("bad --seeds {n}"))?);
                }
                "--out" => {
                    opts.out_dir = args.next().ok_or("--out needs a directory")?;
                }
                other => {
                    return Err(format!(
                        "unknown flag {other}; supported: --full --dataset <name> --iters N --seeds N --out DIR"
                    ));
                }
            }
        }
        Ok(opts)
    }

    /// The protocol this invocation asks for.
    pub fn protocol(&self) -> ProtocolConfig {
        let mut cfg = if self.full {
            ProtocolConfig::paper()
        } else {
            ProtocolConfig::reduced()
        };
        if let Some(iters) = self.iterations {
            cfg.iterations = iters.max(cfg.eval_every);
        }
        if let Some(seeds) = self.seeds {
            cfg.seeds = (1..=seeds.max(1) as u64).collect();
        }
        cfg
    }

    /// The datasets this invocation covers (default: all eight).
    pub fn dataset_list(&self) -> Vec<DatasetId> {
        self.datasets
            .clone()
            .unwrap_or_else(|| DatasetId::all().to_vec())
    }

    /// Scale description for logging.
    pub fn describe(&self) -> String {
        let cfg = self.protocol();
        format!(
            "{} scale, {} iterations, eval every {}, {} seeds",
            match cfg.scale {
                Scale::Paper => "paper",
                Scale::Reduced => "reduced (~20%)",
                Scale::Tiny => "tiny",
                Scale::Custom(_) => "custom",
            },
            cfg.iterations,
            cfg.eval_every,
            cfg.seeds.len()
        )
    }
}

fn parse_dataset(name: &str) -> Result<DatasetId, String> {
    name.parse().map_err(|e: adp_data::DataError| e.to_string())
}

/// Options of the `adp-sweep` binary: the spec-grid axes plus output
/// location (see [`crate::sweep::SweepGrid`]).
#[derive(Debug, Clone)]
pub struct SweepOpts {
    /// The grid to expand and run.
    pub grid: crate::sweep::SweepGrid,
    /// Output directory for the artefact CSV.
    pub out_dir: String,
    /// Local worker threads (`None` = all available cores).
    pub jobs: Option<usize>,
    /// Zero the wall-clock column so artefacts byte-compare across runs.
    pub zero_wall: bool,
}

impl Default for SweepOpts {
    fn default() -> Self {
        SweepOpts {
            grid: crate::sweep::SweepGrid::default_study(DatasetId::Youtube),
            out_dir: "results".into(),
            jobs: None,
            zero_wall: false,
        }
    }
}

impl SweepOpts {
    /// Parses `--dataset <name>`*, `--scale <name>`, `--data-seed N`,
    /// `--sampler <name>`*, `--label-model <name>`*, `--k N`*,
    /// `--budget N`, `--seeds N`,
    /// `--oracle <simulated|noisy:ACC[>BIAS][@POLICY][!CHEAP/EXP]>`*,
    /// `--drift <none|label-shift:AT,PRIOR|covariate:AT,ROT|arriving:PER>`*,
    /// `--out DIR`, `--jobs N`, `--zero-wall`
    /// (`*` = repeatable, replacing that axis's default). Unknown names
    /// abort with the typed errors' valid-option lists.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<SweepOpts, String> {
        let mut opts = SweepOpts::default();
        let mut datasets: Vec<DatasetId> = Vec::new();
        let mut samplers: Vec<SamplerChoice> = Vec::new();
        let mut label_models: Vec<LabelModelKind> = Vec::new();
        let mut ks: Vec<usize> = Vec::new();
        let mut oracles: Vec<activedp::OracleKind> = Vec::new();
        let mut drifts: Vec<adp_data::DriftSpec> = Vec::new();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
            match arg.as_str() {
                "--dataset" => datasets.push(parse_dataset(&value("--dataset")?)?),
                "--scale" => {
                    opts.grid.scale = value("--scale")?
                        .parse()
                        .map_err(|e: adp_data::DataError| e.to_string())?;
                }
                "--data-seed" => {
                    let n = value("--data-seed")?;
                    opts.grid.data_seed = n.parse().map_err(|_| format!("bad --data-seed {n}"))?;
                }
                "--sampler" => samplers.push(
                    value("--sampler")?
                        .parse()
                        .map_err(|e: activedp::UnknownSampler| e.to_string())?,
                ),
                "--label-model" => label_models.push(
                    value("--label-model")?
                        .parse()
                        .map_err(|e: adp_labelmodel::UnknownLabelModel| e.to_string())?,
                ),
                "--k" => {
                    let n = value("--k")?;
                    let k: usize = n.parse().map_err(|_| format!("bad --k {n}"))?;
                    if k == 0 {
                        return Err("--k must be >= 1".into());
                    }
                    ks.push(k);
                }
                "--budget" => {
                    let n = value("--budget")?;
                    opts.grid.budget = n.parse().map_err(|_| format!("bad --budget {n}"))?;
                }
                "--seeds" => {
                    let n = value("--seeds")?;
                    let seeds: u64 = n.parse().map_err(|_| format!("bad --seeds {n}"))?;
                    if seeds == 0 {
                        return Err("--seeds must be >= 1".into());
                    }
                    opts.grid.seeds = (1..=seeds).collect();
                }
                "--oracle" => oracles.push(
                    value("--oracle")?
                        .parse()
                        .map_err(|e: activedp::UnknownOracleKind| e.to_string())?,
                ),
                "--drift" => drifts.push(
                    value("--drift")?
                        .parse()
                        .map_err(|e: adp_data::UnknownDrift| e.to_string())?,
                ),
                "--out" => opts.out_dir = value("--out")?,
                "--jobs" => {
                    let n = value("--jobs")?;
                    let jobs: usize = n.parse().map_err(|_| format!("bad --jobs {n}"))?;
                    if jobs == 0 {
                        return Err("--jobs must be >= 1".into());
                    }
                    opts.jobs = Some(jobs);
                }
                "--zero-wall" => opts.zero_wall = true,
                other => {
                    return Err(format!(
                        "unknown flag {other}; supported: --dataset <name> --scale <name> \
                         --data-seed N --sampler <name> --label-model <name> --k N \
                         --budget N --seeds N --oracle <simulated|noisy:...> \
                         --drift <none|label-shift:AT,PRIOR|covariate:AT,ROT|arriving:PER> \
                         --out DIR --jobs N --zero-wall"
                    ));
                }
            }
        }
        if !datasets.is_empty() {
            opts.grid.datasets = datasets;
        }
        if !samplers.is_empty() {
            opts.grid.samplers = samplers;
        }
        if !label_models.is_empty() {
            opts.grid.label_models = label_models;
        }
        if !ks.is_empty() {
            opts.grid.ks = ks;
        }
        if !oracles.is_empty() {
            opts.grid.oracles = oracles;
        }
        if !drifts.is_empty() {
            opts.grid.drifts = drifts;
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunOpts, String> {
        RunOpts::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_reduced_scale() {
        let opts = parse(&[]).unwrap();
        assert!(!opts.full);
        let cfg = opts.protocol();
        assert_eq!(cfg.iterations, 100);
        assert_eq!(cfg.seeds.len(), 2);
        assert_eq!(opts.dataset_list().len(), 8);
    }

    #[test]
    fn full_flag_selects_paper_protocol() {
        let cfg = parse(&["--full"]).unwrap().protocol();
        assert_eq!(cfg.iterations, 300);
        assert_eq!(cfg.seeds.len(), 5);
        assert_eq!(cfg.scale, Scale::Paper);
    }

    #[test]
    fn dataset_filter_and_overrides() {
        let opts = parse(&[
            "--dataset",
            "youtube",
            "--dataset",
            "Census",
            "--iters",
            "50",
            "--seeds",
            "3",
        ])
        .unwrap();
        assert_eq!(
            opts.dataset_list(),
            vec![DatasetId::Youtube, DatasetId::Census]
        );
        let cfg = opts.protocol();
        assert_eq!(cfg.iterations, 50);
        assert_eq!(cfg.seeds, vec![1, 2, 3]);
    }

    #[test]
    fn rejects_unknown_flag_and_dataset() {
        assert!(parse(&["--nope"]).is_err());
        assert!(parse(&["--dataset", "mnist"]).is_err());
        assert!(parse(&["--iters", "abc"]).is_err());
    }

    #[test]
    fn describe_mentions_scale() {
        assert!(parse(&[]).unwrap().describe().contains("reduced"));
        assert!(parse(&["--full"]).unwrap().describe().contains("paper"));
    }

    fn parse_sweep(args: &[&str]) -> Result<SweepOpts, String> {
        SweepOpts::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn sweep_defaults_are_the_roadmap_study() {
        let opts = parse_sweep(&[]).unwrap();
        assert_eq!(opts.grid.datasets, vec![DatasetId::Youtube]);
        assert_eq!(
            opts.grid.samplers,
            vec![
                SamplerChoice::Uncertainty,
                SamplerChoice::Qbc,
                SamplerChoice::Adp
            ]
        );
        assert_eq!(
            opts.grid.label_models,
            vec![LabelModelKind::Triplet, LabelModelKind::DawidSkene]
        );
        assert_eq!(opts.grid.ks, vec![1, 4, 16]);
        assert_eq!(opts.out_dir, "results");
    }

    #[test]
    fn sweep_flags_replace_axes() {
        let opts = parse_sweep(&[
            "--dataset",
            "census",
            "--scale",
            "tiny",
            "--sampler",
            "us",
            "--sampler",
            "adp",
            "--label-model",
            "ds",
            "--k",
            "2",
            "--budget",
            "12",
            "--seeds",
            "3",
            "--out",
            "/tmp/sweep",
        ])
        .unwrap();
        assert_eq!(opts.grid.datasets, vec![DatasetId::Census]);
        assert_eq!(
            opts.grid.samplers,
            vec![SamplerChoice::Uncertainty, SamplerChoice::Adp]
        );
        assert_eq!(opts.grid.label_models, vec![LabelModelKind::DawidSkene]);
        assert_eq!(opts.grid.ks, vec![2]);
        assert_eq!(opts.grid.budget, 12);
        assert_eq!(opts.grid.seeds, vec![1, 2, 3]);
        assert_eq!(opts.out_dir, "/tmp/sweep");
    }

    #[test]
    fn sweep_rejects_unknown_names_with_option_lists() {
        let err = parse_sweep(&["--sampler", "oracle"]).unwrap_err();
        assert!(err.contains("ADP"), "{err}");
        let err = parse_sweep(&["--label-model", "snorkel"]).unwrap_err();
        assert!(err.contains("Triplet"), "{err}");
        let err = parse_sweep(&["--dataset", "mnist"]).unwrap_err();
        assert!(err.contains("Youtube"), "{err}");
        // The retired candidate-strategy flag is an unknown flag.
        assert!(parse_sweep(&["--candidates", "exact"]).is_err());
        assert!(parse_sweep(&["--k", "0"]).is_err());
        assert!(parse_sweep(&["--seeds", "0"]).is_err());
        assert!(parse_sweep(&["--warp", "9"]).is_err());
    }

    #[test]
    fn sweep_jobs_and_zero_wall_flags_parse() {
        let opts = parse_sweep(&[]).unwrap();
        assert_eq!(opts.jobs, None);
        assert!(!opts.zero_wall);
        let opts = parse_sweep(&["--jobs", "4", "--zero-wall"]).unwrap();
        assert_eq!(opts.jobs, Some(4));
        assert!(opts.zero_wall);
        assert!(parse_sweep(&["--jobs", "0"]).is_err());
        assert!(parse_sweep(&["--jobs", "four"]).is_err());
        assert!(parse_sweep(&["--jobs"]).is_err());
    }

    #[test]
    fn sweep_oracle_and_drift_flags_replace_their_axes() {
        let opts = parse_sweep(&[]).unwrap();
        assert_eq!(opts.grid.oracles, vec![activedp::OracleKind::Simulated]);
        assert_eq!(opts.grid.drifts, vec![adp_data::DriftSpec::None]);

        let opts = parse_sweep(&[
            "--oracle",
            "simulated",
            "--oracle",
            "noisy:0.85",
            "--drift",
            "label-shift:8,0.8",
            "--drift",
            "none",
        ])
        .unwrap();
        assert_eq!(opts.grid.oracles.len(), 2);
        assert_eq!(opts.grid.oracles[0], activedp::OracleKind::Simulated);
        assert!(matches!(
            opts.grid.oracles[1],
            activedp::OracleKind::Noisy { .. }
        ));
        assert_eq!(
            opts.grid.drifts,
            vec![
                adp_data::DriftSpec::LabelShift { at: 8, prior: 0.8 },
                adp_data::DriftSpec::None
            ]
        );

        // Unknown names abort with the grammars' option lists.
        let err = parse_sweep(&["--oracle", "psychic"]).unwrap_err();
        assert!(err.contains("noisy:ACC"), "{err}");
        let err = parse_sweep(&["--drift", "tectonic"]).unwrap_err();
        assert!(err.contains("label-shift:AT"), "{err}");
        assert!(parse_sweep(&["--oracle"]).is_err());
        assert!(parse_sweep(&["--drift"]).is_err());
    }
}
