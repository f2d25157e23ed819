//! The declarative description of a complete run: [`ScenarioSpec`] +
//! [`BudgetSchedule`].
//!
//! ActiveDP's contribution is a *configuration space* — sampler × label
//! model × LF filtering × labelling budget — evaluated over many runs
//! (paper Tables 2–4). A [`ScenarioSpec`] is one point of that space as
//! plain data: which dataset (by regenerable [`DatasetSpec`] provenance),
//! which [`SessionConfig`], how the labelling budget is spent
//! ([`BudgetSchedule`]), and how large that budget is. Everything an
//! engine needs is a deterministic function of the spec, so a spec is the
//! unit of reproducibility: it serializes to bytes (`adp-wire`, versioned
//! envelope) and to JSON (the serving layer's `create_spec` request), it
//! is embedded in every [`SessionSnapshot`](crate::SessionSnapshot) so a
//! resumed session knows exactly what it is, and the `adp-sweep` binary
//! expands grids of specs into deterministic runs.
//!
//! [`Engine::from_spec`](crate::Engine::from_spec) is the one true
//! constructor; [`EngineBuilder`](crate::EngineBuilder) is an ergonomic
//! layer that assembles a spec from setters.
//!
//! ```
//! use activedp::{BudgetSchedule, Engine, ScenarioSpec};
//! use adp_data::{DatasetId, DatasetSpec, Scale};
//!
//! let mut spec = ScenarioSpec::new(DatasetSpec {
//!     id: DatasetId::Youtube,
//!     scale: Scale::Tiny,
//!     seed: 7,
//! });
//! spec.session.seed = 7;
//! spec.schedule = BudgetSchedule::FixedBatch { k: 4 };
//! spec.budget = 8;
//!
//! // The spec round-trips the wire and fully determines the run.
//! let same = ScenarioSpec::from_bytes(&spec.to_bytes()).unwrap();
//! let mut engine = Engine::from_spec(same).unwrap();
//! let outcomes = engine.run_schedule().unwrap();
//! assert_eq!(outcomes.len(), 8); // 8 queries in 2 batches of 4
//! ```

use crate::config::{CandidateStrategy, SessionConfig};
use crate::error::ActiveDpError;
use adp_data::{DatasetSpec, DriftSpec};
use adp_oracle::{ConfusionSpec, LatencyModel, OracleKind, RoutePolicy};
use adp_wire::{read_envelope, write_envelope, Decode, Encode, Reader, WireError, Writer};

/// Magic bytes opening every encoded scenario spec.
pub const SCENARIO_MAGIC: &[u8; 8] = b"ADPSCEN\0";

/// Current scenario wire-format version, and the only one decoded. Bump
/// deliberately: the golden-bytes fixture
/// (`tests/fixtures/scenario_v3.bin`) pins the encoding, and decoders
/// reject every other version — the v1/v2 layouts included (see
/// MIGRATION.md) — with [`WireError::UnknownVersion`].
pub const SCENARIO_VERSION: u32 = 3;

/// Default labelling budget for [`ScenarioSpec::new`] — the reduced
/// protocol's iteration count (the paper's full protocol uses
/// [`ScenarioSpec::paper`]'s 300).
pub const DEFAULT_BUDGET: usize = 100;

/// How a labelling budget is spent: where the refit boundaries fall in the
/// query stream.
///
/// The paper's loop refits after *every* query
/// ([`BudgetSchedule::FixedStep`]); batching k queries per refit
/// ([`BudgetSchedule::FixedBatch`]) trades label-model freshness for
/// wall-clock (one refit amortises over k queries) — the trade the
/// ROADMAP's budget/latency study sweeps. Schedules are *aligned to
/// absolute iteration numbers*: the batch containing iteration `i` is the
/// same whether the run was interrupted or not, so a resumed session
/// continues the schedule where it stopped.
///
/// ```
/// use activedp::BudgetSchedule;
///
/// let doubling = BudgetSchedule::Doubling { cap: 4 };
/// // Batches of 1, 2, 4, 4, … until the budget (here 10) is spent.
/// assert_eq!(doubling.batch_sizes(10), vec![1, 2, 4, 3]);
/// assert_eq!(doubling.n_batches(10), 4);
/// // FixedBatch{1} is exactly the paper's one-query-per-refit loop.
/// assert_eq!(
///     BudgetSchedule::FixedBatch { k: 1 }.batch_sizes(3),
///     BudgetSchedule::FixedStep.batch_sizes(3),
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetSchedule {
    /// One query per refit — the paper's loop (equivalent to
    /// [`BudgetSchedule::FixedBatch`] with `k = 1`, pinned bitwise by
    /// `tests/engine_parity.rs`).
    FixedStep,
    /// `k` queries per refit.
    FixedBatch {
        /// Queries per refit (≥ 1).
        k: usize,
    },
    /// Batch size doubles every refit — 1, 2, 4, … — capped at `cap`.
    /// Spends early budget on fresh models and late budget on throughput.
    Doubling {
        /// Largest batch size (≥ 1).
        cap: usize,
    },
    /// Explicit phases: each segment runs `batches` refit batches of `k`
    /// queries; after the last segment, its `k` continues until the
    /// budget is spent.
    Phased {
        /// The segments, in order (non-empty).
        segments: Vec<PhaseSegment>,
    },
}

/// One segment of a [`BudgetSchedule::Phased`] schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSegment {
    /// Queries per refit within this segment (≥ 1).
    pub k: usize,
    /// How many batches the segment lasts (≥ 1).
    pub batches: usize,
}

impl BudgetSchedule {
    /// Rejects degenerate schedules (`FixedBatch{k: 0}`, `Doubling{cap:
    /// 0}`, empty or zero-sized `Phased` segments) — each would make the
    /// loop spin without consuming budget.
    pub fn validate(&self) -> Result<(), ActiveDpError> {
        let bad = |reason: String| Err(ActiveDpError::BadConfig { reason });
        match self {
            BudgetSchedule::FixedStep => Ok(()),
            BudgetSchedule::FixedBatch { k: 0 } => {
                bad("schedule FixedBatch requires k >= 1".into())
            }
            BudgetSchedule::FixedBatch { .. } => Ok(()),
            BudgetSchedule::Doubling { cap: 0 } => {
                bad("schedule Doubling requires cap >= 1".into())
            }
            BudgetSchedule::Doubling { .. } => Ok(()),
            BudgetSchedule::Phased { segments } => {
                if segments.is_empty() {
                    return bad("schedule Phased requires at least one segment".into());
                }
                for (i, seg) in segments.iter().enumerate() {
                    if seg.k == 0 || seg.batches == 0 {
                        return bad(format!(
                            "schedule Phased segment {i} requires k >= 1 and batches >= 1"
                        ));
                    }
                }
                Ok(())
            }
        }
    }

    /// Size of the batch that starts (or, after an interruption,
    /// *continues*) at iteration `done`, clipped to `budget`. Returns 0
    /// when the budget is spent. Alignment is absolute: refit boundaries
    /// depend only on the schedule, never on where a run was resumed.
    pub fn next_batch_at(&self, done: usize, budget: usize) -> usize {
        if done >= budget {
            return 0;
        }
        let boundary = match self {
            BudgetSchedule::FixedStep => done + 1,
            BudgetSchedule::FixedBatch { k } => done + (k - done % k),
            BudgetSchedule::Doubling { cap } => {
                let (mut pos, mut size) = (0usize, 1usize);
                while pos + size <= done {
                    pos += size;
                    size = (size.saturating_mul(2)).min(*cap);
                }
                pos + size
            }
            BudgetSchedule::Phased { segments } => {
                let mut pos = 0usize;
                let mut boundary = None;
                'walk: for seg in segments {
                    for _ in 0..seg.batches {
                        if pos + seg.k > done {
                            boundary = Some(pos + seg.k);
                            break 'walk;
                        }
                        pos += seg.k;
                    }
                }
                boundary.unwrap_or_else(|| {
                    // Past the declared segments: the last k continues,
                    // aligned from where the segments ended.
                    let k = segments.last().map_or(1, |s| s.k.max(1));
                    done + (k - (done - pos) % k)
                })
            }
        };
        boundary.min(budget) - done
    }

    /// The batch sizes a fresh run of `budget` iterations goes through
    /// (they sum to `budget`; the pool permitting).
    pub fn batch_sizes(&self, budget: usize) -> Vec<usize> {
        let mut sizes = Vec::new();
        let mut done = 0;
        loop {
            let k = self.next_batch_at(done, budget);
            if k == 0 {
                return sizes;
            }
            sizes.push(k);
            done += k;
        }
    }

    /// How many refit batches `budget` iterations take — the denominator
    /// of the sweep artefact's accuracy-per-refit column.
    pub fn n_batches(&self, budget: usize) -> usize {
        self.batch_sizes(budget).len()
    }

    /// How many refit batches are *complete* at iteration `done` — the
    /// arriving-pool drift's clock: instances arrive per completed refit,
    /// and because alignment is absolute this is the same number whether
    /// the run was interrupted or not.
    pub fn batches_completed_at(&self, done: usize, budget: usize) -> usize {
        let mut pos = 0;
        let mut completed = 0;
        loop {
            let k = self.next_batch_at(pos, budget);
            if k == 0 || pos + k > done {
                return completed;
            }
            pos += k;
            completed += 1;
        }
    }

    /// Whether iteration `at` is a refit (batch) boundary of this schedule
    /// under `budget` — where a mid-run drift is allowed to land. Iteration
    /// 0 (the start) never counts.
    pub fn is_batch_boundary(&self, at: usize, budget: usize) -> bool {
        if at == 0 {
            return false;
        }
        let mut pos = 0;
        loop {
            let k = self.next_batch_at(pos, budget);
            if k == 0 {
                return false;
            }
            pos += k;
            if pos >= at {
                return pos == at;
            }
        }
    }

    /// Compact artefact label (`step`, `batch4`, `double16`,
    /// `phased-2x1-3x8`).
    pub fn label(&self) -> String {
        match self {
            BudgetSchedule::FixedStep => "step".into(),
            BudgetSchedule::FixedBatch { k } => format!("batch{k}"),
            BudgetSchedule::Doubling { cap } => format!("double{cap}"),
            BudgetSchedule::Phased { segments } => {
                let mut out = String::from("phased");
                for seg in segments {
                    out.push_str(&format!("-{}x{}", seg.batches, seg.k));
                }
                out
            }
        }
    }
}

impl Encode for BudgetSchedule {
    fn encode(&self, w: &mut Writer) {
        match self {
            BudgetSchedule::FixedStep => w.put_u8(0),
            BudgetSchedule::FixedBatch { k } => {
                w.put_u8(1);
                w.put_usize(*k);
            }
            BudgetSchedule::Doubling { cap } => {
                w.put_u8(2);
                w.put_usize(*cap);
            }
            BudgetSchedule::Phased { segments } => {
                w.put_u8(3);
                w.put_usize(segments.len());
                for seg in segments {
                    w.put_usize(seg.k);
                    w.put_usize(seg.batches);
                }
            }
        }
    }
}

impl Decode for BudgetSchedule {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => BudgetSchedule::FixedStep,
            1 => BudgetSchedule::FixedBatch { k: r.get_usize()? },
            2 => BudgetSchedule::Doubling {
                cap: r.get_usize()?,
            },
            3 => {
                let n = r.get_len("phase segments", 16)?;
                let mut segments = Vec::with_capacity(n);
                for _ in 0..n {
                    segments.push(PhaseSegment {
                        k: r.get_usize()?,
                        batches: r.get_usize()?,
                    });
                }
                BudgetSchedule::Phased { segments }
            }
            tag => {
                return Err(WireError::BadTag {
                    what: "budget schedule",
                    tag,
                })
            }
        })
    }
}

/// A complete, serializable description of one run — see the
/// [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Which dataset split, by regenerable provenance.
    pub dataset: DatasetSpec,
    /// The session configuration (sampler, label model, ablations, seed).
    pub session: SessionConfig,
    /// How the labelling budget is spent.
    pub schedule: BudgetSchedule,
    /// Total labelling budget (loop iterations
    /// [`Engine::run_schedule`](crate::Engine::run_schedule) drives).
    pub budget: usize,
    /// How (and whether) the pool drifts mid-run: [`DriftSpec::None`] (the
    /// paper's static i.i.d. setting, the default) or a streaming scenario
    /// whose boundary lands on a refit boundary of [`ScenarioSpec::schedule`].
    pub drift: DriftSpec,
}

impl ScenarioSpec {
    /// The default scenario over `dataset`: the paper configuration for
    /// the dataset's modality at seed 0, one query per refit, budget
    /// [`DEFAULT_BUDGET`]. Fields are plain data — edit them directly.
    pub fn new(dataset: DatasetSpec) -> Self {
        ScenarioSpec {
            dataset,
            session: SessionConfig::paper_defaults(dataset.id.is_textual(), 0),
            schedule: BudgetSchedule::FixedStep,
            budget: DEFAULT_BUDGET,
            drift: DriftSpec::None,
        }
    }

    /// The paper's protocol point for `dataset` at `seed`: paper config,
    /// one query per refit, 300 iterations (§4.1.3).
    pub fn paper(dataset: DatasetSpec, seed: u64) -> Self {
        ScenarioSpec {
            session: SessionConfig::paper_defaults(dataset.id.is_textual(), seed),
            budget: 300,
            ..ScenarioSpec::new(dataset)
        }
    }

    /// Validates the whole description: session ranges
    /// (`SessionConfig::validate`), schedule shape
    /// ([`BudgetSchedule::validate`]), and the drift scenario — numeric
    /// ranges, modality (covariate rotation needs dense features), and
    /// boundary alignment (a mutating drift must land on a refit boundary
    /// within the budget, so the label model never refits against a pool
    /// it half-saw).
    pub fn validate(&self) -> Result<(), ActiveDpError> {
        self.session.validate()?;
        self.schedule.validate()?;
        self.drift
            .validate(self.dataset.id.is_textual())
            .map_err(|reason| ActiveDpError::BadConfig { reason })?;
        if let Some(at) = self.drift.boundary() {
            if !self.schedule.is_batch_boundary(at, self.budget) {
                return Err(ActiveDpError::BadConfig {
                    reason: format!(
                        "drift boundary {at} is not a refit boundary of schedule {} under budget {}",
                        self.schedule.label(),
                        self.budget
                    ),
                });
            }
        }
        Ok(())
    }

    /// Encodes the spec into its canonical, versioned byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = write_envelope(SCENARIO_MAGIC, SCENARIO_VERSION);
        w.put(self);
        w.into_bytes()
    }

    /// Decodes a spec written by [`ScenarioSpec::to_bytes`], rejecting
    /// foreign magic, every version but [`SCENARIO_VERSION`], truncation
    /// and trailing bytes with typed errors.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ActiveDpError> {
        let (mut r, _) = read_envelope(bytes, SCENARIO_MAGIC, SCENARIO_VERSION..=SCENARIO_VERSION)?;
        let spec = r.get()?;
        r.finish()?;
        Ok(spec)
    }
}

impl Encode for ScenarioSpec {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.dataset);
        enc_config(w, &self.session);
        w.put(&self.schedule);
        w.put_usize(self.budget);
        w.put(&self.drift);
    }
}

impl Decode for ScenarioSpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ScenarioSpec {
            dataset: r.get()?,
            session: dec_config(r)?,
            schedule: r.get()?,
            budget: r.get_usize()?,
            drift: r.get()?,
        })
    }
}

/// [`SessionConfig`] body encoding, part of every encoded
/// [`ScenarioSpec`] (scenario files, snapshots, WAL manifests).
fn enc_config(w: &mut Writer, c: &SessionConfig) {
    use crate::config::SamplerChoice;
    use adp_labelmodel::LabelModelKind;
    w.put_f64(c.alpha);
    w.put_f64(c.acc_threshold);
    w.put_f64(c.noise_rate);
    w.put_u8(match c.label_model {
        LabelModelKind::MajorityVote => 0,
        LabelModelKind::DawidSkene => 1,
        LabelModelKind::Triplet => 2,
    });
    w.put_bool(c.use_labelpick);
    w.put_bool(c.use_confusion);
    w.put_f64(c.labelpick.rho);
    w.put_f64(c.labelpick.blanket_tol);
    w.put_f64(c.labelpick.blanket_rel);
    w.put_usize(c.labelpick.cap);
    w.put_usize(c.labelpick.min_queries);
    w.put_bool(c.labelpick.parallel);
    w.put_u8(match c.sampler {
        SamplerChoice::Adp => 0,
        SamplerChoice::Passive => 1,
        SamplerChoice::Uncertainty => 2,
        SamplerChoice::Lal => 3,
        SamplerChoice::Seu => 4,
        SamplerChoice::Qbc => 5,
    });
    enc_logreg(w, &c.al_logreg);
    enc_logreg(w, &c.downstream_logreg);
    w.put_bool(c.parallel);
    w.put_u64(c.seed);
    w.put_u8(match c.candidates {
        CandidateStrategy::Exact => 0,
    });
    match c.oracle {
        OracleKind::Simulated => w.put_u8(0),
        OracleKind::Noisy {
            confusion,
            latency,
            policy,
        } => {
            w.put_u8(1);
            match confusion {
                ConfusionSpec::Uniform { accuracy } => {
                    w.put_u8(0);
                    w.put_f64(accuracy);
                }
                ConfusionSpec::Biased { accuracy, bias } => {
                    w.put_u8(1);
                    w.put_f64(accuracy);
                    w.put_usize(bias);
                }
            }
            w.put_f64(latency.cheap_cost);
            w.put_f64(latency.expensive_cost);
            match policy {
                RoutePolicy::AlwaysCheap => w.put_u8(0),
                RoutePolicy::UncertaintyThreshold { tau } => {
                    w.put_u8(1);
                    w.put_f64(tau);
                }
                RoutePolicy::CheapThenEscalate => w.put_u8(2),
            }
        }
    }
}

fn dec_config(r: &mut Reader<'_>) -> Result<SessionConfig, WireError> {
    use crate::config::SamplerChoice;
    use crate::labelpick::LabelPickConfig;
    use adp_labelmodel::LabelModelKind;
    let alpha = r.get_f64()?;
    let acc_threshold = r.get_f64()?;
    let noise_rate = r.get_f64()?;
    let label_model = match r.get_u8()? {
        0 => LabelModelKind::MajorityVote,
        1 => LabelModelKind::DawidSkene,
        2 => LabelModelKind::Triplet,
        tag => {
            return Err(WireError::BadTag {
                what: "label model kind",
                tag,
            })
        }
    };
    let use_labelpick = r.get_bool()?;
    let use_confusion = r.get_bool()?;
    let labelpick = LabelPickConfig {
        rho: r.get_f64()?,
        blanket_tol: r.get_f64()?,
        blanket_rel: r.get_f64()?,
        cap: r.get_usize()?,
        min_queries: r.get_usize()?,
        parallel: r.get_bool()?,
    };
    let sampler = match r.get_u8()? {
        0 => SamplerChoice::Adp,
        1 => SamplerChoice::Passive,
        2 => SamplerChoice::Uncertainty,
        3 => SamplerChoice::Lal,
        4 => SamplerChoice::Seu,
        5 => SamplerChoice::Qbc,
        tag => {
            return Err(WireError::BadTag {
                what: "sampler choice",
                tag,
            })
        }
    };
    let al_logreg = dec_logreg(r)?;
    let downstream_logreg = dec_logreg(r)?;
    let parallel = r.get_bool()?;
    let seed = r.get_u64()?;
    let candidates = match r.get_u8()? {
        0 => CandidateStrategy::Exact,
        tag => {
            return Err(WireError::BadTag {
                what: "candidate strategy",
                tag,
            })
        }
    };
    let oracle = match r.get_u8()? {
        0 => OracleKind::Simulated,
        1 => {
            let confusion = match r.get_u8()? {
                0 => ConfusionSpec::Uniform {
                    accuracy: r.get_f64()?,
                },
                1 => ConfusionSpec::Biased {
                    accuracy: r.get_f64()?,
                    bias: r.get_usize()?,
                },
                tag => {
                    return Err(WireError::BadTag {
                        what: "confusion spec",
                        tag,
                    })
                }
            };
            let latency = LatencyModel {
                cheap_cost: r.get_f64()?,
                expensive_cost: r.get_f64()?,
            };
            let policy = match r.get_u8()? {
                0 => RoutePolicy::AlwaysCheap,
                1 => RoutePolicy::UncertaintyThreshold { tau: r.get_f64()? },
                2 => RoutePolicy::CheapThenEscalate,
                tag => {
                    return Err(WireError::BadTag {
                        what: "route policy",
                        tag,
                    })
                }
            };
            OracleKind::Noisy {
                confusion,
                latency,
                policy,
            }
        }
        tag => {
            return Err(WireError::BadTag {
                what: "oracle kind",
                tag,
            })
        }
    };
    Ok(SessionConfig {
        alpha,
        acc_threshold,
        noise_rate,
        label_model,
        use_labelpick,
        use_confusion,
        labelpick,
        sampler,
        candidates,
        oracle,
        al_logreg,
        downstream_logreg,
        parallel,
        seed,
    })
}

fn enc_logreg(w: &mut Writer, c: &adp_classifier::LogRegConfig) {
    w.put_f64(c.l2);
    w.put_usize(c.max_iters);
    w.put_f64(c.tol);
    w.put_bool(c.parallel);
}

fn dec_logreg(r: &mut Reader<'_>) -> Result<adp_classifier::LogRegConfig, WireError> {
    Ok(adp_classifier::LogRegConfig {
        l2: r.get_f64()?,
        max_iters: r.get_usize()?,
        tol: r.get_f64()?,
        parallel: r.get_bool()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_data::{DatasetId, Scale};

    fn dataset() -> DatasetSpec {
        DatasetSpec {
            id: DatasetId::Youtube,
            scale: Scale::Tiny,
            seed: 7,
        }
    }

    #[test]
    fn fixed_step_is_fixed_batch_one() {
        for budget in [0, 1, 5, 17] {
            assert_eq!(
                BudgetSchedule::FixedStep.batch_sizes(budget),
                BudgetSchedule::FixedBatch { k: 1 }.batch_sizes(budget),
            );
        }
    }

    #[test]
    fn batch_sizes_partition_the_budget() {
        let schedules = [
            BudgetSchedule::FixedStep,
            BudgetSchedule::FixedBatch { k: 4 },
            BudgetSchedule::Doubling { cap: 8 },
            BudgetSchedule::Phased {
                segments: vec![
                    PhaseSegment { k: 1, batches: 3 },
                    PhaseSegment { k: 5, batches: 2 },
                ],
            },
        ];
        for schedule in &schedules {
            for budget in [0usize, 1, 7, 30] {
                let sizes = schedule.batch_sizes(budget);
                assert_eq!(
                    sizes.iter().sum::<usize>(),
                    budget,
                    "{schedule:?} budget {budget}: {sizes:?}"
                );
                assert!(sizes.iter().all(|&k| k >= 1));
            }
        }
    }

    #[test]
    fn schedules_align_to_absolute_iterations() {
        // Resuming at any point continues the same boundaries: walking
        // next_batch_at from an arbitrary `done` lands exactly on the
        // fresh run's boundaries.
        let schedules = [
            BudgetSchedule::FixedBatch { k: 4 },
            BudgetSchedule::Doubling { cap: 4 },
            BudgetSchedule::Phased {
                segments: vec![
                    PhaseSegment { k: 2, batches: 2 },
                    PhaseSegment { k: 3, batches: 1 },
                ],
            },
        ];
        let budget = 23;
        for schedule in &schedules {
            let fresh: Vec<usize> = {
                // Boundary positions of an uninterrupted run.
                let mut done = 0;
                let mut stops = vec![];
                while done < budget {
                    done += schedule.next_batch_at(done, budget);
                    stops.push(done);
                }
                stops
            };
            for resume_at in 0..budget {
                let next = resume_at + schedule.next_batch_at(resume_at, budget);
                assert!(
                    fresh.contains(&next),
                    "{schedule:?} resumed at {resume_at} refits at {next}, fresh stops {fresh:?}"
                );
            }
        }
    }

    #[test]
    fn doubling_sequence_caps() {
        assert_eq!(
            BudgetSchedule::Doubling { cap: 4 }.batch_sizes(20),
            vec![1, 2, 4, 4, 4, 4, 1]
        );
    }

    #[test]
    fn phased_tail_continues_last_segment() {
        let sched = BudgetSchedule::Phased {
            segments: vec![PhaseSegment { k: 2, batches: 1 }],
        };
        assert_eq!(sched.batch_sizes(7), vec![2, 2, 2, 1]);
    }

    #[test]
    fn degenerate_schedules_are_rejected() {
        assert!(BudgetSchedule::FixedBatch { k: 0 }.validate().is_err());
        assert!(BudgetSchedule::Doubling { cap: 0 }.validate().is_err());
        assert!(BudgetSchedule::Phased { segments: vec![] }
            .validate()
            .is_err());
        assert!(BudgetSchedule::Phased {
            segments: vec![PhaseSegment { k: 0, batches: 1 }]
        }
        .validate()
        .is_err());
        assert!(BudgetSchedule::Phased {
            segments: vec![PhaseSegment { k: 1, batches: 0 }]
        }
        .validate()
        .is_err());
        assert!(BudgetSchedule::FixedBatch { k: 1 }.validate().is_ok());
    }

    #[test]
    fn labels_are_compact_and_distinct() {
        assert_eq!(BudgetSchedule::FixedStep.label(), "step");
        assert_eq!(BudgetSchedule::FixedBatch { k: 16 }.label(), "batch16");
        assert_eq!(BudgetSchedule::Doubling { cap: 8 }.label(), "double8");
        assert_eq!(
            BudgetSchedule::Phased {
                segments: vec![
                    PhaseSegment { k: 1, batches: 2 },
                    PhaseSegment { k: 8, batches: 3 },
                ]
            }
            .label(),
            "phased-2x1-3x8"
        );
    }

    #[test]
    fn spec_bytes_roundtrip_exactly() {
        let mut spec = ScenarioSpec::paper(dataset(), 5);
        spec.schedule = BudgetSchedule::Phased {
            segments: vec![PhaseSegment { k: 3, batches: 2 }],
        };
        let bytes = spec.to_bytes();
        let back = ScenarioSpec::from_bytes(&bytes).unwrap();
        assert_eq!(spec, back);
        assert_eq!(bytes, back.to_bytes());
    }

    /// Byte offset of the candidate-strategy tag inside an encoded spec:
    /// the byte right after the session seed, found by giving the spec a
    /// seed whose little-endian bytes occur nowhere else in the encoding.
    fn candidate_tag_offset(spec: &mut ScenarioSpec) -> usize {
        const SEED: u64 = 0xC0FF_EE00_DEAD_BEEF;
        spec.session.seed = SEED;
        let bytes = spec.to_bytes();
        let seed = SEED.to_le_bytes();
        let mut at = bytes.windows(8).enumerate().filter(|(_, w)| *w == seed);
        let (pos, _) = at.next().expect("the seed is encoded");
        assert!(at.next().is_none(), "the seed pattern is unique");
        pos + 8
    }

    #[test]
    fn oracle_and_drift_round_trip_through_the_codec() {
        let mut spec = ScenarioSpec::paper(dataset(), 5);
        spec.session.oracle = OracleKind::Noisy {
            confusion: ConfusionSpec::Biased {
                accuracy: 0.75,
                bias: 1,
            },
            latency: LatencyModel {
                cheap_cost: 0.5,
                expensive_cost: 24.0,
            },
            policy: RoutePolicy::UncertaintyThreshold { tau: 0.3 },
        };
        spec.drift = DriftSpec::LabelShift { at: 10, prior: 0.8 };
        let bytes = spec.to_bytes();
        let back = ScenarioSpec::from_bytes(&bytes).unwrap();
        assert_eq!(spec, back);
        assert_eq!(bytes, back.to_bytes());
        // Every oracle shape survives.
        for policy in [
            RoutePolicy::AlwaysCheap,
            RoutePolicy::CheapThenEscalate,
            RoutePolicy::UncertaintyThreshold { tau: 0.0 },
        ] {
            spec.session.oracle = OracleKind::Noisy {
                confusion: ConfusionSpec::Uniform { accuracy: 0.9 },
                latency: LatencyModel::default(),
                policy,
            };
            let back = ScenarioSpec::from_bytes(&spec.to_bytes()).unwrap();
            assert_eq!(spec, back);
        }
        // And every drift shape.
        for drift in [
            DriftSpec::None,
            DriftSpec::CovariateDrift {
                at: 4,
                rotation: 0.5,
            },
            DriftSpec::ArrivingPool { per_refit: 3 },
        ] {
            spec.drift = drift;
            let back = ScenarioSpec::from_bytes(&spec.to_bytes()).unwrap();
            assert_eq!(spec, back);
        }
    }

    #[test]
    fn candidate_tag_is_not_read_from_v1_bodies() {
        // A v1-shaped body (no candidate tag) under the current stamp must
        // fail: the decoder reads the current layout only.
        let mut spec = ScenarioSpec::new(dataset());
        let tag_at = candidate_tag_offset(&mut spec);
        let bytes = spec.to_bytes();
        assert_eq!(bytes[tag_at], 0, "Exact is tag 0");
        let mut v1 = bytes.clone();
        v1.remove(tag_at);
        assert!(ScenarioSpec::from_bytes(&v1).is_err());
        // Tag 1 was the retired approximate-candidate strategy: a typed
        // error, not a silent fallback to exact scoring.
        let mut retired = bytes;
        retired[tag_at] = 1;
        assert!(matches!(
            ScenarioSpec::from_bytes(&retired),
            Err(ActiveDpError::SnapshotCodec(WireError::BadTag {
                what: "candidate strategy",
                tag: 1,
            }))
        ));
    }

    #[test]
    fn spec_decoder_rejects_corruption() {
        let bytes = ScenarioSpec::new(dataset()).to_bytes();
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xff;
        assert!(matches!(
            ScenarioSpec::from_bytes(&wrong),
            Err(ActiveDpError::SnapshotCodec(WireError::BadMagic { .. }))
        ));
        // Future and retired (v1/v2) stamps alike.
        for stamp in [9u32, 1, 2] {
            let mut other = bytes.clone();
            other[8..12].copy_from_slice(&stamp.to_le_bytes());
            assert!(matches!(
                ScenarioSpec::from_bytes(&other),
                Err(ActiveDpError::SnapshotCodec(WireError::UnknownVersion {
                    found,
                    supported: SCENARIO_VERSION,
                })) if found == stamp
            ));
        }
        for cut in 0..bytes.len() {
            assert!(ScenarioSpec::from_bytes(&bytes[..cut]).is_err());
        }
        let mut padded = bytes;
        padded.push(0);
        assert!(matches!(
            ScenarioSpec::from_bytes(&padded),
            Err(ActiveDpError::SnapshotCodec(
                WireError::TrailingBytes { .. }
            ))
        ));
    }

    #[test]
    fn validate_covers_session_and_schedule() {
        let mut spec = ScenarioSpec::new(dataset());
        assert!(spec.validate().is_ok());
        spec.schedule = BudgetSchedule::FixedBatch { k: 0 };
        assert!(spec.validate().is_err());
        spec.schedule = BudgetSchedule::FixedStep;
        spec.session.alpha = 7.0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn defaults_follow_modality() {
        let text = ScenarioSpec::new(dataset());
        assert_eq!(text.session.alpha, 0.5);
        assert_eq!(text.budget, DEFAULT_BUDGET);
        let tabular = ScenarioSpec::paper(
            DatasetSpec {
                id: DatasetId::Census,
                scale: Scale::Tiny,
                seed: 1,
            },
            3,
        );
        assert_eq!(tabular.session.alpha, 0.99);
        assert_eq!(tabular.session.seed, 3);
        assert_eq!(tabular.budget, 300);
    }
}
