//! The budget/latency sweep: a grid of [`ScenarioSpec`]s expanded into
//! deterministic runs (ROADMAP's "k vs. accuracy-per-refit and wall-clock"
//! study).
//!
//! A [`SweepGrid`] is the cartesian product sampler × label model × batch
//! size × dataset × seed; [`SweepGrid::expand`] turns it into concrete
//! specs in a fixed nesting order, [`run_grid`] drives each one through
//! `Engine::from_spec_over` + `Engine::run_schedule` (sharing one
//! generated split per dataset spec), and [`grid_table`] renders the
//! Table-style artefact the `adp-sweep` binary writes: per combination,
//! the refit count, the final downstream accuracy, accuracy per refit, and
//! the loop wall-clock. Runs are deterministic in the spec, so rows
//! reproduce bit-for-bit (wall-clock aside) across invocations.

use activedp::{
    ActiveDpError, BudgetSchedule, Engine, LabelModelKind, OracleKind, SamplerChoice, ScenarioSpec,
};
use adp_data::{DatasetId, DatasetSpec, DriftSpec, Scale, SharedDataset};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The spec grid a sweep expands (see the module docs).
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Datasets to sweep.
    pub datasets: Vec<DatasetId>,
    /// Scale every dataset generates at.
    pub scale: Scale,
    /// Generator seed for every dataset.
    pub data_seed: u64,
    /// Query-instance selectors to sweep.
    pub samplers: Vec<SamplerChoice>,
    /// Label models to sweep.
    pub label_models: Vec<LabelModelKind>,
    /// Queries-per-refit batch sizes (`k = 1` is the paper's loop).
    pub ks: Vec<usize>,
    /// Labelling budget per run.
    pub budget: usize,
    /// Session seeds each combination averages over.
    pub seeds: Vec<u64>,
    /// Label oracles to sweep (`Simulated` is the paper's user;
    /// `Noisy` routes between it and a cheap confusion-matrix oracle).
    pub oracles: Vec<OracleKind>,
    /// Streaming scenarios to sweep (`None` is the paper's static pool).
    pub drifts: Vec<DriftSpec>,
}

impl SweepGrid {
    /// The ROADMAP study's default grid: {US, QBC, ADP} × {Triplet,
    /// DawidSkene} × k ∈ {1, 4, 16} on one dataset.
    pub fn default_study(dataset: DatasetId) -> Self {
        SweepGrid {
            datasets: vec![dataset],
            scale: Scale::Tiny,
            data_seed: 7,
            samplers: vec![
                SamplerChoice::Uncertainty,
                SamplerChoice::Qbc,
                SamplerChoice::Adp,
            ],
            label_models: vec![LabelModelKind::Triplet, LabelModelKind::DawidSkene],
            ks: vec![1, 4, 16],
            budget: 48,
            seeds: vec![1],
            oracles: vec![OracleKind::Simulated],
            drifts: vec![DriftSpec::None],
        }
    }

    /// Number of specs [`SweepGrid::expand`] produces.
    pub fn len(&self) -> usize {
        self.datasets.len()
            * self.samplers.len()
            * self.label_models.len()
            * self.ks.len()
            * self.oracles.len()
            * self.drifts.len()
            * self.seeds.len()
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cartesian product into concrete specs, outermost axis
    /// first: dataset → sampler → label model → k → oracle → drift →
    /// seed. The order is part of the artefact contract (rows land in
    /// this order); single-entry oracle/drift axes — the defaults —
    /// reproduce the pre-routing expansion exactly.
    pub fn expand(&self) -> Vec<ScenarioSpec> {
        let mut specs = Vec::with_capacity(self.len());
        for &dataset in &self.datasets {
            for &sampler in &self.samplers {
                for &label_model in &self.label_models {
                    for &k in &self.ks {
                        for &oracle in &self.oracles {
                            for &drift in &self.drifts {
                                for &seed in &self.seeds {
                                    let mut spec = ScenarioSpec::new(DatasetSpec {
                                        id: dataset,
                                        scale: self.scale,
                                        seed: self.data_seed,
                                    });
                                    spec.session.seed = seed;
                                    spec.session.sampler = sampler;
                                    spec.session.label_model = label_model;
                                    spec.session.oracle = oracle;
                                    spec.schedule = if k == 1 {
                                        BudgetSchedule::FixedStep
                                    } else {
                                        BudgetSchedule::FixedBatch { k }
                                    };
                                    spec.budget = self.budget;
                                    spec.drift = drift;
                                    specs.push(spec);
                                }
                            }
                        }
                    }
                }
            }
        }
        specs
    }

    /// [`SweepGrid::expand`] with stable cell ids attached: a cell's id is
    /// its position in expand order, so the same grid always names the
    /// same cell the same way — the identity parallel workers merge
    /// their rows by.
    pub fn cells(&self) -> Vec<SweepCell> {
        self.expand()
            .into_iter()
            .enumerate()
            .map(|(id, spec)| SweepCell {
                id: id as u64,
                spec,
            })
            .collect()
    }
}

/// One grid cell: a stable id (the cell's position in
/// [`SweepGrid::expand`] order) plus the spec it runs.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Position in expand order — stable across runs of the same grid.
    pub id: u64,
    /// The cell's scenario.
    pub spec: ScenarioSpec,
}

/// One finished run of the sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The cell that produced the row (its [`SweepGrid::expand`] index;
    /// 0 for standalone [`run_spec_over`] runs).
    pub cell: u64,
    /// The spec that produced the row.
    pub spec: ScenarioSpec,
    /// Loop iterations actually consumed (≤ budget when the pool ran dry).
    pub iterations: usize,
    /// Refit batches actually started.
    pub refits: usize,
    /// Final downstream test accuracy.
    pub test_accuracy: f64,
    /// Training + evaluation wall-clock, milliseconds (dataset generation
    /// excluded — the artefact measures the loop, not the generator).
    pub wall_ms: f64,
    /// Fraction of oracle queries the cheap noisy oracle answered
    /// (escalations excluded); 0 for simulated-user runs.
    pub cheap_fraction: f64,
    /// Total routed cost under the spec's latency model (cheap +
    /// expensive spend); 0 for simulated-user runs.
    pub routed_cost: f64,
    /// Post-drift accuracy recovery: final test accuracy minus the
    /// accuracy evaluated at the drift boundary (negative when the run
    /// never recovers); 0 for drift-free runs.
    pub recovery: f64,
}

impl SweepRow {
    /// Accuracy bought per refit — the sweep's headline trade-off column.
    pub fn accuracy_per_refit(&self) -> f64 {
        self.test_accuracy / self.refits.max(1) as f64
    }
}

/// A cell the sweep could not run: a degenerate spec, or a dataset that
/// failed to generate. Failures are collected, not propagated — one bad
/// cell must not abort a 2,880-cell sweep.
#[derive(Debug)]
pub struct CellFailure {
    /// The cell's stable id (expand-order index).
    pub cell: u64,
    /// The spec that failed.
    pub spec: ScenarioSpec,
    /// The typed engine error.
    pub error: ActiveDpError,
}

/// Everything a grid run produced: the successful rows (in expand order)
/// plus every per-cell failure (also in expand order).
#[derive(Debug, Default)]
pub struct SweepOutcome {
    /// Rows of the cells that ran, ordered by cell id.
    pub rows: Vec<SweepRow>,
    /// Cells that failed, ordered by cell id.
    pub failures: Vec<CellFailure>,
}

impl SweepOutcome {
    /// `true` when every cell produced a row.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Zeroes every row's wall-clock column — the `--zero-wall` mode that
    /// makes the rendered artefact byte-comparable across runs, worker
    /// counts and failure interleavings (wall time is the one
    /// non-deterministic column).
    pub fn zero_wall(&mut self) {
        for row in &mut self.rows {
            row.wall_ms = 0.0;
        }
    }
}

/// Runs one spec over an already-generated split (provenance must match;
/// see `Engine::from_spec_over`).
pub fn run_spec_over(spec: ScenarioSpec, data: SharedDataset) -> Result<SweepRow, ActiveDpError> {
    let mut engine = Engine::from_spec_over(spec.clone(), data)?;
    let start = std::time::Instant::now();
    let cell = engine.run_cell()?;
    Ok(SweepRow {
        cell: 0,
        spec,
        iterations: cell.iterations,
        refits: cell.refits,
        test_accuracy: cell.test_accuracy,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        cheap_fraction: cell.cheap_fraction,
        routed_cost: cell.routed_cost,
        recovery: cell.recovery,
    })
}

/// Expands and runs a whole grid serially, generating each distinct
/// dataset spec once and sharing the split across every run that names
/// it. Rows come back in [`SweepGrid::expand`] order; failing cells land
/// in [`SweepOutcome::failures`] instead of aborting the sweep.
pub fn run_grid(grid: &SweepGrid) -> SweepOutcome {
    run_grid_jobs(grid, 1)
}

/// Fetches (or generates exactly once) the split a spec names. The lock
/// is held across generation on purpose: two cells racing for the same
/// dataset must not both pay the generator — the loser blocks and reuses
/// the winner's split, exactly like the serving hub's dataset cache.
fn cached_dataset(
    cache: &Mutex<HashMap<(DatasetId, u64, u64), SharedDataset>>,
    spec: &ScenarioSpec,
) -> Result<SharedDataset, ActiveDpError> {
    let mut cache = cache.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(data) = cache.get(&spec.dataset.cache_key()) {
        return Ok(data.clone());
    }
    let data = spec
        .dataset
        .generate()
        .map_err(|e| ActiveDpError::BadConfig {
            reason: format!("dataset spec failed to generate: {e}"),
        })?
        .into_shared();
    cache.insert(spec.dataset.cache_key(), data.clone());
    Ok(data)
}

/// [`run_grid`] over `jobs` worker threads. Workers pull the next
/// unclaimed cell from a shared counter (work-stealing: a slow cell never
/// stalls the rest of the grid), runs are independent and deterministic
/// in the spec, and results are reassembled by cell id afterwards — so
/// the outcome is bitwise identical (wall-clock aside) for every `jobs`
/// value, pinned by this module's tests.
pub fn run_grid_jobs(grid: &SweepGrid, jobs: usize) -> SweepOutcome {
    run_grid_jobs_streaming(grid, jobs, |_, _, _| {})
}

/// [`run_grid_jobs`] with a partial-result hook: `on_row(done, total,
/// row)` fires for every successful cell **in completion order** — which
/// worker count and cell latency interleave freely — while the returned
/// outcome still merges rows in expand order, so anything derived from it
/// (the CSV artefact included) is byte-identical to the hook-free run.
/// The hook runs under the results lock; keep it cheap (a progress line).
pub fn run_grid_jobs_streaming(
    grid: &SweepGrid,
    jobs: usize,
    on_row: impl Fn(usize, usize, &SweepRow) + Sync,
) -> SweepOutcome {
    let cells = grid.cells();
    let total = cells.len();
    let cache: Mutex<HashMap<(DatasetId, u64, u64), SharedDataset>> = Mutex::new(HashMap::new());
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(u64, Result<SweepRow, ActiveDpError>)>> =
        Mutex::new(Vec::with_capacity(cells.len()));
    let workers = jobs.max(1).min(cells.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let result = cached_dataset(&cache, &cell.spec).and_then(|data| {
                    run_spec_over(cell.spec.clone(), data).map(|mut row| {
                        row.cell = cell.id;
                        row
                    })
                });
                let mut results = results.lock().unwrap_or_else(|e| e.into_inner());
                results.push((cell.id, result));
                let done = results.len();
                if let Some((_, Ok(row))) = results.last() {
                    on_row(done, total, row);
                }
            });
        }
    });
    let mut results = results.into_inner().unwrap_or_else(|e| e.into_inner());
    results.sort_by_key(|(id, _)| *id);
    let mut outcome = SweepOutcome::default();
    for ((id, result), cell) in results.into_iter().zip(cells) {
        debug_assert_eq!(id, cell.id);
        match result {
            Ok(row) => outcome.rows.push(row),
            Err(error) => outcome.failures.push(CellFailure {
                cell: cell.id,
                spec: cell.spec,
                error,
            }),
        }
    }
    outcome
}

/// Renders sweep rows as the budget/latency artefact table, averaging the
/// seed axis per (dataset, sampler, label model, schedule) combination.
pub fn grid_table(rows: &[SweepRow]) -> crate::tables::TableWriter {
    let mut table = crate::tables::TableWriter::new(&[
        "Dataset",
        "Sampler",
        "LabelModel",
        "Schedule",
        "Oracle",
        "Drift",
        "Budget",
        "Seeds",
        "Iterations",
        "Refits",
        "Accuracy",
        "AccPerRefit",
        "CheapFrac",
        "RoutedCost",
        "Recovery",
        "WallMs",
    ]);
    // Group rows by combination, preserving first-appearance order (rows
    // arrive in expand order, so seeds of one combination are adjacent).
    let mut groups: Vec<(String, Vec<&SweepRow>)> = Vec::new();
    for row in rows {
        let key = format!(
            "{}|{}|{}|{}|{}|{}",
            row.spec.dataset.id,
            row.spec.session.sampler,
            row.spec.session.label_model,
            row.spec.schedule.label(),
            row.spec.session.oracle,
            row.spec.drift,
        );
        match groups.last_mut() {
            Some((last, members)) if *last == key => members.push(row),
            _ => groups.push((key, vec![row])),
        }
    }
    for (_, members) in &groups {
        let n = members.len() as f64;
        let mean = |f: &dyn Fn(&SweepRow) -> f64| members.iter().map(|r| f(r)).sum::<f64>() / n;
        let first = members[0];
        table.add_row(vec![
            first.spec.dataset.id.to_string(),
            first.spec.session.sampler.to_string(),
            first.spec.session.label_model.to_string(),
            first.spec.schedule.label(),
            first.spec.session.oracle.to_string(),
            first.spec.drift.to_string(),
            first.spec.budget.to_string(),
            members.len().to_string(),
            format!("{:.1}", mean(&|r| r.iterations as f64)),
            format!("{:.1}", mean(&|r| r.refits as f64)),
            format!("{:.4}", mean(&|r| r.test_accuracy)),
            format!("{:.4}", mean(&|r| r.accuracy_per_refit())),
            format!("{:.4}", mean(&|r| r.cheap_fraction)),
            format!("{:.2}", mean(&|r| r.routed_cost)),
            format!("{:+.4}", mean(&|r| r.recovery)),
            format!("{:.1}", mean(&|r| r.wall_ms)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> SweepGrid {
        SweepGrid {
            datasets: vec![DatasetId::Youtube],
            scale: Scale::Tiny,
            data_seed: 7,
            samplers: vec![SamplerChoice::Uncertainty, SamplerChoice::Adp],
            label_models: vec![LabelModelKind::Triplet],
            ks: vec![1, 4],
            budget: 6,
            seeds: vec![1],
            oracles: vec![OracleKind::Simulated],
            drifts: vec![DriftSpec::None],
        }
    }

    #[test]
    fn expand_is_the_cartesian_product_in_fixed_order() {
        let grid = tiny_grid();
        let specs = grid.expand();
        assert_eq!(specs.len(), grid.len());
        assert_eq!(specs.len(), 4);
        // sampler is the outer axis, k the inner.
        assert_eq!(specs[0].session.sampler, SamplerChoice::Uncertainty);
        assert_eq!(specs[0].schedule, BudgetSchedule::FixedStep);
        assert_eq!(specs[1].schedule, BudgetSchedule::FixedBatch { k: 4 });
        assert_eq!(specs[2].session.sampler, SamplerChoice::Adp);
        // Every spec validates and carries the grid's budget.
        for spec in &specs {
            spec.validate().unwrap();
            assert_eq!(spec.budget, 6);
        }
    }

    #[test]
    fn empty_axes_expand_to_nothing() {
        let mut grid = tiny_grid();
        grid.ks.clear();
        assert!(grid.is_empty());
        assert!(grid.expand().is_empty());
    }

    #[test]
    fn run_grid_emits_one_row_per_spec_and_rows_parse() {
        let grid = tiny_grid();
        let out = run_grid(&grid);
        assert!(out.is_clean());
        let rows = out.rows;
        assert_eq!(rows.len(), 4);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.cell, i as u64);
        }
        for row in &rows {
            assert_eq!(row.iterations, 6);
            let expected_refits = row.spec.schedule.n_batches(6);
            assert_eq!(row.refits, expected_refits);
            assert!((0.0..=1.0).contains(&row.test_accuracy));
            assert!(row.accuracy_per_refit() <= row.test_accuracy + 1e-12);
            assert!(row.wall_ms >= 0.0);
        }
        // Batching cuts refits: k=4 rows refit less than k=1 rows.
        assert!(rows[1].refits < rows[0].refits);

        // The artefact table carries one parsed row per combination.
        let table = grid_table(&rows);
        let csv = table.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 4, "{csv}");
        for line in &lines[1..] {
            // Default rows ("simulated"/"none") contain no quoted cells,
            // so a naive split is still exact here.
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), 16, "{line}");
            assert_eq!(cells[4], "simulated", "{line}");
            assert_eq!(cells[5], "none", "{line}");
            for numeric in [10, 11, 12, 13, 14, 15] {
                assert!(cells[numeric].parse::<f64>().is_ok(), "{line}");
            }
            // Simulated cells route nothing and measure no recovery.
            assert_eq!(cells[12].parse::<f64>().unwrap(), 0.0, "{line}");
            assert_eq!(cells[13].parse::<f64>().unwrap(), 0.0, "{line}");
            assert_eq!(cells[14].parse::<f64>().unwrap(), 0.0, "{line}");
        }
    }

    #[test]
    fn runs_are_deterministic_in_the_spec() {
        let spec = tiny_grid().expand().swap_remove(1);
        // Each run generates its own split, as separate processes would.
        let run = || run_spec_over(spec.clone(), spec.dataset.generate().unwrap().into_shared());
        let a = run().unwrap();
        let b = run().unwrap();
        assert_eq!(a.test_accuracy.to_bits(), b.test_accuracy.to_bits());
        assert_eq!(a.refits, b.refits);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn seed_axis_averages_into_one_table_row() {
        let mut grid = tiny_grid();
        grid.samplers = vec![SamplerChoice::Uncertainty];
        grid.ks = vec![4];
        grid.seeds = vec![1, 2];
        let out = run_grid(&grid);
        assert!(out.is_clean());
        let rows = out.rows;
        assert_eq!(rows.len(), 2);
        let table = grid_table(&rows);
        let csv = table.to_csv();
        assert_eq!(csv.lines().count(), 2, "{csv}");
        assert!(csv.lines().nth(1).unwrap().contains(",2,"), "{csv}");
    }

    #[test]
    fn parallel_grid_is_bitwise_identical_to_serial() {
        let grid = tiny_grid();
        let mut serial = run_grid_jobs(&grid, 1);
        let mut parallel = run_grid_jobs(&grid, 4);
        assert!(serial.is_clean() && parallel.is_clean());
        assert_eq!(serial.rows.len(), parallel.rows.len());
        for (a, b) in serial.rows.iter().zip(&parallel.rows) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.refits, b.refits);
            assert_eq!(a.test_accuracy.to_bits(), b.test_accuracy.to_bits());
        }
        // With wall-clock zeroed the rendered artefacts byte-compare.
        serial.zero_wall();
        parallel.zero_wall();
        assert_eq!(
            grid_table(&serial.rows).to_csv(),
            grid_table(&parallel.rows).to_csv()
        );
        // More workers than cells degrades gracefully too.
        let crowd = run_grid_jobs(&grid, 64);
        assert_eq!(crowd.rows.len(), serial.rows.len());
    }

    #[test]
    fn a_degenerate_cell_fails_alone_without_aborting_the_sweep() {
        let mut grid = tiny_grid();
        grid.ks = vec![1, 0]; // k = 0 fails BudgetSchedule validation.
        let out = run_grid(&grid);
        assert!(!out.is_clean());
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.failures.len(), 2);
        // Failures keep their cell identity and a typed error.
        for failure in &out.failures {
            assert_eq!(failure.spec.schedule, BudgetSchedule::FixedBatch { k: 0 });
            assert!(
                matches!(failure.error, ActiveDpError::BadConfig { .. }),
                "{:?}",
                failure.error
            );
        }
        assert_eq!(out.failures[0].cell, 1);
        assert_eq!(out.failures[1].cell, 3);
        // The healthy cells still ran to completion.
        for row in &out.rows {
            assert_eq!(row.iterations, 6);
        }
    }

    /// A routed, drifted grid for the oracle/drift axis tests: one cell
    /// per (oracle, drift) pair on tiny Youtube.
    fn routed_grid() -> SweepGrid {
        let mut grid = tiny_grid();
        grid.samplers = vec![SamplerChoice::Uncertainty];
        grid.ks = vec![1];
        grid.budget = 8;
        grid.oracles = vec![OracleKind::Simulated, OracleKind::noisy()];
        grid.drifts = vec![DriftSpec::None, DriftSpec::LabelShift { at: 4, prior: 0.8 }];
        grid
    }

    #[test]
    fn oracle_and_drift_axes_multiply_the_grid() {
        let grid = routed_grid();
        let specs = grid.expand();
        assert_eq!(specs.len(), 4);
        assert_eq!(specs.len(), grid.len());
        // drift is the inner axis of the pair.
        assert_eq!(specs[0].session.oracle, OracleKind::Simulated);
        assert_eq!(specs[0].drift, DriftSpec::None);
        assert_eq!(specs[1].drift, DriftSpec::LabelShift { at: 4, prior: 0.8 });
        assert_eq!(specs[2].session.oracle, OracleKind::noisy());
        for spec in &specs {
            spec.validate().unwrap();
        }
    }

    #[test]
    fn routed_drifted_cells_fill_the_new_columns() {
        let out = run_grid(&routed_grid());
        assert!(out.is_clean());
        let rows = out.rows;
        assert_eq!(rows.len(), 4);
        // Simulated cells: no routing, no cost.
        assert_eq!(rows[0].cheap_fraction, 0.0);
        assert_eq!(rows[0].routed_cost, 0.0);
        assert_eq!(rows[0].recovery, 0.0);
        // Noisy cells route every query somewhere and pay for it.
        for row in &rows[2..] {
            assert!(row.cheap_fraction > 0.0, "{row:?}");
            assert!(row.cheap_fraction <= 1.0, "{row:?}");
            assert!(row.routed_cost > 0.0, "{row:?}");
        }
        // Drift-free cells report zero recovery; drifted cells report
        // final minus boundary accuracy, which is finite either way.
        assert_eq!(rows[2].recovery, 0.0);
        assert!(rows[1].recovery.is_finite());
        assert!(rows[3].recovery.is_finite());

        // The drifted rows render with their comma-bearing drift label
        // quoted, keeping the CSV parseable.
        let csv = grid_table(&rows).to_csv();
        assert!(csv.contains("\"label-shift:4,0.8\""), "{csv}");

        // And routed runs stay deterministic: a rerun is bitwise equal.
        let again = run_grid(&routed_grid());
        for (a, b) in rows.iter().zip(&again.rows) {
            assert_eq!(a.test_accuracy.to_bits(), b.test_accuracy.to_bits());
            assert_eq!(a.cheap_fraction.to_bits(), b.cheap_fraction.to_bits());
            assert_eq!(a.routed_cost.to_bits(), b.routed_cost.to_bits());
            assert_eq!(a.recovery.to_bits(), b.recovery.to_bits());
        }
    }

    #[test]
    fn recovery_pause_does_not_perturb_the_trajectory() {
        // A drifted cell's paused-and-evaluated run must equal the same
        // spec run straight through (evaluation is read-only).
        let spec = routed_grid().expand().swap_remove(3);
        assert_ne!(spec.drift, DriftSpec::None);
        let data = spec.dataset.generate().unwrap().into_shared();
        let row = run_spec_over(spec.clone(), data).unwrap();
        let mut engine = Engine::from_spec(spec).unwrap();
        engine.run_schedule().unwrap();
        let unpaused = engine.evaluate_downstream().unwrap().test_accuracy;
        assert_eq!(row.test_accuracy.to_bits(), unpaused.to_bits());
    }

    #[test]
    fn streaming_rows_arrive_per_cell_and_leave_the_outcome_unchanged() {
        use std::sync::Mutex;
        let grid = tiny_grid();
        let seen: Mutex<Vec<(usize, usize, u64)>> = Mutex::new(Vec::new());
        let streamed = run_grid_jobs_streaming(&grid, 2, |done, total, row| {
            seen.lock().unwrap().push((done, total, row.cell));
        });
        assert!(streamed.is_clean());
        let seen = seen.into_inner().unwrap();
        // Every cell reported exactly once, with a monotone done count.
        assert_eq!(seen.len(), 4);
        let mut cells: Vec<u64> = seen.iter().map(|&(_, _, c)| c).collect();
        cells.sort_unstable();
        assert_eq!(cells, vec![0, 1, 2, 3]);
        for (i, &(done, total, _)) in seen.iter().enumerate() {
            assert_eq!(done, i + 1);
            assert_eq!(total, 4);
        }
        // The merged outcome is the hook-free one.
        let plain = run_grid_jobs(&grid, 2);
        assert_eq!(streamed.rows.len(), plain.rows.len());
        for (a, b) in streamed.rows.iter().zip(&plain.rows) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.test_accuracy.to_bits(), b.test_accuracy.to_bits());
        }
    }
}
