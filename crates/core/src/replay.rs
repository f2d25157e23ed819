//! Point-in-time recovery: fold journalled [`StepEvent`]s onto a
//! checkpoint snapshot.
//!
//! A [`SessionSnapshot`] at iteration `j` plus the events `j+1 ..= k`
//! determines the snapshot an uninterrupted run would hold at `k`:
//! every event says which instance was queried, which LF (if any) came
//! back, and where both RNG streams landed. [`replay_snapshot`] performs
//! that fold as plain data; [`Engine::replay_to`](crate::Engine::replay_to)
//! wraps it, resumes the result and runs one RNG-free refit, which
//! rebuilds the model caches (LabelPick selection, probability tables)
//! exactly as the original run's refit at `k` did — which is why the fold
//! can leave those caches stale and still hit bitwise parity. A folded
//! snapshot is therefore not a resumable one on its own: resume trusts
//! the caches it restores.
//!
//! The fold is also where a corrupt or mis-assembled journal is caught:
//! gaps, duplicates and out-of-order iterations, targets that are not
//! commit points, and events that contradict the folded state (a query
//! outside the pool, an instance queried twice) are all typed
//! [`ActiveDpError::Replay`] errors rather than a silently wrong session.

use crate::error::ActiveDpError;
use crate::event::StepEvent;
use crate::snapshot::SessionSnapshot;
use adp_data::{DriftSpec, SplitDataset};
use adp_lf::LabelMatrix;
use adp_oracle::{LatencyModel, OracleKind, RouteChoice};

fn replay_err(reason: String) -> ActiveDpError {
    ActiveDpError::Replay { reason }
}

/// Validates that `events` carry strictly consecutive iteration numbers.
/// Exposed to the WAL crate's recovery path through
/// [`replay_snapshot`]'s own use of it; duplicates and reorderings are
/// distinguished in the error text because they point at different bugs
/// (double-append vs. segment mis-assembly).
fn validate_contiguous(events: &[StepEvent]) -> Result<(), ActiveDpError> {
    for pair in events.windows(2) {
        let (prev, next) = (pair[0].iteration, pair[1].iteration);
        if next == prev {
            return Err(replay_err(format!("duplicate event for iteration {next}")));
        }
        if next < prev {
            return Err(replay_err(format!(
                "out-of-order event: iteration {next} after {prev}"
            )));
        }
        if next != prev + 1 {
            return Err(replay_err(format!(
                "gap in event stream: iteration {next} after {prev}"
            )));
        }
    }
    Ok(())
}

/// Folds `events` onto `checkpoint`, producing the snapshot of the same
/// session at commit point `k` (see the [module docs](self)).
///
/// `events` may start at or before the checkpoint (covered events are
/// skipped) and extend past `k` (later events are ignored), but must be
/// contiguous and must cover `checkpoint+1 ..= k` exactly; the event at
/// `k` must have [`StepEvent::commit`] set. `k` equal to the checkpoint's
/// iteration returns the checkpoint itself. The result's selection and
/// probability caches are still the checkpoint's; resume it through
/// [`Engine::replay_to`](crate::Engine::replay_to), which refits them.
pub fn replay_snapshot(
    checkpoint: &SessionSnapshot,
    data: &SplitDataset,
    events: &[StepEvent],
    k: usize,
) -> Result<SessionSnapshot, ActiveDpError> {
    let j = checkpoint.state.iteration;
    if k < j {
        return Err(replay_err(format!(
            "target iteration {k} precedes the checkpoint at {j}"
        )));
    }
    validate_contiguous(events)?;
    let mut snapshot = checkpoint.clone();
    if k == j {
        return Ok(snapshot);
    }
    let tail: Vec<&StepEvent> = events
        .iter()
        .filter(|e| e.iteration > j && e.iteration <= k)
        .collect();
    match tail.first() {
        None => {
            return Err(replay_err(format!(
                "no events cover iterations {} ..= {k}",
                j + 1
            )))
        }
        Some(first) if first.iteration != j + 1 => {
            return Err(replay_err(format!(
                "events start at iteration {}, checkpoint needs {}",
                first.iteration,
                j + 1
            )))
        }
        Some(_) => {}
    }
    let last = tail.last().expect("tail is non-empty");
    if last.iteration != k {
        return Err(replay_err(format!(
            "events end at iteration {}, target is {k}",
            last.iteration
        )));
    }
    if !last.commit {
        return Err(replay_err(format!(
            "iteration {k} is not a commit point (mid-batch state is not resumable)"
        )));
    }
    // Routed sessions bill each event's oracle choice against the spec's
    // latency model, exactly as the live router did.
    let latency = match snapshot.spec.session.oracle {
        OracleKind::Noisy { latency, .. } => Some(latency),
        OracleKind::Simulated => None,
    };
    // Drifting sessions re-derive the mutated pool: it is a pure function
    // of the base split, so the fold applies it at the same boundary the
    // live run did. A checkpoint already past the boundary starts drifted
    // (its state was rebuilt at crossing time, so no rebuild here).
    let drift = snapshot.spec.drift;
    let boundary = drift.boundary();
    let mut drifted: Option<SplitDataset> = None;
    if boundary.is_some_and(|at| j > at) {
        drifted = drift.apply(data);
    }
    for event in tail {
        if let Some(at) = boundary {
            if drifted.is_none() && event.iteration > at {
                let mutated = drift
                    .apply(data)
                    .expect("a drift with a boundary always mutates the pool");
                if matches!(drift, DriftSpec::CovariateDrift { .. }) {
                    // Feature drift changes every LF's votes — rebuild the
                    // vote matrices at the crossing, as the engine did.
                    let state = &mut snapshot.state;
                    let mut train_matrix = LabelMatrix::empty(mutated.train.len());
                    let mut valid_matrix = LabelMatrix::empty(mutated.valid.len());
                    for lf in &state.lfs {
                        train_matrix.push_lf(lf, &mutated.train)?;
                        valid_matrix.push_lf(lf, &mutated.valid)?;
                    }
                    state.train_matrix = train_matrix;
                    state.valid_matrix = valid_matrix;
                }
                drifted = Some(mutated);
            }
        }
        let active: &SplitDataset = drifted.as_ref().unwrap_or(data);
        apply_event(&mut snapshot, active, event, latency)?;
    }
    // Returned-LF sets are canonical (sorted) in snapshots; the fold
    // appends keys in arrival order, so restore the invariant here.
    snapshot.oracle.returned.sort_unstable();
    if let Some(routed) = snapshot.routed.as_mut() {
        routed.cheap.returned.sort_unstable();
    }
    Ok(snapshot)
}

/// Folds one event into the snapshot — the data-only mirror of what
/// `SamplingStage::select` + `QueryingStage::query` did live.
fn apply_event(
    snapshot: &mut SessionSnapshot,
    data: &SplitDataset,
    event: &StepEvent,
    latency: Option<LatencyModel>,
) -> Result<(), ActiveDpError> {
    if let Some(route) = &event.route {
        let Some(latency) = latency else {
            return Err(replay_err(format!(
                "iteration {}: a routed event in a simulated-oracle session",
                event.iteration
            )));
        };
        let Some(routed) = snapshot.routed.as_mut() else {
            return Err(replay_err(format!(
                "iteration {}: a routed event, but the checkpoint carries no routed state",
                event.iteration
            )));
        };
        routed.cheap.rng = route.cheap_rng;
        // Mirror the router's billing: an escalation consults (and bills)
        // both oracles.
        match route.choice {
            RouteChoice::Cheap => {
                routed.stats.cheap_queries += 1;
                routed.stats.cheap_cost += latency.cheap_cost;
            }
            RouteChoice::Expensive => {
                routed.stats.expensive_queries += 1;
                routed.stats.expensive_cost += latency.expensive_cost;
            }
            RouteChoice::Escalated => {
                routed.stats.cheap_queries += 1;
                routed.stats.cheap_cost += latency.cheap_cost;
                routed.stats.escalations += 1;
                routed.stats.expensive_queries += 1;
                routed.stats.expensive_cost += latency.expensive_cost;
            }
        }
    }
    let mut answered = None;
    let state = &mut snapshot.state;
    state.iteration = event.iteration;
    match event.query {
        None => {
            if event.lf.is_some() {
                return Err(replay_err(format!(
                    "iteration {}: an LF without a query",
                    event.iteration
                )));
            }
        }
        Some(q) => {
            if q >= state.queried.len() {
                return Err(replay_err(format!(
                    "iteration {}: query {q} outside the {}-instance pool",
                    event.iteration,
                    state.queried.len()
                )));
            }
            if state.queried[q] {
                return Err(replay_err(format!(
                    "iteration {}: instance {q} was already queried",
                    event.iteration
                )));
            }
            state.queried[q] = true;
            if let Some(lf) = &event.lf {
                state.seen_keys.insert(lf.key());
                state.train_matrix.push_lf(lf, &data.train)?;
                state.valid_matrix.push_lf(lf, &data.valid)?;
                state.lfs.push(lf.clone());
                let vote = lf.apply(&data.train, q);
                if vote < 0 {
                    return Err(replay_err(format!(
                        "iteration {}: journalled LF abstains on its own query {q}",
                        event.iteration
                    )));
                }
                state.query_indices.push(q);
                state.pseudo_labels.push(vote as usize);
                answered = Some(lf.key());
            }
        }
    }
    if let Some(key) = answered {
        // The router syncs each answer into *both* returned sets (see
        // `OracleRouter`), so the fold does too.
        snapshot.oracle.returned.push(key);
        if let Some(routed) = snapshot.routed.as_mut() {
            routed.cheap.returned.push(key);
        }
    }
    snapshot.sampler_rng = event.sampler_rng;
    snapshot.oracle.rng = event.oracle_rng;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, StepObserver, StepOutcome};
    use crate::scenario::ScenarioSpec;
    use adp_data::{DatasetId, DatasetSpec, Scale};
    use std::sync::mpsc;

    struct Tap(mpsc::Sender<StepEvent>);

    impl StepObserver for Tap {
        fn on_step(&mut self, _outcome: &StepOutcome) {}
        fn wants_events(&self) -> bool {
            true
        }
        fn on_event(&mut self, event: &StepEvent) {
            self.0.send(event.clone()).unwrap();
        }
    }

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(DatasetSpec {
            id: DatasetId::Youtube,
            scale: Scale::Tiny,
            seed: 7,
        })
    }

    /// Runs `total` steps, returning the iteration-0 checkpoint, every
    /// event, and per-iteration golden snapshots.
    fn journalled_run(total: usize) -> (SessionSnapshot, Vec<StepEvent>, Vec<SessionSnapshot>) {
        let mut engine = Engine::from_spec(spec()).unwrap();
        let (tx, rx) = mpsc::channel();
        engine.add_observer(Tap(tx));
        let checkpoint = engine.snapshot().unwrap();
        let mut goldens = Vec::new();
        for _ in 0..total {
            engine.step().unwrap();
            goldens.push(engine.snapshot().unwrap());
        }
        (checkpoint, rx.try_iter().collect(), goldens)
    }

    #[test]
    fn folding_events_reproduces_every_golden_snapshot_bitwise() {
        let total = 8;
        let (checkpoint, events, goldens) = journalled_run(total);
        assert_eq!(events.len(), total);
        let data = checkpoint.spec.dataset.generate().unwrap();
        for k in 1..=total {
            let folded = replay_snapshot(&checkpoint, &data, &events, k).unwrap();
            let golden = &goldens[k - 1];
            // The fold leaves model caches stale; resume's refit rebuilds
            // them. Compare the resume-relevant fields bitwise instead.
            assert_eq!(folded.state.lfs, golden.state.lfs);
            assert_eq!(folded.state.queried, golden.state.queried);
            assert_eq!(folded.state.query_indices, golden.state.query_indices);
            assert_eq!(folded.state.pseudo_labels, golden.state.pseudo_labels);
            assert_eq!(folded.state.iteration, golden.state.iteration);
            assert_eq!(folded.sampler_rng, golden.sampler_rng);
            assert_eq!(folded.oracle, golden.oracle);
        }
    }

    #[test]
    fn replay_to_checkpoint_itself_is_the_checkpoint() {
        let (checkpoint, events, _) = journalled_run(3);
        let data = checkpoint.spec.dataset.generate().unwrap();
        let folded = replay_snapshot(&checkpoint, &data, &events, 0).unwrap();
        assert_eq!(folded.to_bytes(), checkpoint.to_bytes());
    }

    #[test]
    fn bad_event_streams_are_typed_replay_errors() {
        let (checkpoint, events, _) = journalled_run(4);
        let data = checkpoint.spec.dataset.generate().unwrap();
        let reason = |r: Result<SessionSnapshot, ActiveDpError>| match r {
            Err(ActiveDpError::Replay { reason }) => reason,
            other => panic!("expected a replay error, got {other:?}"),
        };

        // Duplicate iteration.
        let mut dup = events.clone();
        dup.insert(2, events[1].clone());
        assert!(reason(replay_snapshot(&checkpoint, &data, &dup, 4)).contains("duplicate"));

        // Out-of-order iterations (the decreasing pair comes first, so it
        // is reported as a reordering, not as the gap it also implies).
        let mut swapped = events.clone();
        swapped.swap(0, 1);
        assert!(reason(replay_snapshot(&checkpoint, &data, &swapped, 4)).contains("out-of-order"));

        // A gap mid-stream.
        let mut gapped = events.clone();
        gapped.remove(1);
        assert!(reason(replay_snapshot(&checkpoint, &data, &gapped, 4)).contains("gap"));

        // Coverage starts too late for the checkpoint.
        assert!(reason(replay_snapshot(&checkpoint, &data, &events[1..], 4)).contains("start at"));

        // Coverage stops short of the target.
        assert!(reason(replay_snapshot(&checkpoint, &data, &events[..2], 4)).contains("end at"));

        // Target behind the checkpoint / no events at all.
        let mid = replay_snapshot(&checkpoint, &data, &events, 2).unwrap();
        assert!(reason(replay_snapshot(&mid, &data, &[], 1)).contains("precedes"));
        assert!(reason(replay_snapshot(&checkpoint, &data, &[], 3)).contains("no events"));

        // Target that is not a commit point.
        let mut open = events.clone();
        open[2].commit = false;
        assert!(reason(replay_snapshot(&checkpoint, &data, &open, 3)).contains("commit point"));

        // An event contradicting the folded state: re-queried instance.
        let mut requeried = events.clone();
        requeried[1].query = events[0].query;
        requeried[1].lf = None;
        assert!(
            reason(replay_snapshot(&checkpoint, &data, &requeried, 4)).contains("already queried")
        );

        // Query index outside the pool.
        let mut oob = events.clone();
        oob[1].query = Some(data.train.len());
        oob[1].lf = None;
        assert!(reason(replay_snapshot(&checkpoint, &data, &oob, 4)).contains("outside"));

        // An LF with no query.
        let with_lf = events
            .iter()
            .position(|e| e.lf.is_some())
            .expect("some iteration produced an LF");
        let mut headless = events.clone();
        headless[with_lf].query = None;
        assert!(
            reason(replay_snapshot(&checkpoint, &data, &headless, 4)).contains("without a query")
        );
    }
}
