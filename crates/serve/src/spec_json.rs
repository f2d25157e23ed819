//! JSON form of a [`ScenarioSpec`] — the serving protocol's `create_spec`
//! payload and the human-writable twin of the `adp-wire` byte encoding.
//!
//! Reading is *defaulting* but *strict*: the dataset (`id`, `scale`,
//! `seed`) is required, everything else falls back to
//! [`ScenarioSpec::new`]'s paper defaults for the dataset's modality, a
//! key the schema does not name is an error that lists the valid keys (a
//! typo such as `"sampeler"` never silently runs a default session), and
//! so is a repeated key. A minimal spec is just
//!
//! ```json
//! {"dataset": {"id": "Youtube", "scale": "tiny", "seed": 7}}
//! ```
//!
//! and a full one names the session knobs and the budget schedule:
//!
//! ```json
//! {"dataset":  {"id": "Youtube", "scale": "tiny", "seed": 7},
//!  "session":  {"seed": 5, "sampler": "US", "label_model": "DawidSkene",
//!               "alpha": 0.4, "labelpick": true, "confusion": true,
//!               "noise_rate": 0.0, "parallel": false,
//!               "oracle": "noisy:0.85@escalate"},
//!  "schedule": {"kind": "fixed_batch", "k": 16},
//!  "budget":   64,
//!  "drift":    "label-shift:32,0.8"}
//! ```
//!
//! Schedule kinds: `"fixed_step"`, `"fixed_batch"` (`k`), `"doubling"`
//! (`cap`), `"phased"` (`segments: [{"k": …, "batches": …}, …]`). Names
//! parse through the same `FromStr` impls the CLIs use
//! ([`SamplerChoice`]/[`LabelModelKind`]/`DatasetId`/`Scale`/
//! [`OracleKind`]/[`DriftSpec`]), so the valid-option lists in error
//! messages stay in one place (`"oracle"` is `"simulated"` or
//! `"noisy:ACC[>BIAS][@POLICY][!CHEAP/EXPENSIVE]"`; `"drift"` is
//! `"none"`, `"label-shift:AT,PRIOR"`, `"covariate:AT,ROT"` or
//! `"arriving:PER"`).
//!
//! [`SamplerChoice`]: activedp::SamplerChoice
//! [`LabelModelKind`]: adp_labelmodel::LabelModelKind
//! [`OracleKind`]: activedp::OracleKind
//! [`DriftSpec`]: adp_data::DriftSpec

use crate::json::Json;
use activedp::{BudgetSchedule, LabelPickConfig, LogRegConfig, PhaseSegment, ScenarioSpec};
use adp_data::{DatasetId, DatasetSpec, Scale};

fn logreg_to_json(c: &LogRegConfig) -> Json {
    Json::obj([
        ("l2", Json::Num(c.l2)),
        ("max_iters", Json::int(c.max_iters as u64)),
        ("tol", Json::Num(c.tol)),
        ("parallel", Json::Bool(c.parallel)),
    ])
}

fn labelpick_to_json(c: &LabelPickConfig) -> Json {
    Json::obj([
        ("rho", Json::Num(c.rho)),
        ("blanket_tol", Json::Num(c.blanket_tol)),
        ("blanket_rel", Json::Num(c.blanket_rel)),
        ("cap", Json::int(c.cap as u64)),
        ("min_queries", Json::int(c.min_queries as u64)),
        ("parallel", Json::Bool(c.parallel)),
    ])
}

/// Renders a spec as protocol JSON — the exact shape
/// [`scenario_from_json`] reads back (`scenario_from_json(scenario_to_json
/// (s)) == s` for every valid spec).
pub fn scenario_to_json(spec: &ScenarioSpec) -> Json {
    let schedule = match &spec.schedule {
        BudgetSchedule::FixedStep => Json::obj([("kind", Json::Str("fixed_step".into()))]),
        BudgetSchedule::FixedBatch { k } => Json::obj([
            ("kind", Json::Str("fixed_batch".into())),
            ("k", Json::int(*k as u64)),
        ]),
        BudgetSchedule::Doubling { cap } => Json::obj([
            ("kind", Json::Str("doubling".into())),
            ("cap", Json::int(*cap as u64)),
        ]),
        BudgetSchedule::Phased { segments } => Json::obj([
            ("kind", Json::Str("phased".into())),
            (
                "segments",
                Json::Arr(
                    segments
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("k", Json::int(s.k as u64)),
                                ("batches", Json::int(s.batches as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    };
    Json::obj([
        (
            "dataset",
            Json::obj([
                ("id", Json::Str(spec.dataset.id.to_string())),
                ("scale", Json::Str(spec.dataset.scale.to_string())),
                ("seed", Json::int(spec.dataset.seed)),
            ]),
        ),
        (
            "session",
            Json::obj([
                ("seed", Json::int(spec.session.seed)),
                ("sampler", Json::Str(spec.session.sampler.to_string())),
                (
                    "label_model",
                    Json::Str(spec.session.label_model.to_string()),
                ),
                ("alpha", Json::Num(spec.session.alpha)),
                ("acc_threshold", Json::Num(spec.session.acc_threshold)),
                ("oracle", Json::Str(spec.session.oracle.to_string())),
                ("labelpick", Json::Bool(spec.session.use_labelpick)),
                ("confusion", Json::Bool(spec.session.use_confusion)),
                ("noise_rate", Json::Num(spec.session.noise_rate)),
                ("parallel", Json::Bool(spec.session.parallel)),
                (
                    "labelpick_config",
                    labelpick_to_json(&spec.session.labelpick),
                ),
                ("al_logreg", logreg_to_json(&spec.session.al_logreg)),
                (
                    "downstream_logreg",
                    logreg_to_json(&spec.session.downstream_logreg),
                ),
            ]),
        ),
        ("schedule", schedule),
        ("budget", Json::int(spec.budget as u64)),
        ("drift", Json::Str(spec.drift.to_string())),
    ])
}

fn str_field<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what} needs a string \"{key}\""))
}

fn usize_field(obj: &Json, key: &str, what: &str) -> Result<usize, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .map(|v| v as usize)
        .ok_or_else(|| format!("{what} needs a non-negative integer \"{key}\""))
}

/// Overwrites `target` with `obj[key]` when present; absent keys keep the
/// default already in `target`.
fn opt_f64(obj: &Json, key: &str, what: &str, target: &mut f64) -> Result<(), String> {
    if let Some(v) = obj.get(key) {
        *target = v
            .as_f64()
            .ok_or_else(|| format!("{what}.{key} must be a number"))?;
    }
    Ok(())
}

fn opt_usize(obj: &Json, key: &str, what: &str, target: &mut usize) -> Result<(), String> {
    if let Some(v) = obj.get(key) {
        *target = v
            .as_u64()
            .ok_or_else(|| format!("{what}.{key} must be a non-negative integer"))?
            as usize;
    }
    Ok(())
}

fn opt_bool(obj: &Json, key: &str, what: &str, target: &mut bool) -> Result<(), String> {
    if let Some(v) = obj.get(key) {
        *target = v
            .as_bool()
            .ok_or_else(|| format!("{what}.{key} must be a boolean"))?;
    }
    Ok(())
}

/// Rejects anything but an object whose keys all appear in `valid`, each
/// at most once (lookups read the first occurrence, so a repeat would be
/// silently ignored); the error names the offending key.
fn check_keys(obj: &Json, what: &str, valid: &[&str]) -> Result<(), String> {
    let Json::Obj(fields) = obj else {
        return Err(format!("{what} must be an object"));
    };
    for (i, (key, _)) in fields.iter().enumerate() {
        if !valid.contains(&key.as_str()) {
            return Err(format!(
                "unknown key \"{key}\" in {what}; valid keys: {}",
                valid.join(", ")
            ));
        }
        if fields[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate key \"{key}\" in {what}"));
        }
    }
    Ok(())
}

fn logreg_from_json(v: &Json, what: &str, target: &mut LogRegConfig) -> Result<(), String> {
    check_keys(v, what, &["l2", "max_iters", "tol", "parallel"])?;
    opt_f64(v, "l2", what, &mut target.l2)?;
    opt_usize(v, "max_iters", what, &mut target.max_iters)?;
    opt_f64(v, "tol", what, &mut target.tol)?;
    opt_bool(v, "parallel", what, &mut target.parallel)
}

fn labelpick_from_json(v: &Json, target: &mut LabelPickConfig) -> Result<(), String> {
    let what = "\"session.labelpick_config\"";
    check_keys(
        v,
        what,
        &[
            "rho",
            "blanket_tol",
            "blanket_rel",
            "cap",
            "min_queries",
            "parallel",
        ],
    )?;
    opt_f64(v, "rho", what, &mut target.rho)?;
    opt_f64(v, "blanket_tol", what, &mut target.blanket_tol)?;
    opt_f64(v, "blanket_rel", what, &mut target.blanket_rel)?;
    opt_usize(v, "cap", what, &mut target.cap)?;
    opt_usize(v, "min_queries", what, &mut target.min_queries)?;
    opt_bool(v, "parallel", what, &mut target.parallel)
}

/// Parses the JSON form back into a [`ScenarioSpec`], applying paper
/// defaults for every absent session/schedule/budget field and rejecting
/// every key the schema does not name (the returned spec is *not* yet
/// validated — `ScenarioSpec::validate` runs where the spec is used, so
/// error paths stay uniform with the byte codec).
pub fn scenario_from_json(v: &Json) -> Result<ScenarioSpec, String> {
    check_keys(
        v,
        "the spec",
        &["dataset", "session", "schedule", "budget", "drift"],
    )?;
    let dataset = v.get("dataset").ok_or("missing \"dataset\"")?;
    check_keys(dataset, "\"dataset\"", &["id", "scale", "seed"])?;
    let id: DatasetId = str_field(dataset, "id", "\"dataset\"")?
        .parse()
        .map_err(|e| format!("{e}"))?;
    let scale: Scale = str_field(dataset, "scale", "\"dataset\"")?
        .parse()
        .map_err(|e| format!("{e}"))?;
    let seed = dataset
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or("\"dataset\" needs a non-negative integer \"seed\"")?;
    let mut spec = ScenarioSpec::new(DatasetSpec { id, scale, seed });

    if let Some(session) = v.get("session") {
        check_keys(
            session,
            "\"session\"",
            &[
                "seed",
                "sampler",
                "label_model",
                "alpha",
                "acc_threshold",
                "oracle",
                "labelpick",
                "confusion",
                "noise_rate",
                "parallel",
                "labelpick_config",
                "al_logreg",
                "downstream_logreg",
            ],
        )?;
        if let Some(seed) = session.get("seed") {
            spec.session.seed = seed
                .as_u64()
                .ok_or("\"session.seed\" must be a non-negative integer")?;
        }
        if let Some(sampler) = session.get("sampler") {
            spec.session.sampler = sampler
                .as_str()
                .ok_or("\"session.sampler\" must be a string")?
                .parse()
                .map_err(|e| format!("{e}"))?;
        }
        if let Some(kind) = session.get("label_model") {
            spec.session.label_model = kind
                .as_str()
                .ok_or("\"session.label_model\" must be a string")?
                .parse()
                .map_err(|e| format!("{e}"))?;
        }
        opt_f64(session, "alpha", "\"session\"", &mut spec.session.alpha)?;
        opt_f64(
            session,
            "acc_threshold",
            "\"session\"",
            &mut spec.session.acc_threshold,
        )?;
        if let Some(oracle) = session.get("oracle") {
            spec.session.oracle = oracle
                .as_str()
                .ok_or("\"session.oracle\" must be a string")?
                .parse()
                .map_err(|e| format!("{e}"))?;
        }
        opt_bool(
            session,
            "labelpick",
            "\"session\"",
            &mut spec.session.use_labelpick,
        )?;
        opt_bool(
            session,
            "confusion",
            "\"session\"",
            &mut spec.session.use_confusion,
        )?;
        opt_f64(
            session,
            "noise_rate",
            "\"session\"",
            &mut spec.session.noise_rate,
        )?;
        opt_bool(
            session,
            "parallel",
            "\"session\"",
            &mut spec.session.parallel,
        )?;
        if let Some(labelpick) = session.get("labelpick_config") {
            labelpick_from_json(labelpick, &mut spec.session.labelpick)?;
        }
        if let Some(logreg) = session.get("al_logreg") {
            logreg_from_json(logreg, "\"session.al_logreg\"", &mut spec.session.al_logreg)?;
        }
        if let Some(logreg) = session.get("downstream_logreg") {
            logreg_from_json(
                logreg,
                "\"session.downstream_logreg\"",
                &mut spec.session.downstream_logreg,
            )?;
        }
    }

    if let Some(schedule) = v.get("schedule") {
        let what = "\"schedule\"";
        let kind = str_field(schedule, "kind", what)?;
        spec.schedule = match kind {
            "fixed_step" => {
                check_keys(schedule, what, &["kind"])?;
                BudgetSchedule::FixedStep
            }
            "fixed_batch" => {
                check_keys(schedule, what, &["kind", "k"])?;
                BudgetSchedule::FixedBatch {
                    k: usize_field(schedule, "k", what)?,
                }
            }
            "doubling" => {
                check_keys(schedule, what, &["kind", "cap"])?;
                BudgetSchedule::Doubling {
                    cap: usize_field(schedule, "cap", what)?,
                }
            }
            "phased" => {
                check_keys(schedule, what, &["kind", "segments"])?;
                let segments = schedule
                    .get("segments")
                    .and_then(Json::as_array)
                    .ok_or("\"schedule\" needs an array \"segments\"")?
                    .iter()
                    .map(|seg| {
                        let what = "a phased segment";
                        check_keys(seg, what, &["k", "batches"])?;
                        Ok(PhaseSegment {
                            k: usize_field(seg, "k", what)?,
                            batches: usize_field(seg, "batches", what)?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                BudgetSchedule::Phased { segments }
            }
            other => {
                return Err(format!(
                    "unknown schedule kind {other:?}; expected one of \
                     fixed_step, fixed_batch, doubling, phased"
                ))
            }
        };
    }

    if let Some(budget) = v.get("budget") {
        spec.budget = budget
            .as_u64()
            .ok_or("\"budget\" must be a non-negative integer")? as usize;
    }
    if let Some(drift) = v.get("drift") {
        spec.drift = drift
            .as_str()
            .ok_or("\"drift\" must be a string")?
            .parse()
            .map_err(|e| format!("{e}"))?;
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use activedp::SamplerChoice;
    use adp_labelmodel::LabelModelKind;

    fn dataset() -> DatasetSpec {
        DatasetSpec {
            id: DatasetId::Youtube,
            scale: Scale::Tiny,
            seed: 7,
        }
    }

    #[test]
    fn full_spec_roundtrips_through_json() {
        let mut spec = ScenarioSpec::new(dataset());
        spec.session.seed = 5;
        spec.session.sampler = SamplerChoice::Qbc;
        spec.session.label_model = LabelModelKind::DawidSkene;
        spec.session.parallel = false;
        // Every config field rides the JSON, the nested ones included —
        // the served session must be *exactly* the spec the client holds.
        spec.session.acc_threshold = 0.8;
        spec.session.labelpick.rho = 0.25;
        spec.session.labelpick.cap = 17;
        spec.session.al_logreg.l2 = 0.125;
        spec.session.al_logreg.max_iters = 93;
        spec.session.downstream_logreg.tol = 1e-7;
        spec.session.downstream_logreg.parallel = false;
        spec.session.oracle = activedp::OracleKind::Noisy {
            confusion: activedp::ConfusionSpec::Biased {
                accuracy: 0.8,
                bias: 1,
            },
            latency: activedp::LatencyModel {
                cheap_cost: 0.25,
                expensive_cost: 16.0,
            },
            policy: activedp::RoutePolicy::UncertaintyThreshold { tau: 0.35 },
        };
        spec.drift = adp_data::DriftSpec::LabelShift { at: 9, prior: 0.75 };
        spec.schedule = BudgetSchedule::Phased {
            segments: vec![
                PhaseSegment { k: 1, batches: 4 },
                PhaseSegment { k: 8, batches: 2 },
            ],
        };
        spec.budget = 40;
        let json = scenario_to_json(&spec);
        // Through the actual wire text, not just the value tree.
        let parsed = Json::parse(&json.to_string()).unwrap();
        assert_eq!(scenario_from_json(&parsed).unwrap(), spec);
    }

    #[test]
    fn minimal_spec_gets_paper_defaults() {
        let v = Json::parse(r#"{"dataset":{"id":"census","scale":"tiny","seed":3}}"#).unwrap();
        let spec = scenario_from_json(&v).unwrap();
        assert_eq!(spec, ScenarioSpec::new(spec.dataset));
        assert_eq!(spec.dataset.id, DatasetId::Census);
        assert_eq!(spec.session.alpha, 0.99); // tabular default
        assert_eq!(spec.schedule, BudgetSchedule::FixedStep);
    }

    #[test]
    fn every_schedule_kind_roundtrips() {
        for schedule in [
            BudgetSchedule::FixedStep,
            BudgetSchedule::FixedBatch { k: 16 },
            BudgetSchedule::Doubling { cap: 32 },
            BudgetSchedule::Phased {
                segments: vec![PhaseSegment { k: 2, batches: 3 }],
            },
        ] {
            let spec = ScenarioSpec {
                schedule: schedule.clone(),
                ..ScenarioSpec::new(dataset())
            };
            let back = scenario_from_json(&scenario_to_json(&spec)).unwrap();
            assert_eq!(back.schedule, schedule);
        }
    }

    #[test]
    fn bad_names_report_the_valid_options() {
        let bad_sampler = Json::parse(
            r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1},
                "session":{"sampler":"oracle"}}"#,
        )
        .unwrap();
        let err = scenario_from_json(&bad_sampler).unwrap_err();
        assert!(err.contains("ADP"), "{err}");

        let bad_model = Json::parse(
            r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1},
                "session":{"label_model":"snorkel"}}"#,
        )
        .unwrap();
        let err = scenario_from_json(&bad_model).unwrap_err();
        assert!(err.contains("Triplet"), "{err}");

        let bad_dataset =
            Json::parse(r#"{"dataset":{"id":"mnist","scale":"tiny","seed":1}}"#).unwrap();
        let err = scenario_from_json(&bad_dataset).unwrap_err();
        assert!(err.contains("Youtube"), "{err}");

        let bad_kind = Json::parse(
            r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1},
                "schedule":{"kind":"warp"}}"#,
        )
        .unwrap();
        let err = scenario_from_json(&bad_kind).unwrap_err();
        assert!(err.contains("fixed_batch"), "{err}");

        let bad_oracle = Json::parse(
            r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1},
                "session":{"oracle":"psychic"}}"#,
        )
        .unwrap();
        let err = scenario_from_json(&bad_oracle).unwrap_err();
        assert!(err.contains("noisy:ACC"), "{err}");

        let bad_drift = Json::parse(
            r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1},
                "drift":"tectonic"}"#,
        )
        .unwrap();
        let err = scenario_from_json(&bad_drift).unwrap_err();
        assert!(err.contains("label-shift:AT"), "{err}");
    }

    #[test]
    fn every_oracle_and_drift_shape_roundtrips() {
        for (oracle, drift) in [
            ("simulated", "none"),
            ("noisy:0.9", "label-shift:8,0.7"),
            ("noisy:0.85>1@always-cheap", "covariate:4,0.5"),
            ("noisy:0.8@uncertainty:0.4!0.5/20", "arriving:3"),
            ("noisy:0.95@escalate", "none"),
        ] {
            let text = format!(
                r#"{{"dataset":{{"id":"census","scale":"tiny","seed":1}},
                    "session":{{"oracle":"{oracle}"}},"drift":"{drift}"}}"#
            );
            let spec = scenario_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(spec.session.oracle, oracle.parse().unwrap());
            assert_eq!(spec.drift, drift.parse().unwrap());
            let back =
                scenario_from_json(&Json::parse(&scenario_to_json(&spec).to_string()).unwrap())
                    .unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn missing_or_mistyped_fields_are_errors() {
        for bad in [
            r#"{}"#,
            r#"{"dataset":{"scale":"tiny","seed":1}}"#,
            r#"{"dataset":{"id":"youtube","seed":1}}"#,
            r#"{"dataset":{"id":"youtube","scale":"tiny"}}"#,
            r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1},"budget":-3}"#,
            r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1},"schedule":{"kind":"fixed_batch"}}"#,
            r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1},"session":{"parallel":"yes"}}"#,
            r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1},"session":7}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(scenario_from_json(&v).is_err(), "{bad}");
        }

        // Unknown keys are errors at every level, never silently ignored:
        // a typo, the retired "candidates" key, and stray nested keys.
        for (bad, key, valid) in [
            (
                r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1},"sampeler":"US"}"#,
                "sampeler",
                "session",
            ),
            (
                r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1},
                    "session":{"sampeler":"US"}}"#,
                "sampeler",
                "sampler",
            ),
            (
                r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1},
                    "session":{"candidates":"exact"}}"#,
                "candidates",
                "label_model",
            ),
            (
                r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1,"size":3}}"#,
                "size",
                "scale",
            ),
            (
                r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1},
                    "schedule":{"kind":"fixed_step","k":4}}"#,
                "k",
                "kind",
            ),
            (
                r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1},
                    "schedule":{"kind":"phased","segments":[{"k":1,"batches":2,"x":0}]}}"#,
                "x",
                "batches",
            ),
            (
                r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1},
                    "session":{"labelpick_config":{"rh0":0.1}}}"#,
                "rh0",
                "rho",
            ),
            (
                r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1},
                    "session":{"al_logreg":{"lr":0.1}}}"#,
                "lr",
                "max_iters",
            ),
            (
                r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1},
                    "session":{"downstream_logreg":{"l1":0.1}}}"#,
                "l1",
                "l2",
            ),
        ] {
            let err = scenario_from_json(&Json::parse(bad).unwrap()).unwrap_err();
            assert!(err.contains(&format!("unknown key \"{key}\"")), "{err}");
            assert!(err.contains(valid), "{err}");
        }

        // A repeated key is an error too, not a silent first-wins.
        let repeated = Json::parse(
            r#"{"dataset":{"id":"youtube","scale":"tiny","seed":1},
                "session":{"seed":1,"seed":2}}"#,
        )
        .unwrap();
        let err = scenario_from_json(&repeated).unwrap_err();
        assert!(err.contains("duplicate key \"seed\""), "{err}");
    }
}
