//! # ActiveDP reproduction — umbrella crate
//!
//! A from-scratch Rust reproduction of *ActiveDP: Bridging Active Learning
//! and Data Programming* (Guan & Koudas, EDBT 2024). This facade re-exports
//! every workspace crate under one roof so the examples and downstream
//! users can depend on a single package:
//!
//! * [`core`] (`activedp`) — the ActiveDP framework itself: the staged
//!   [`core::Engine`] loop, ConFusion aggregation, the ADP sampler and
//!   LabelPick LF selection;
//! * [`baselines`] — Nemo, IWS, Revising-LF and uncertainty sampling under
//!   a common [`baselines::Framework`] trait;
//! * [`serve`] — the concurrent [`serve::SessionHub`]: many sessions by
//!   id, sharded over per-shard locks, with snapshot persistence and the
//!   `adp-served` JSON-lines network front end;
//! * [`wal`] — the per-step write-ahead log behind the hub's
//!   point-in-time recovery;
//! * [`wire`] — the dependency-free versioned binary codec snapshots are
//!   encoded with;
//! * [`data`] — the eight synthetic benchmark datasets of Table 2;
//! * [`lf`] — label functions, label matrices and the simulated user;
//! * [`labelmodel`] — majority vote, Dawid-Skene EM and the triplet
//!   (MeTaL-style) label model;
//! * [`glasso`] — graphical lasso and Markov-blanket extraction;
//! * [`classifier`] — logistic regression and metrics;
//! * [`sampler`] — passive/uncertainty/LAL/SEU selectors;
//! * [`text`] — tokenizer, vocabulary, TF-IDF;
//! * [`linalg`] — the dense/sparse kernels everything is built on;
//! * [`experiments`] — the §4 evaluation protocol and table/figure runners.
//!
//! ## Quickstart
//!
//! ```
//! use activedp_repro::core::Engine;
//! use activedp_repro::data::{generate, DatasetId, Scale};
//!
//! let data = generate(DatasetId::Youtube, Scale::Tiny, 7).unwrap();
//! let mut engine = Engine::builder(data).seed(7).build().unwrap();
//! engine.run(15).unwrap();
//! let report = engine.evaluate_downstream().unwrap();
//! assert!(report.test_accuracy > 0.4);
//! ```
//!
//! Engines are owned and `Send + 'static`; to serve many sessions
//! concurrently, register them in a [`serve::SessionHub`]:
//!
//! ```
//! use activedp_repro::core::Engine;
//! use activedp_repro::data::{generate, DatasetId, Scale};
//! use activedp_repro::serve::SessionHub;
//!
//! let data = generate(DatasetId::Youtube, Scale::Tiny, 7).unwrap().into_shared();
//! let hub = SessionHub::new(4);
//! let id = hub.open(Engine::builder(data).seed(7)).unwrap();
//! let outcomes = hub.step_batch(id, 5).unwrap();
//! assert_eq!(outcomes.len(), 5);
//! ```

pub use activedp as core;
pub use adp_baselines as baselines;
pub use adp_classifier as classifier;
pub use adp_data as data;
pub use adp_experiments as experiments;
pub use adp_glasso as glasso;
pub use adp_labelmodel as labelmodel;
pub use adp_lf as lf;
pub use adp_linalg as linalg;
pub use adp_oracle as oracle;
pub use adp_sampler as sampler;
pub use adp_serve as serve;
pub use adp_text as text;
pub use adp_wal as wal;
pub use adp_wire as wire;
