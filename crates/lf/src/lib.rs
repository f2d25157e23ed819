//! Label functions and weak supervision plumbing.
//!
//! Data programming (paper §2.1) represents supervision as *label functions*
//! (LFs): rules that vote a class label on a subset of instances and abstain
//! elsewhere. This crate provides:
//!
//! * [`LabelFunction`] — keyword LFs for text and decision-stump LFs for
//!   tabular data, the two families used in the paper's user simulation;
//! * [`LabelMatrix`] — the n×m matrix `W` with `W[i][j] = λ_j(x_i)` and the
//!   usual coverage/overlap/conflict/accuracy statistics;
//! * [`CandidateSpace`] — the per-dataset candidate-LF space of §4.1.4
//!   (all keyword LFs / all boundary decision stumps above an accuracy
//!   threshold);
//! * [`SimulatedUser`] — the paper's user model: given a query instance it
//!   returns an unseen candidate LF consistent with the instance's label,
//!   drawn with probability proportional to LF coverage, with an optional
//!   label-noise mode (Table 5).

pub mod candidates;
pub mod error;
pub mod lf;
pub mod matrix;
pub mod user;

pub use candidates::{Candidate, CandidateSpace};
pub use error::LfError;
pub use lf::{LabelFunction, LfKey, StumpOp, ABSTAIN};
pub use matrix::{ColumnView, LabelMatrix, LfMoments};
pub use user::{SimulatedUser, UserConfig, UserState};
