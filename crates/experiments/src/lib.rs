//! The evaluation protocol of paper §4.1.3 and the machinery behind every
//! table and figure.
//!
//! The protocol simulates `iterations` rounds of human supervision,
//! evaluates the downstream model every `eval_every` rounds, repeats over
//! several seeds, and reports the *average test accuracy during the run* —
//! the area under the performance curve the paper's tables print.
//!
//! Binaries in `src/bin/` regenerate each artefact:
//! `table2`, `fig2`, `fig3`, `table3`, `table4`, `table5`.
//!
//! The budget/latency sweep ([`sweep`], the `adp-sweep` binary) runs a
//! spec grid (dataset × sampler × label model × k × oracle × drift ×
//! seed) over local worker threads (`adp-sweep --jobs N`), with a
//! byte-identical artefact for every worker count.

pub mod args;
pub mod protocol;
pub mod sweep;
pub mod tables;

pub use args::{RunOpts, SweepOpts};
pub use protocol::{run_framework_curve, run_session_curve, Curve, Method, ProtocolConfig};
pub use sweep::{
    grid_table, run_grid, run_grid_jobs, run_grid_jobs_streaming, run_spec_over, CellFailure,
    SweepCell, SweepGrid, SweepOutcome, SweepRow,
};
pub use tables::{format_row, write_csv, TableWriter};
