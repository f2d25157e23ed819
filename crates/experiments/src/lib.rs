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
//! The budget/latency sweep additionally scales out: [`sweep`] runs a
//! grid over local worker threads (`adp-sweep --jobs N`) and [`coord`]
//! dispatches the same grid across a fleet of `adp-served` processes
//! (`adp-coord`), with byte-identical artefacts either way.

pub mod args;
pub mod coord;
pub mod protocol;
pub mod sweep;
pub mod tables;

pub use args::{RunOpts, SweepOpts};
pub use coord::{run_distributed, CoordError, CoordOpts, CoordReport, WorkerReport};
pub use protocol::{run_framework_curve, run_session_curve, Curve, Method, ProtocolConfig};
pub use sweep::{
    grid_table, run_grid, run_grid_jobs, run_grid_jobs_streaming, run_spec, run_spec_over,
    CellFailure, SweepCell, SweepGrid, SweepOutcome, SweepRow, SWEEP_ROW_MAGIC, SWEEP_ROW_VERSION,
};
pub use tables::{format_row, write_csv, TableWriter};
