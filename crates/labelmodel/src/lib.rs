//! Generative label models: aggregate weak LF votes into probabilistic
//! labels (paper §2.1's `f_l`).
//!
//! Three models are provided:
//!
//! * [`MajorityVote`] — the standard unweighted baseline;
//! * [`DawidSkene`] — EM over per-LF confusion matrices (the classic
//!   generative model; handles any number of classes and models abstention
//!   rates per class);
//! * [`TripletMetal`] — closed-form method-of-moments estimation of LF
//!   accuracies from pairwise agreement statistics, the same second-moment
//!   identity MeTaL's matrix-completion estimator exploits (Ratner et al.
//!   2019), specialised to binary tasks — which covers all eight paper
//!   datasets. The paper's experiments use MeTaL as the label model, so
//!   [`TripletMetal`] is the default in the ActiveDP session.
//!
//! All models implement [`LabelModel`]: `fit` on a [`LabelMatrix`], then
//! `predict_proba` on vote rows.

pub mod dawid_skene;
pub mod error;
pub mod majority;
pub mod triplet;

pub use dawid_skene::DawidSkene;
pub use error::LabelModelError;
pub use majority::MajorityVote;
pub use triplet::TripletMetal;

use adp_lf::{ColumnView, LabelMatrix, ABSTAIN};
use adp_linalg::parallel::{self, Execution};
use adp_linalg::Matrix;
use std::ops::Range;

/// Instances per parallel [`predict_all_with`] chunk. Fixed
/// (machine-independent): each row's posterior is a pure function of that
/// row, so chunked prediction is bitwise identical at every thread count.
const PREDICT_CHUNK: usize = 512;

/// Minimum instance count before threads pay for themselves. Public so
/// callers that force a policy (e.g. the engine's master switch) can reuse
/// the same threshold in their own `parallel::auto` call.
pub const MIN_PARALLEL_PREDICT: usize = 2 * PREDICT_CHUNK;

/// A generative model over weak labels.
///
/// `Send + Sync` so fitted models can be shared immutably across the
/// scoped worker threads of [`predict_all_with`] and moved between
/// sessions; all provided models are plain data.
pub trait LabelModel: Send + Sync {
    /// Fits the model to a label matrix. `class_balance`, when given, fixes
    /// the class prior (the paper tunes MeTaL with the validation balance);
    /// otherwise models estimate or default to uniform.
    fn fit(
        &mut self,
        matrix: &LabelMatrix,
        class_balance: Option<&[f64]>,
    ) -> Result<(), LabelModelError>;

    /// [`LabelModel::fit`] on the selected columns of a matrix. The
    /// default fits a copy of them; a model that reads less than the votes
    /// overrides it to read the selection in place.
    fn fit_columns(
        &mut self,
        view: &ColumnView<'_>,
        class_balance: Option<&[f64]>,
    ) -> Result<(), LabelModelError> {
        self.fit(&view.to_matrix(), class_balance)
    }

    /// Writes the posterior class distribution for one row of votes (`-1`
    /// = abstain) into `out`, one value per class. Rows where every LF
    /// abstains yield the class prior.
    fn predict_into(&self, votes: &[i8], out: &mut [f64]);

    /// [`LabelModel::predict_into`] into a fresh vector.
    fn predict_proba(&self, votes: &[i8]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_classes()];
        self.predict_into(votes, &mut out);
        out
    }

    /// Number of classes.
    fn n_classes(&self) -> usize;

    /// The fitted parameters (not the configuration) as one flat vector.
    fn params(&self) -> Vec<f64>;

    /// Loads [`LabelModel::params`] of a model fitted over `n_lfs` LFs, so
    /// `predict_proba` answers bit for bit as that model did. Values a fit
    /// cannot produce (wrong length, non-finite, outside the fit's ranges)
    /// are [`LabelModelError::BadParams`], leaving the model unchanged.
    fn load_params(&mut self, n_lfs: usize, params: &[f64]) -> Result<(), LabelModelError>;
}

/// Applies `model` to every instance of `matrix`, fanning row chunks out
/// over scoped threads when the matrix is large enough (bitwise identical
/// to the serial path — each row's posterior is independent).
pub fn predict_all(model: &dyn LabelModel, matrix: &LabelMatrix) -> Matrix {
    predict_all_with(
        model,
        matrix,
        parallel::auto(matrix.n_instances(), MIN_PARALLEL_PREDICT),
    )
}

/// [`predict_all`] under an explicit execution policy: one `n × classes`
/// matrix whose row `i` is `model.predict_proba(matrix.row(i))`.
pub fn predict_all_with(model: &dyn LabelModel, matrix: &LabelMatrix, exec: Execution) -> Matrix {
    fill_posteriors(model, matrix.n_instances(), exec, |rows, block| {
        let k = model.n_classes();
        for (i, out) in rows.zip(block.chunks_exact_mut(k)) {
            model.predict_into(matrix.row(i), out);
        }
    })
}

/// [`predict_all_with`] on the selected columns of a matrix, read in
/// place: bit for bit the prediction on `view.to_matrix()`.
pub fn predict_columns(model: &dyn LabelModel, view: &ColumnView<'_>, exec: Execution) -> Matrix {
    fill_posteriors(model, view.n_instances(), exec, |rows, block| {
        let k = model.n_classes();
        let mut votes = vec![ABSTAIN; view.n_lfs()];
        for (i, out) in rows.zip(block.chunks_exact_mut(k)) {
            model.predict_into(view.gather(i, &mut votes), out);
        }
    })
}

/// An `n × classes` matrix filled chunk by chunk by `fill(rows, block)`.
fn fill_posteriors(
    model: &dyn LabelModel,
    n: usize,
    exec: Execution,
    fill: impl Fn(Range<usize>, &mut [f64]) + Sync,
) -> Matrix {
    let mut probs = Matrix::zeros(n, model.n_classes());
    parallel::fill_chunks(
        probs.as_mut_slice(),
        model.n_classes(),
        PREDICT_CHUNK,
        exec,
        fill,
    );
    probs
}

/// Which label model a pipeline should instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelModelKind {
    /// Unweighted majority vote.
    MajorityVote,
    /// Dawid-Skene EM.
    DawidSkene,
    /// Triplet method (MeTaL-style); binary tasks only.
    Triplet,
}

impl LabelModelKind {
    /// All kinds, in tag order.
    pub fn all() -> [LabelModelKind; 3] {
        [
            LabelModelKind::MajorityVote,
            LabelModelKind::DawidSkene,
            LabelModelKind::Triplet,
        ]
    }

    /// Canonical name — what [`LabelModelKind::from_str`] parses back and
    /// what artefact rows print.
    ///
    /// [`LabelModelKind::from_str`]: std::str::FromStr::from_str
    pub fn name(self) -> &'static str {
        match self {
            LabelModelKind::MajorityVote => "MajorityVote",
            LabelModelKind::DawidSkene => "DawidSkene",
            LabelModelKind::Triplet => "Triplet",
        }
    }
}

impl std::fmt::Display for LabelModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A label-model name that matched no [`LabelModelKind`]; [`Display`]
/// lists the valid options.
///
/// [`Display`]: std::fmt::Display
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownLabelModel {
    /// The name that failed to parse.
    pub given: String,
}

impl std::fmt::Display for UnknownLabelModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown label model {:?}; expected one of {}",
            self.given,
            LabelModelKind::all().map(LabelModelKind::name).join(", ")
        )
    }
}

impl std::error::Error for UnknownLabelModel {}

impl std::str::FromStr for LabelModelKind {
    type Err = UnknownLabelModel;

    /// Parses a label-model name, case-insensitively, accepting the
    /// canonical name plus common short forms (`mv`, `majority`, `ds`,
    /// `dawid-skene`, `metal`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "majorityvote" | "majority" | "mv" => Ok(LabelModelKind::MajorityVote),
            "dawidskene" | "dawid-skene" | "ds" => Ok(LabelModelKind::DawidSkene),
            "triplet" | "metal" => Ok(LabelModelKind::Triplet),
            _ => Err(UnknownLabelModel { given: s.into() }),
        }
    }
}

/// Factory for boxed label models.
pub fn make_model(kind: LabelModelKind, n_classes: usize) -> Box<dyn LabelModel> {
    make_model_with(kind, n_classes, true)
}

/// [`make_model`] with an explicit scheduling switch: `parallel: false`
/// forces [`DawidSkene`]'s threaded EM sweeps onto the calling thread
/// (output is bitwise identical either way). The other models' fits are
/// serial: [`TripletMetal`] reads the matrix's moment ledger, and majority
/// vote has nothing to fit.
pub fn make_model_with(
    kind: LabelModelKind,
    n_classes: usize,
    parallel: bool,
) -> Box<dyn LabelModel> {
    match kind {
        LabelModelKind::MajorityVote => Box::new(MajorityVote::new(n_classes)),
        LabelModelKind::DawidSkene => {
            let mut ds = DawidSkene::new(n_classes);
            ds.parallel = parallel;
            Box::new(ds)
        }
        LabelModelKind::Triplet => Box::new(TripletMetal::new(n_classes)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_constructs_all_kinds() {
        for kind in LabelModelKind::all() {
            let m = make_model(kind, 2);
            assert_eq!(m.n_classes(), 2);
        }
    }

    #[test]
    fn kind_names_roundtrip_through_fromstr() {
        for kind in LabelModelKind::all() {
            assert_eq!(kind.to_string().parse::<LabelModelKind>().unwrap(), kind);
        }
        assert_eq!(
            "ds".parse::<LabelModelKind>().unwrap(),
            LabelModelKind::DawidSkene
        );
        assert_eq!(
            "metal".parse::<LabelModelKind>().unwrap(),
            LabelModelKind::Triplet
        );
        let err = "snorkel".parse::<LabelModelKind>().unwrap_err();
        assert_eq!(err.given, "snorkel");
        assert!(err.to_string().contains("Triplet"), "{err}");
    }

    /// Every model reloads its own fitted parameters into a fresh instance
    /// that predicts bit for bit alike, and rejects tampered ones.
    #[test]
    fn params_reload_bitwise_and_reject_tampering() {
        let matrix = LabelMatrix::from_votes(&[
            vec![1, 1, 0, -1],
            vec![0, 0, -1, 0],
            vec![1, -1, 1, 1],
            vec![-1, 0, 0, 0],
            vec![1, 1, 1, -1],
        ])
        .unwrap();
        for kind in LabelModelKind::all() {
            let mut fitted = make_model(kind, 2);
            fitted.fit(&matrix, Some(&[0.3, 0.7])).unwrap();
            let params = fitted.params();
            let mut loaded = make_model(kind, 2);
            loaded.load_params(matrix.n_lfs(), &params).unwrap();
            assert_eq!(loaded.params(), params, "{kind}");
            for i in 0..matrix.n_instances() {
                let (a, b) = (
                    fitted.predict_proba(matrix.row(i)),
                    loaded.predict_proba(matrix.row(i)),
                );
                let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "{kind} row {i}");
            }
            let mut fresh = make_model(kind, 2);
            let short = &params[..params.len() - 1];
            let err = fresh.load_params(matrix.n_lfs(), short).unwrap_err();
            assert!(matches!(err, LabelModelError::BadParams { .. }), "{kind}");
            for bad in [f64::NAN, f64::INFINITY, -0.5, 2.0] {
                let mut tampered = params.clone();
                *tampered.last_mut().unwrap() = bad;
                assert!(
                    fresh.load_params(matrix.n_lfs(), &tampered).is_err(),
                    "{kind} accepted {bad}"
                );
                tampered = params.clone();
                tampered[0] = bad;
                assert!(
                    fresh.load_params(matrix.n_lfs(), &tampered).is_err(),
                    "{kind} accepted prior {bad}"
                );
            }
        }
    }

    /// Fitting and predicting on a column view equals fitting and
    /// predicting on the copied columns, bit for bit, for every model.
    #[test]
    fn column_view_fit_and_predict_equal_the_copy() {
        let matrix = LabelMatrix::from_votes(&[
            vec![1, 1, 0, -1, 1],
            vec![0, 0, -1, 0, -1],
            vec![1, -1, 1, 1, 0],
            vec![-1, 0, 0, 0, 1],
            vec![1, 1, 1, -1, -1],
            vec![-1, -1, -1, -1, -1],
        ])
        .unwrap();
        let cols = [4, 0, 2, 2, 3];
        let copy = matrix.select_columns(&cols).unwrap();
        let view = matrix.columns(&cols).unwrap();
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for kind in LabelModelKind::all() {
            let mut on_copy = make_model(kind, 2);
            on_copy.fit(&copy, Some(&[0.4, 0.6])).unwrap();
            let mut on_view = make_model(kind, 2);
            on_view.fit_columns(&view, Some(&[0.4, 0.6])).unwrap();
            assert_eq!(on_view.params(), on_copy.params(), "{kind}");
            for exec in [Execution::Serial, Execution::with_threads(2)] {
                let expected = predict_all_with(on_copy.as_ref(), &copy, exec);
                let got = predict_columns(on_view.as_ref(), &view, exec);
                assert_eq!(bits(&got), bits(&expected), "{kind} {exec:?}");
            }
        }
    }

    #[test]
    fn predict_all_shapes() {
        let matrix = LabelMatrix::empty(3);
        let mut mv = MajorityVote::new(2);
        mv.fit(&matrix, None).unwrap();
        let probs = predict_all(&mv, &matrix);
        assert_eq!(probs.shape(), (3, 2));
        assert_eq!(probs[0], [0.5, 0.5]);
    }
}
