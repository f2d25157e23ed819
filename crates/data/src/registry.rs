//! The eight named benchmark datasets of Table 2.
//!
//! Each [`DatasetId`] carries the paper's split sizes and a tuned generator
//! spec (see `synth`). The per-dataset knobs were chosen so the *relative*
//! difficulty ordering of the paper holds: Youtube is easy (clean, short
//! docs, strong keywords), Amazon is the hardest text task (weak, leaky
//! keywords, heavy label noise), Occupancy is nearly separable, Census is a
//! noisy imbalanced tabular task.

use crate::dataset::{SplitDataset, Task};
use crate::error::DataError;
use crate::synth::{generate_tabular, generate_text, TabularSpec, TextSpec};

/// Identifier for one of the paper's eight benchmark datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// Youtube comment spam (Alberto et al. 2015).
    Youtube,
    /// IMDB movie-review sentiment (Maas et al. 2011).
    Imdb,
    /// Yelp review sentiment (Zhang et al. 2015).
    Yelp,
    /// Amazon review sentiment (He & McAuley 2016).
    Amazon,
    /// BiasBios professor-vs-teacher (De-Arteaga et al. 2019).
    BiosPT,
    /// BiasBios journalist-vs-photographer.
    BiosJP,
    /// Office-room occupancy (Candanedo & Feldheim 2016).
    Occupancy,
    /// Census income (Kohavi 1996).
    Census,
}

impl DatasetId {
    /// All eight datasets in the paper's presentation order.
    pub fn all() -> [DatasetId; 8] {
        [
            DatasetId::Youtube,
            DatasetId::Imdb,
            DatasetId::Yelp,
            DatasetId::Amazon,
            DatasetId::BiosPT,
            DatasetId::BiosJP,
            DatasetId::Occupancy,
            DatasetId::Census,
        ]
    }

    /// The six textual datasets (Nemo is only evaluated on these).
    pub fn textual() -> [DatasetId; 6] {
        [
            DatasetId::Youtube,
            DatasetId::Imdb,
            DatasetId::Yelp,
            DatasetId::Amazon,
            DatasetId::BiosPT,
            DatasetId::BiosJP,
        ]
    }

    /// Dataset name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::Youtube => "Youtube",
            DatasetId::Imdb => "IMDB",
            DatasetId::Yelp => "Yelp",
            DatasetId::Amazon => "Amazon",
            DatasetId::BiosPT => "Bios-PT",
            DatasetId::BiosJP => "Bios-JP",
            DatasetId::Occupancy => "Occupancy",
            DatasetId::Census => "Census",
        }
    }

    /// `true` for keyword-LF (textual) datasets.
    pub fn is_textual(self) -> bool {
        !matches!(self, DatasetId::Occupancy | DatasetId::Census)
    }

    /// Parses a dataset name as used by CLIs and the serving front end
    /// (case-insensitive table name, e.g. `"youtube"`, `"bios-pt"`).
    pub fn from_name(name: &str) -> Option<DatasetId> {
        DatasetId::all()
            .into_iter()
            .find(|id| id.name().eq_ignore_ascii_case(name))
    }

    /// Paper split sizes `(#train, #valid, #test)` from Table 2.
    pub fn paper_sizes(self) -> (usize, usize, usize) {
        match self {
            DatasetId::Youtube => (1_566, 195, 195),
            DatasetId::Imdb => (20_000, 2_500, 2_500),
            DatasetId::Yelp => (20_000, 2_500, 2_500),
            DatasetId::Amazon => (20_000, 2_500, 2_500),
            DatasetId::BiosPT => (19_672, 2_458, 2_458),
            DatasetId::BiosJP => (25_808, 3_225, 3_225),
            DatasetId::Occupancy => (14_317, 1_789, 1_789),
            DatasetId::Census => (25_541, 3_192, 3_192),
        }
    }

    /// The ADP sampler trade-off factor used in the paper (§3.3):
    /// α = 0.5 for text, α = 0.99 for tabular.
    pub fn paper_alpha(self) -> f64 {
        if self.is_textual() {
            0.5
        } else {
            0.99
        }
    }
}

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for DatasetId {
    type Err = DataError;

    /// [`DatasetId::from_name`] behind the standard parsing trait, with a
    /// typed error listing the valid table names.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DatasetId::from_name(s).ok_or_else(|| DataError::UnknownName {
            what: "dataset",
            given: s.to_string(),
            expected: DatasetId::all()
                .iter()
                .map(|d| d.name())
                .collect::<Vec<_>>()
                .join(", "),
        })
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scale::Paper => f.write_str("paper"),
            Scale::Reduced => f.write_str("reduced"),
            Scale::Tiny => f.write_str("tiny"),
            Scale::Custom(x) => write!(f, "x{x}"),
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = DataError;

    /// Parses `"paper"`, `"reduced"`, `"tiny"` or a custom multiplier
    /// written `"x0.125"` (the [`Scale::Custom`] display form).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(named) = Scale::from_name(s) {
            return Ok(named);
        }
        if let Some(factor) = s.strip_prefix('x').and_then(|f| f.parse::<f64>().ok()) {
            if factor > 0.0 && factor <= 64.0 {
                return Ok(Scale::Custom(factor));
            }
        }
        Err(DataError::UnknownName {
            what: "scale",
            given: s.to_string(),
            expected: "paper, reduced, tiny, x<factor in (0,64]>".into(),
        })
    }
}

/// Dataset size multiplier.
#[derive(Debug, Clone, Copy)]
pub enum Scale {
    /// Paper-scale sizes (Table 2).
    Paper,
    /// ≈20% of paper scale; the experiment binaries' default.
    Reduced,
    /// ≈3% of paper scale; used by unit/integration tests and benches.
    Tiny,
    /// Custom multiplier in (0, 64]. Factors above 1 upscale past the
    /// paper's sizes — e.g. `x25` on a ~40k-train dataset is a
    /// million-instance pool.
    Custom(f64),
}

/// A scale *is* its multiplier: generation depends only on
/// [`Scale::factor`], so `Scale::Reduced == Scale::Custom(0.2)` — the two
/// describe bitwise-identical splits and must compare (and cache, see
/// [`DatasetSpec::cache_key`]) as the same provenance. Compared by the
/// factor's bit pattern, like the cache key.
impl PartialEq for Scale {
    fn eq(&self, other: &Scale) -> bool {
        self.factor().to_bits() == other.factor().to_bits()
    }
}

impl Scale {
    /// The multiplier.
    pub fn factor(self) -> f64 {
        match self {
            Scale::Paper => 1.0,
            Scale::Reduced => 0.2,
            Scale::Tiny => 0.03,
            Scale::Custom(f) => f,
        }
    }

    fn apply(self, n: usize, floor: usize) -> usize {
        // Never exceed the paper's own split size through the floor.
        ((n as f64 * self.factor()).round() as usize).max(floor.min(n))
    }

    /// Parses a scale name as used by CLIs and the serving front end
    /// (`"paper"`, `"reduced"`, `"tiny"`; custom multipliers are
    /// constructed programmatically).
    pub fn from_name(name: &str) -> Option<Scale> {
        match name.to_ascii_lowercase().as_str() {
            "paper" => Some(Scale::Paper),
            "reduced" => Some(Scale::Reduced),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }
}

/// Full provenance of a generated dataset: which one, at what scale, under
/// which seed. Two sessions with equal specs run over interchangeable
/// (bitwise-identical) splits, which is what lets the serving layer
/// persist a session *without* its dataset and regenerate the split at
/// load time — and share one `SharedDataset` between all sessions that
/// name the same spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Which benchmark dataset.
    pub id: DatasetId,
    /// Size multiplier.
    pub scale: Scale,
    /// Generator seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// Generates the split this spec describes (deterministic in the spec).
    pub fn generate(&self) -> Result<SplitDataset, DataError> {
        generate(self.id, self.scale, self.seed)
    }

    /// A hashable identity (the scale contributes its factor's bit
    /// pattern, so `Custom` multipliers key correctly despite `f64`).
    pub fn cache_key(&self) -> (DatasetId, u64, u64) {
        (self.id, self.scale.factor().to_bits(), self.seed)
    }
}

/// Generates dataset `id` at `scale`, deterministically in `seed`.
///
/// The returned split carries its [`DatasetSpec`] as
/// [`SplitDataset::provenance`], so any consumer — a serializable
/// scenario, the serving layer's spill files — can regenerate the
/// identical split from the split itself.
pub fn generate(id: DatasetId, scale: Scale, seed: u64) -> Result<SplitDataset, DataError> {
    let provenance = DatasetSpec { id, scale, seed };
    let f = scale.factor();
    if !(f > 0.0 && f <= 64.0) {
        return Err(DataError::InvalidSpec {
            reason: format!("scale factor {f} outside (0, 64]"),
        });
    }
    let (tr, va, te) = id.paper_sizes();
    // Floors keep evaluation meaningful: below ~150 test instances the
    // accuracy granularity swamps the method differences. Tiny scale keeps
    // small floors so unit tests stay fast.
    let (f_tr, f_va, f_te) = if scale.factor() < 0.1 {
        (120, 40, 40)
    } else {
        (600, 120, 150)
    };
    let (n_train, n_valid, n_test) = (
        scale.apply(tr, f_tr),
        scale.apply(va, f_va),
        scale.apply(te, f_te),
    );
    // Mix the dataset id into the seed so different datasets at the same
    // seed are independent draws.
    let seed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(id as u64 + 1);

    let mut split = match id {
        DatasetId::Youtube => generate_text(
            &TextSpec {
                name: id.name().into(),
                task: Task::SpamClassification,
                n_train,
                n_valid,
                n_test,
                class_balance: 0.5,
                n_signal_per_class: 60,
                signal_freq: (0.02, 0.12),
                leak: (0.05, 0.55),
                variants_per_signal: (1, 3),
                variant_activation: 0.75,
                n_background: 300,
                background_per_doc: (4, 10),
                label_noise: 0.04,
            },
            seed,
        ),
        DatasetId::Imdb => generate_text(
            &TextSpec {
                name: id.name().into(),
                task: Task::SentimentAnalysis,
                n_train,
                n_valid,
                n_test,
                class_balance: 0.5,
                n_signal_per_class: 100,
                signal_freq: (0.010, 0.070),
                leak: (0.15, 0.85),
                variants_per_signal: (1, 3),
                variant_activation: 0.75,
                n_background: 800,
                background_per_doc: (15, 40),
                label_noise: 0.13,
            },
            seed,
        ),
        DatasetId::Yelp => generate_text(
            &TextSpec {
                name: id.name().into(),
                task: Task::SentimentAnalysis,
                n_train,
                n_valid,
                n_test,
                class_balance: 0.5,
                n_signal_per_class: 100,
                signal_freq: (0.010, 0.070),
                leak: (0.20, 0.90),
                variants_per_signal: (1, 3),
                variant_activation: 0.75,
                n_background: 800,
                background_per_doc: (15, 40),
                label_noise: 0.15,
            },
            seed,
        ),
        DatasetId::Amazon => generate_text(
            &TextSpec {
                name: id.name().into(),
                task: Task::SentimentAnalysis,
                n_train,
                n_valid,
                n_test,
                class_balance: 0.5,
                n_signal_per_class: 100,
                signal_freq: (0.008, 0.060),
                leak: (0.30, 0.95),
                variants_per_signal: (1, 3),
                variant_activation: 0.75,
                n_background: 800,
                background_per_doc: (15, 40),
                label_noise: 0.20,
            },
            seed,
        ),
        DatasetId::BiosPT => generate_text(
            &TextSpec {
                name: id.name().into(),
                task: Task::BiographyClassification,
                n_train,
                n_valid,
                n_test,
                class_balance: 0.5,
                n_signal_per_class: 80,
                signal_freq: (0.015, 0.090),
                leak: (0.10, 0.70),
                variants_per_signal: (1, 3),
                variant_activation: 0.75,
                n_background: 600,
                background_per_doc: (10, 25),
                label_noise: 0.08,
            },
            seed,
        ),
        DatasetId::BiosJP => generate_text(
            &TextSpec {
                name: id.name().into(),
                task: Task::BiographyClassification,
                n_train,
                n_valid,
                n_test,
                class_balance: 0.5,
                n_signal_per_class: 80,
                signal_freq: (0.015, 0.100),
                leak: (0.08, 0.60),
                variants_per_signal: (1, 3),
                variant_activation: 0.75,
                n_background: 600,
                background_per_doc: (10, 25),
                label_noise: 0.06,
            },
            seed,
        ),
        DatasetId::Occupancy => generate_tabular(
            &TabularSpec {
                name: id.name().into(),
                task: Task::OccupancyPrediction,
                n_train,
                n_valid,
                n_test,
                class_balance: 0.5,
                // Light, CO2, temperature, humidity, humidity ratio — the
                // first two are nearly deterministic sensors in the real data.
                separations: vec![3.5, 2.8, 2.0, 1.2, 0.0],
                label_noise: 0.004,
            },
            seed,
        ),
        DatasetId::Census => generate_tabular(
            &TabularSpec {
                name: id.name().into(),
                task: Task::IncomeClassification,
                n_train,
                n_valid,
                n_test,
                class_balance: 0.24,
                separations: vec![1.2, 1.0, 0.9, 0.7, 0.5, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                label_noise: 0.10,
            },
            seed,
        ),
    }?;
    split.provenance = Some(provenance);
    Ok(split)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_cover_eight_datasets() {
        assert_eq!(DatasetId::all().len(), 8);
        assert_eq!(DatasetId::textual().len(), 6);
        assert!(DatasetId::textual().iter().all(|d| d.is_textual()));
        assert!(!DatasetId::Occupancy.is_textual());
    }

    #[test]
    fn paper_sizes_match_table2() {
        assert_eq!(DatasetId::Youtube.paper_sizes(), (1566, 195, 195));
        assert_eq!(DatasetId::Census.paper_sizes(), (25541, 3192, 3192));
        assert_eq!(DatasetId::BiosJP.paper_sizes(), (25808, 3225, 3225));
    }

    #[test]
    fn paper_alpha_per_modality() {
        assert_eq!(DatasetId::Imdb.paper_alpha(), 0.5);
        assert_eq!(DatasetId::Census.paper_alpha(), 0.99);
    }

    #[test]
    fn tiny_scale_generates_every_dataset() {
        for id in DatasetId::all() {
            let ds = generate(id, Scale::Tiny, 0).unwrap();
            assert_eq!(ds.name(), id.name());
            assert_eq!(ds.is_textual(), id.is_textual());
            assert!(ds.train.len() >= 120, "{}", id.name());
            ds.validate().unwrap();
        }
    }

    #[test]
    fn scale_factors() {
        assert_eq!(Scale::Paper.factor(), 1.0);
        assert!(Scale::Tiny.factor() < Scale::Reduced.factor());
        assert!(generate(DatasetId::Youtube, Scale::Custom(65.0), 0).is_err());
        assert!(generate(DatasetId::Youtube, Scale::Custom(0.0), 0).is_err());
    }

    #[test]
    fn upscaling_factors_grow_the_pool_past_paper_size() {
        let (paper_train, _, _) = DatasetId::Youtube.paper_sizes();
        let ds = generate(DatasetId::Youtube, Scale::Custom(2.0), 0).unwrap();
        assert_eq!(ds.train.len(), paper_train * 2);
        ds.validate().unwrap();
    }

    #[test]
    fn scale_equality_is_the_factor() {
        // A named scale and the equivalent custom multiplier generate the
        // same split, so they are the same provenance — equality and the
        // cache key must agree on that.
        assert_eq!(Scale::Reduced, Scale::Custom(0.2));
        assert_eq!(Scale::Paper, Scale::Custom(1.0));
        assert_ne!(Scale::Tiny, Scale::Reduced);
        let named = DatasetSpec {
            id: DatasetId::Youtube,
            scale: Scale::Reduced,
            seed: 7,
        };
        let custom = DatasetSpec {
            scale: Scale::Custom(0.2),
            ..named
        };
        assert_eq!(named, custom);
        assert_eq!(named.cache_key(), custom.cache_key());
    }

    #[test]
    fn different_datasets_same_seed_differ() {
        let a = generate(DatasetId::Imdb, Scale::Tiny, 7).unwrap();
        let b = generate(DatasetId::Yelp, Scale::Tiny, 7).unwrap();
        assert_ne!(a.train.labels, b.train.labels);
    }

    #[test]
    fn generated_splits_carry_their_provenance() {
        let spec = DatasetSpec {
            id: DatasetId::Yelp,
            scale: Scale::Tiny,
            seed: 11,
        };
        assert_eq!(spec.generate().unwrap().provenance, Some(spec));
        // And through the free function too.
        let split = generate(DatasetId::Occupancy, Scale::Tiny, 3).unwrap();
        assert_eq!(
            split.provenance,
            Some(DatasetSpec {
                id: DatasetId::Occupancy,
                scale: Scale::Tiny,
                seed: 3,
            })
        );
    }

    #[test]
    fn names_parse_back_through_fromstr() {
        for id in DatasetId::all() {
            assert_eq!(id.to_string().parse::<DatasetId>().unwrap(), id);
        }
        assert_eq!("bios-pt".parse::<DatasetId>().unwrap(), DatasetId::BiosPT);
        let err = "mnist".parse::<DatasetId>().unwrap_err();
        assert!(matches!(
            err,
            DataError::UnknownName {
                what: "dataset",
                ..
            }
        ));
        assert!(err.to_string().contains("Youtube"));

        assert_eq!("TINY".parse::<Scale>().unwrap(), Scale::Tiny);
        assert_eq!("x0.125".parse::<Scale>().unwrap(), Scale::Custom(0.125));
        assert_eq!(Scale::Custom(0.125).to_string(), "x0.125");
        assert_eq!("x2.0".parse::<Scale>().unwrap(), Scale::Custom(2.0));
        assert!("x65".parse::<Scale>().is_err());
        assert!("galactic".parse::<Scale>().is_err());
    }

    #[test]
    fn census_is_imbalanced() {
        let ds = generate(DatasetId::Census, Scale::Tiny, 3).unwrap();
        let b = ds.train.class_balance();
        assert!(b[0] > 0.6, "balance {:?}", b);
    }
}
