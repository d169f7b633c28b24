//! The flags `spgemm` and `spgemm trace` share: which matrix to square
//! (a dataset analogue or a Matrix Market file, at which scale), which
//! algorithm on which device model in which precision, and the
//! proposal's planner options. Each command parses its own flags and
//! hands the rest to [`RunArgs::parse_flag`].

use baselines::Algorithm;
use nsparse_core::{AlgorithmPolicy, Estimator, Options};
use sparse::{Csr, Scalar};
use vgpu::DeviceConfig;

/// Parsed shared flags, with the command's usage printer for errors.
pub struct RunArgs {
    pub dataset: Option<String>,
    pub matrix: Option<String>,
    pub algorithm: Algorithm,
    pub precision: String,
    pub device: String,
    pub tiny: bool,
    pub estimator: Estimator,
    pub policy: AlgorithmPolicy,
    usage: fn() -> !,
}

impl RunArgs {
    /// Defaults: the proposal in single precision on a P100 at Repro
    /// scale, exact estimator, hash-only policy. `usage` prints the
    /// command's usage and exits.
    pub fn new(usage: fn() -> !) -> Self {
        RunArgs {
            dataset: None,
            matrix: None,
            algorithm: Algorithm::Proposal,
            precision: "f32".into(),
            device: "p100".into(),
            tiny: false,
            estimator: Estimator::Exact,
            policy: AlgorithmPolicy::HashOnly,
            usage,
        }
    }

    /// Take `flag`, and its value from `it`, if it is a shared flag;
    /// `false` for any other flag. A bad value prints usage and exits.
    pub fn parse_flag(&mut self, flag: &str, it: &mut dyn Iterator<Item = String>) -> bool {
        let usage = self.usage;
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag {
            "--dataset" => self.dataset = Some(value()),
            "--matrix" => self.matrix = Some(value()),
            "--algorithm" => {
                self.algorithm = match value().to_ascii_lowercase().as_str() {
                    "proposal" | "nsparse" => Algorithm::Proposal,
                    "cusparse" => Algorithm::Cusparse,
                    "cusp" | "esc" => Algorithm::Cusp,
                    "bhsparse" => Algorithm::Bhsparse,
                    other => {
                        eprintln!("unknown algorithm '{other}'");
                        usage()
                    }
                }
            }
            "--precision" => self.precision = value().to_ascii_lowercase(),
            "--device" => self.device = value().to_ascii_lowercase(),
            "--tiny" => self.tiny = true,
            "--estimator" => {
                let spec = value();
                self.estimator = Estimator::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("bad --estimator '{spec}': {e}");
                    usage()
                });
            }
            "--policy" => {
                let spec = value();
                self.policy = AlgorithmPolicy::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("bad --policy '{spec}': {e}");
                    usage()
                });
            }
            _ => return false,
        }
        true
    }

    /// Check the shared constraints once every flag is parsed: exactly
    /// one input, a known precision, and planner flags only with the
    /// proposal.
    pub fn validate(&self) {
        if self.dataset.is_none() == self.matrix.is_none() {
            eprintln!("exactly one of --dataset / --matrix is required");
            (self.usage)();
        }
        if !matches!(self.precision.as_str(), "f32" | "f64") {
            eprintln!("precision must be f32 or f64");
            (self.usage)();
        }
        if (self.estimator != Estimator::Exact || self.policy != AlgorithmPolicy::HashOnly)
            && self.algorithm != Algorithm::Proposal
        {
            eprintln!("--estimator / --policy need --algorithm proposal (baselines plan exactly)");
            (self.usage)();
        }
    }

    /// Multiply options for the proposal pipeline, from the planner flags.
    pub fn opts(&self) -> Options {
        Options { estimator: self.estimator, policy: self.policy, ..Options::default() }
    }

    /// The device model `--device` names; exits 2 on an unknown name.
    pub fn device_config(&self) -> DeviceConfig {
        match self.device.as_str() {
            "p100" => DeviceConfig::p100(),
            "v100" => DeviceConfig::v100(),
            "vega64" => DeviceConfig::vega64(),
            other => {
                eprintln!("unknown device '{other}' (p100, v100, vega64)");
                std::process::exit(2);
            }
        }
    }

    /// Generate the dataset analogue or read the Matrix Market file;
    /// exits 1 when the file cannot be read.
    pub fn load<T: Scalar>(&self) -> Csr<T> {
        if let Some(name) = &self.dataset {
            let d = matgen::by_name(name).unwrap_or_else(|| {
                eprintln!("unknown dataset '{name}'");
                (self.usage)()
            });
            let scale = if self.tiny { matgen::Scale::Tiny } else { matgen::Scale::Repro };
            eprintln!("generating '{}' ({:?} scale)...", d.name, scale);
            d.generate::<T>(scale)
        } else {
            let path = self.matrix.as_ref().unwrap();
            eprintln!("reading {path}...");
            sparse::io::read_matrix_market_file::<T>(path).unwrap_or_else(|e| {
                eprintln!("failed to read {path}: {e}");
                std::process::exit(1);
            })
        }
    }
}
