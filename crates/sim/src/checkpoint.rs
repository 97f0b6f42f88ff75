//! Versioned campaign checkpoints: kill a multi-hour run at any trial
//! boundary and resume it to **bit-identical** aggregates.
//!
//! A checkpoint is one JSON object holding the campaign identity (a
//! fingerprint of config + source + policy + trial plan), the CLI
//! arguments that launched it, and every finished trial's full
//! [`TrialOutcome`] — floats encoded as 16-hex-digit bit patterns so the
//! round trip is exact even for the NaN slots in unrecorded snapshot
//! bins. Writes go through [`impatience_obs::AtomicFile`]
//! (write-temp-then-rename), so a crash mid-checkpoint leaves the
//! previous checkpoint intact, never a torn file.
//!
//! Per-trial RNG streams need no state in the file: trial `k` always
//! seeds from `base_seed + k`, so "the RNG stream of an unfinished
//! trial" is just its index. The work-stealing cursor is likewise
//! recovered as the set of indices not yet in `completed`.

// It reads files from disk: no `unwrap`/`expect` outside tests, as in the
// crates that face I/O.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

use impatience_core::fnv::{fnv, FNV_OFFSET};
use impatience_json::Json;
use impatience_obs::AtomicFile;

use crate::config::{ContactSource, SimConfig};
use crate::engine::TrialOutcome;
use crate::metrics::{f64_to_hex, Metrics};
use crate::policy::PolicyKind;

/// The checkpoint schema this build reads and writes.
const CHECKPOINT_SCHEMA: &str = "impatience-checkpoint/1";

/// Why a checkpoint could not be read, written, or matched to the
/// campaign being resumed.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io {
        /// The checkpoint path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file exists but does not decode as a checkpoint.
    Parse {
        /// The checkpoint path.
        path: PathBuf,
        /// What failed.
        message: String,
    },
    /// The file is a checkpoint of an unsupported schema version.
    Version {
        /// The schema string found in the file.
        found: String,
    },
    /// The checkpoint belongs to a different campaign.
    Mismatch {
        /// Which identity field disagrees.
        field: &'static str,
        /// The resuming campaign's value.
        expected: String,
        /// The checkpoint's value.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint {}: {source}", path.display())
            }
            CheckpointError::Parse { path, message } => {
                write!(f, "checkpoint {}: {message}", path.display())
            }
            CheckpointError::Version { found } => write!(
                f,
                "unsupported checkpoint schema {found:?} (this build reads {CHECKPOINT_SCHEMA:?})"
            ),
            CheckpointError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint belongs to a different campaign: {field} is {found:?}, \
                 resuming run has {expected:?}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Campaign identity: a human-readable digest of everything that shapes
/// trial trajectories. Two campaigns with equal fingerprints produce
/// bit-identical trials for equal `(base_seed, trial index)`.
pub fn fingerprint(
    config: &SimConfig,
    source: &ContactSource,
    policy: &PolicyKind,
    trials: usize,
    base_seed: u64,
) -> String {
    let src = match source {
        ContactSource::Homogeneous {
            nodes,
            mu,
            duration,
        } => format!(
            "hom(n={nodes},mu={},T={})",
            f64_to_hex(*mu),
            f64_to_hex(*duration)
        ),
        ContactSource::Trace(t) => format!(
            "trace(n={},T={},len={})",
            t.nodes(),
            f64_to_hex(t.duration()),
            t.len()
        ),
    };
    let faults = config
        .faults
        .as_ref()
        .map_or("none".to_string(), |f| f.summary());
    format!(
        "{}|trials={trials}|seed={base_seed}|items={}|rho={}|bin={}|warmup={}|util={}|\
         servers={:?}|shifts={}|src={src}|faults={faults}|inputs={:016x}",
        policy.label(),
        config.items,
        config.rho,
        f64_to_hex(config.bin),
        f64_to_hex(config.warmup_fraction),
        config.utility.kind(),
        config.dedicated_servers,
        config.demand_shifts.len(),
        inputs_digest(config, policy),
    )
}

/// FNV-1a over the trial inputs the readable fields leave out: the demand
/// rates and profile, each shift's time and rates, the eviction rule, the
/// protocol utility and the policy's parameters (QCR's knobs, a pinned
/// allocation's counts). `Debug` prints a float in its shortest
/// round-trip form, so two inputs print alike only if their bits agree.
fn inputs_digest(config: &SimConfig, policy: &PolicyKind) -> u64 {
    let pinned = match policy {
        PolicyKind::Static { counts, .. } => Some(counts),
        _ => None,
    };
    let inputs = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        config.demand,
        config.profile,
        config.demand_shifts,
        config.eviction,
        config.protocol_utility,
        policy.qcr_config(),
        pinned,
    );
    inputs.bytes().fold(FNV_OFFSET, |h, b| fnv(h, b.into()))
}

/// One finished trial in a checkpoint: the outcome, or the panic message
/// of a trial the runner skipped-and-reported.
pub type TrialRecord = Result<TrialOutcome, String>;

/// A campaign snapshot: identity plus every completed trial.
#[derive(Debug)]
pub struct CampaignCheckpoint {
    /// Campaign identity (see [`fingerprint`]).
    pub fingerprint: String,
    /// Seed of trial 0; trial `k` uses `base_seed + k`.
    pub base_seed: u64,
    /// Total planned trials.
    pub trials: usize,
    /// The CLI invocation that launched the campaign (`--resume` replays
    /// it).
    pub cli_args: Vec<String>,
    /// `(trial index, outcome-or-error)`, in trial order.
    pub completed: Vec<(usize, TrialRecord)>,
}

fn outcome_to_json(outcome: &TrialOutcome) -> Json {
    Json::obj([
        ("label", Json::from(outcome.label.as_str())),
        (
            "final_replicas",
            Json::Array(outcome.final_replicas.iter().map(|&r| r.into()).collect()),
        ),
        ("metrics", outcome.metrics.to_json()),
    ])
}

fn outcome_from_json(v: &Json) -> Result<TrialOutcome, String> {
    let label = v
        .get("label")
        .and_then(Json::as_str)
        .ok_or("trial outcome: missing label")?
        .to_string();
    let final_replicas = v
        .get("final_replicas")
        .and_then(Json::as_array)
        .ok_or("trial outcome: missing final_replicas")?
        .iter()
        .map(|e| {
            e.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| "trial outcome: bad replica count".to_string())
        })
        .collect::<Result<Vec<u32>, String>>()?;
    let metrics = Metrics::from_json(v.get("metrics").ok_or("trial outcome: missing metrics")?)?;
    Ok(TrialOutcome {
        metrics,
        final_replicas,
        label,
    })
}

impl CampaignCheckpoint {
    /// Encode as the one-object JSON document [`CampaignCheckpoint::save`]
    /// writes.
    pub fn to_json(&self) -> Json {
        let completed = self
            .completed
            .iter()
            .map(|(trial, record)| match record {
                Ok(outcome) => Json::obj([
                    ("trial", Json::from(*trial as u64)),
                    ("outcome", outcome_to_json(outcome)),
                ]),
                Err(message) => Json::obj([
                    ("trial", Json::from(*trial as u64)),
                    ("error", Json::from(message.as_str())),
                ]),
            })
            .collect();
        Json::obj([
            ("schema", Json::from(CHECKPOINT_SCHEMA)),
            ("fingerprint", self.fingerprint.as_str().into()),
            ("base_seed", self.base_seed.into()),
            ("trials", (self.trials as u64).into()),
            (
                "cli_args",
                Json::Array(self.cli_args.iter().map(|a| a.as_str().into()).collect()),
            ),
            ("completed", Json::Array(completed)),
        ])
    }

    /// Decode [`CampaignCheckpoint::to_json`]'s output.
    pub fn from_json(v: &Json) -> Result<CampaignCheckpoint, String> {
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema field")?;
        if schema != CHECKPOINT_SCHEMA {
            // Surfaced as CheckpointError::Version by `load`.
            return Err(format!("schema:{schema}"));
        }
        let fingerprint = v
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or("missing fingerprint")?
            .to_string();
        let base_seed = v
            .get("base_seed")
            .and_then(Json::as_u64)
            .ok_or("missing base_seed")?;
        let trials = v
            .get("trials")
            .and_then(Json::as_u64)
            .ok_or("missing trials")? as usize;
        let cli_args = v
            .get("cli_args")
            .and_then(Json::as_array)
            .ok_or("missing cli_args")?
            .iter()
            .map(|a| {
                a.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "non-string cli arg".to_string())
            })
            .collect::<Result<Vec<String>, String>>()?;
        let mut completed = Vec::new();
        for entry in v
            .get("completed")
            .and_then(Json::as_array)
            .ok_or("missing completed list")?
        {
            let trial = entry
                .get("trial")
                .and_then(Json::as_u64)
                .ok_or("completed entry: missing trial index")? as usize;
            if trial >= trials {
                return Err(format!("completed trial {trial} out of range 0..{trials}"));
            }
            let record = if let Some(outcome) = entry.get("outcome") {
                Ok(outcome_from_json(outcome)?)
            } else if let Some(error) = entry.get("error").and_then(Json::as_str) {
                Err(error.to_string())
            } else {
                return Err(format!(
                    "completed trial {trial}: neither outcome nor error"
                ));
            };
            if completed
                .iter()
                .any(|(existing, _): &(usize, TrialRecord)| *existing == trial)
            {
                return Err(format!("completed trial {trial} listed twice"));
            }
            completed.push((trial, record));
        }
        completed.sort_by_key(|(trial, _)| *trial);
        Ok(CampaignCheckpoint {
            fingerprint,
            base_seed,
            trials,
            cli_args,
            completed,
        })
    }

    /// Write atomically to `path` (temp file + rename): the previous
    /// checkpoint survives any crash mid-write.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let io_err = |source| CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        };
        let mut file = AtomicFile::create(path).map_err(io_err)?;
        let mut text = self.to_json().to_string();
        text.push('\n');
        file.write_all(text.as_bytes()).map_err(io_err)?;
        file.commit().map_err(io_err)
    }

    /// Read and decode the checkpoint at `path`.
    pub fn load(path: &Path) -> Result<CampaignCheckpoint, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|source| CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let parse_err = |message: String| CheckpointError::Parse {
            path: path.to_path_buf(),
            message,
        };
        let v = Json::parse(text.trim()).map_err(|e| parse_err(format!("not valid JSON: {e}")))?;
        CampaignCheckpoint::from_json(&v).map_err(|message| match message.strip_prefix("schema:") {
            Some(found) => CheckpointError::Version {
                found: found.to_string(),
            },
            None => parse_err(message),
        })
    }

    /// Check that this checkpoint belongs to the campaign identified by
    /// `(fingerprint, trials, base_seed)`.
    pub fn check_identity(
        &self,
        fingerprint: &str,
        trials: usize,
        base_seed: u64,
    ) -> Result<(), CheckpointError> {
        if self.fingerprint != fingerprint {
            return Err(CheckpointError::Mismatch {
                field: "fingerprint",
                expected: fingerprint.to_string(),
                found: self.fingerprint.clone(),
            });
        }
        if self.trials != trials {
            return Err(CheckpointError::Mismatch {
                field: "trials",
                expected: trials.to_string(),
                found: self.trials.to_string(),
            });
        }
        if self.base_seed != base_seed {
            return Err(CheckpointError::Mismatch {
                field: "base_seed",
                expected: base_seed.to_string(),
                found: self.base_seed.to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_trial;
    use crate::policy::QcrConfig;
    use crate::state::EvictionPolicy;
    use impatience_core::allocation::ReplicaCounts;
    use impatience_core::demand::{DemandProfile, Popularity};
    use impatience_core::utility::{DelayUtility, Step};
    use std::sync::Arc;

    fn setup() -> (SimConfig, ContactSource) {
        let config = SimConfig::builder(6, 2)
            .demand(Popularity::pareto(6, 1.0).demand_rates(0.5))
            .utility(Arc::new(Step::new(10.0)))
            .bin(100.0)
            .build();
        let source = ContactSource::homogeneous(6, 0.08, 600.0);
        (config, source)
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("impatience-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn outcome_round_trip_is_bit_exact() {
        let (config, source) = setup();
        let outcome = run_trial(&config, &source, PolicyKind::qcr_default(), 5);
        let back = outcome_from_json(&outcome_to_json(&outcome)).unwrap();
        assert_eq!(back.label, outcome.label);
        assert_eq!(back.final_replicas, outcome.final_replicas);
        assert_eq!(
            back.metrics.average_observed_rate(0.2).to_bits(),
            outcome.metrics.average_observed_rate(0.2).to_bits()
        );
        assert_eq!(
            back.metrics.observed_rate_series(),
            outcome.metrics.observed_rate_series()
        );
    }

    #[test]
    fn save_load_round_trip_via_text() {
        let (config, source) = setup();
        let policy = PolicyKind::qcr_default();
        let outcome = run_trial(&config, &source, policy.clone(), 9);
        let ckpt = CampaignCheckpoint {
            fingerprint: fingerprint(&config, &source, &policy, 4, 9),
            base_seed: 9,
            trials: 4,
            cli_args: vec!["simulate".into(), "--trials".into(), "4".into()],
            completed: vec![(0, Ok(outcome)), (2, Err("boom".into()))],
        };
        let path = scratch("roundtrip.ckpt.json");
        ckpt.save(&path).unwrap();
        let back = CampaignCheckpoint::load(&path).unwrap();
        assert_eq!(back.fingerprint, ckpt.fingerprint);
        assert_eq!(back.base_seed, 9);
        assert_eq!(back.trials, 4);
        assert_eq!(back.cli_args, ckpt.cli_args);
        assert_eq!(back.completed.len(), 2);
        assert!(back.completed[0].1.is_ok());
        assert_eq!(back.completed[1].0, 2);
        assert_eq!(back.completed[1].1.as_ref().unwrap_err(), "boom");
        back.check_identity(&ckpt.fingerprint, 4, 9).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage_wrong_schema_and_mismatches() {
        let path = scratch("garbage.ckpt.json");
        std::fs::write(&path, "not json at all").unwrap();
        assert!(matches!(
            CampaignCheckpoint::load(&path),
            Err(CheckpointError::Parse { .. })
        ));
        std::fs::write(
            &path,
            r#"{"schema":"impatience-checkpoint/99","fingerprint":"x","base_seed":0,"trials":1,"cli_args":[],"completed":[]}"#,
        )
        .unwrap();
        assert!(matches!(
            CampaignCheckpoint::load(&path),
            Err(CheckpointError::Version { found }) if found == "impatience-checkpoint/99"
        ));
        assert!(matches!(
            CampaignCheckpoint::load(Path::new("/nonexistent/nope.ckpt")),
            Err(CheckpointError::Io { .. })
        ));

        let ckpt = CampaignCheckpoint {
            fingerprint: "A".into(),
            base_seed: 1,
            trials: 2,
            cli_args: vec![],
            completed: vec![],
        };
        assert!(matches!(
            ckpt.check_identity("B", 2, 1),
            Err(CheckpointError::Mismatch {
                field: "fingerprint",
                ..
            })
        ));
        assert!(matches!(
            ckpt.check_identity("A", 3, 1),
            Err(CheckpointError::Mismatch {
                field: "trials",
                ..
            })
        ));
        assert!(matches!(
            ckpt.check_identity("A", 2, 7),
            Err(CheckpointError::Mismatch {
                field: "base_seed",
                ..
            })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_separates_campaigns() {
        let (config, source) = setup();
        let policy = PolicyKind::qcr_default();
        let base = fingerprint(&config, &source, &policy, 10, 1);
        assert_eq!(base, fingerprint(&config, &source, &policy, 10, 1));
        assert_ne!(base, fingerprint(&config, &source, &policy, 11, 1));
        assert_ne!(base, fingerprint(&config, &source, &policy, 10, 2));
        let mut degraded = config.clone();
        degraded.faults = Some(crate::faults::FaultConfig {
            drop: Some(crate::faults::ContactDrop {
                p: 0.1,
                mean_burst: 1.0,
            }),
            ..Default::default()
        });
        assert_ne!(base, fingerprint(&degraded, &source, &policy, 10, 1));

        // Inputs with no readable field of their own, one at a time.
        let edited = |edit: &dyn Fn(&mut SimConfig)| {
            let mut c = config.clone();
            edit(&mut c);
            fingerprint(&c, &source, &policy, 10, 1)
        };
        let rates = |omega: f64| Popularity::pareto(6, omega).demand_rates(0.5);
        assert_ne!(base, edited(&|c| c.demand = rates(2.0)), "ω");
        assert_ne!(
            edited(&|c| c.profile = DemandProfile::uniform(6, 6)),
            edited(&|c| c.profile = DemandProfile::clustered(6, 6, 2, 3.0)),
            "profile"
        );
        let shifted = edited(&|c| c.demand_shifts = vec![(300.0, rates(0.5))]);
        let later = edited(&|c| c.demand_shifts = vec![(400.0, rates(0.5))]);
        let steeper = edited(&|c| c.demand_shifts = vec![(300.0, rates(0.7))]);
        assert_ne!(shifted, later, "shift time");
        assert_ne!(shifted, steeper, "shift rates");
        assert_ne!(
            base,
            edited(&|c| c.eviction = EvictionPolicy::Lru),
            "eviction"
        );
        let believed: Arc<dyn DelayUtility> = Arc::new(Step::new(20.0));
        let protocol = edited(&|c| c.protocol_utility = Some(believed.clone()));
        assert_ne!(base, protocol, "protocol utility");
        let capped = PolicyKind::Qcr(QcrConfig {
            mandate_cap: 5,
            ..QcrConfig::default()
        });
        assert_eq!(capped.label(), policy.label());
        let capped = fingerprint(&config, &source, &capped, 10, 1);
        assert_ne!(base, capped, "QCR knobs");
        let pinned = |counts: Vec<u32>| {
            let policy = PolicyKind::Static {
                label: "OPT",
                counts: ReplicaCounts::new(counts, 6),
            };
            fingerprint(&config, &source, &policy, 10, 1)
        };
        assert_ne!(
            pinned(vec![2; 6]),
            pinned(vec![3, 3, 2, 2, 1, 1]),
            "pinned counts"
        );
    }
}
