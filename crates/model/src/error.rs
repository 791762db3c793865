//! The workspace-wide error type.
//!
//! Every fallible public operation across the FairCrowd crates reports a
//! [`FaircrowdError`]: scenario-configuration problems, unknown policy
//! names from the registry, infeasible assignment outcomes, malformed
//! traces, and transparency-language diagnostics. One type means callers
//! — the `Pipeline`, the CLI, tests, sweeps — handle failures uniformly
//! with `?` instead of juggling per-crate `Vec<String>`, `Option` and
//! panic conventions.

use std::fmt;

/// Any error a FairCrowd operation can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaircrowdError {
    /// A scenario configuration is unusable (empty population, zero
    /// rounds, inconsistent campaign parameters, …).
    Config {
        /// What is wrong with the configuration.
        message: String,
    },
    /// A policy name did not resolve in the assignment-policy registry.
    UnknownPolicy {
        /// The name that failed to resolve.
        name: String,
        /// The names the registry does know.
        available: Vec<String>,
    },
    /// A scenario name did not resolve in the scenario catalog.
    UnknownScenario {
        /// The name that failed to resolve.
        name: String,
        /// The names the catalog does know.
        available: Vec<String>,
    },
    /// A strategy name did not resolve in the strategy registry.
    UnknownStrategy {
        /// The name that failed to resolve.
        name: String,
        /// The names the registry does know.
        available: Vec<String>,
    },
    /// An aggregator name did not resolve in the label-aggregator
    /// registry.
    UnknownAggregator {
        /// The name that failed to resolve.
        name: String,
        /// The names the registry does know.
        available: Vec<String>,
    },
    /// The strategy-convergence loop failed to reach a fixed point
    /// (iteration cap exceeded, or the controller state went non-finite).
    Diverged {
        /// What failed, with the residual and iteration count.
        message: String,
    },
    /// A policy produced an outcome violating the structural feasibility
    /// invariants (slot limits, capacities, qualification, visibility).
    InfeasibleAssignment {
        /// The offending policy's name.
        policy: String,
        /// Human-readable invariant violations.
        problems: Vec<String>,
    },
    /// A trace failed its internal well-formedness checks.
    InvalidTrace {
        /// Human-readable integrity violations.
        problems: Vec<String>,
    },
    /// A transparency-policy (TPL) diagnostic, already rendered.
    Lang {
        /// The rendered diagnostic.
        message: String,
    },
    /// Reading or writing a trace file failed at the filesystem level.
    Io {
        /// The path involved.
        path: String,
        /// The OS error, rendered.
        message: String,
    },
    /// A persisted file's contents could not be decoded: malformed
    /// JSON, a wrong schema name, an unsupported schema version, a field
    /// of the wrong shape, or state that fails an integrity check.
    Persist {
        /// The format being read.
        format: PersistFormat,
        /// The path involved (empty when decoding from memory).
        path: String,
        /// What was wrong, with enough context to find it.
        message: String,
    },
    /// The audit daemon cannot serve its market set: two trace files
    /// claim one market, or market streams failed during the run. Not
    /// a decode error: the daemon's own rule failed, or a market's
    /// error was already reported as it happened.
    Daemon {
        /// What went wrong, naming the markets involved.
        message: String,
    },
    /// The API or CLI was used incorrectly.
    Usage {
        /// What the caller got wrong.
        message: String,
    },
}

impl FaircrowdError {
    /// A [`FaircrowdError::Usage`] from anything displayable.
    pub fn usage(message: impl fmt::Display) -> Self {
        FaircrowdError::Usage {
            message: message.to_string(),
        }
    }

    /// A [`FaircrowdError::Diverged`] from anything displayable.
    pub fn diverged(message: impl fmt::Display) -> Self {
        FaircrowdError::Diverged {
            message: message.to_string(),
        }
    }

    /// A [`FaircrowdError::Daemon`] from anything displayable.
    pub fn daemon(message: impl fmt::Display) -> Self {
        FaircrowdError::Daemon {
            message: message.to_string(),
        }
    }

    /// A [`FaircrowdError::Persist`] reading a trace, with no path
    /// (in-memory decoding); see [`FaircrowdError::reading`] for the
    /// other formats.
    pub fn persist(message: impl fmt::Display) -> Self {
        FaircrowdError::Persist {
            format: PersistFormat::Trace,
            path: String::new(),
            message: message.to_string(),
        }
    }

    /// Name the format a decode error was reading, so a decoder nested
    /// in another format — a checkpoint's embedded trace — is reported
    /// as the outer file.
    pub fn reading(self, format: PersistFormat) -> Self {
        match self {
            FaircrowdError::Persist { path, message, .. } => FaircrowdError::Persist {
                format,
                path,
                message,
            },
            other => other,
        }
    }

    /// Attach (or replace) the file path on I/O and decode errors, so
    /// the loader can report *which* file was bad without every decoder
    /// threading a path through.
    pub fn at_path(self, path: impl fmt::Display) -> Self {
        match self {
            FaircrowdError::Persist {
                format, message, ..
            } => FaircrowdError::Persist {
                format,
                path: path.to_string(),
                message,
            },
            FaircrowdError::Io { message, .. } => FaircrowdError::Io {
                path: path.to_string(),
                message,
            },
            other => other,
        }
    }
}

/// The persisted format a [`FaircrowdError::Persist`] was reading. One
/// byte, so naming it leaves the error type no larger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistFormat {
    /// A trace file, in any of its spellings.
    Trace,
    /// A checkpoint body, in its own file or as a journal record.
    Checkpoint,
    /// A sweep part file.
    SweepPart,
}

impl fmt::Display for PersistFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PersistFormat::Trace => "trace",
            PersistFormat::Checkpoint => "checkpoint",
            PersistFormat::SweepPart => "sweep part",
        })
    }
}

impl fmt::Display for FaircrowdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaircrowdError::Config { message } => {
                write!(f, "invalid scenario configuration: {message}")
            }
            FaircrowdError::UnknownPolicy { name, available } => {
                write!(
                    f,
                    "unknown policy `{name}`; available: {}",
                    available.join(", ")
                )
            }
            FaircrowdError::UnknownScenario { name, available } => {
                write!(
                    f,
                    "unknown scenario `{name}`; available: {}",
                    available.join(", ")
                )
            }
            FaircrowdError::UnknownStrategy { name, available } => {
                write!(
                    f,
                    "unknown strategy `{name}`; available: {}",
                    available.join(", ")
                )
            }
            FaircrowdError::UnknownAggregator { name, available } => {
                write!(
                    f,
                    "unknown aggregator `{name}`; available: {}",
                    available.join(", ")
                )
            }
            FaircrowdError::Diverged { message } => {
                write!(f, "strategy convergence failed: {message}")
            }
            FaircrowdError::InfeasibleAssignment { policy, problems } => {
                write!(
                    f,
                    "policy `{policy}` produced an infeasible outcome: {}",
                    problems.join("; ")
                )
            }
            FaircrowdError::InvalidTrace { problems } => {
                write!(f, "trace failed validation: {}", problems.join("; "))
            }
            FaircrowdError::Io { path, message } => {
                write!(f, "cannot access trace file `{path}`: {message}")
            }
            FaircrowdError::Persist {
                format,
                path,
                message,
            } => {
                if path.is_empty() {
                    write!(f, "cannot decode {format}: {message}")
                } else {
                    write!(f, "cannot decode {format} file `{path}`: {message}")
                }
            }
            FaircrowdError::Daemon { message } => write!(f, "audit daemon: {message}"),
            FaircrowdError::Lang { message } => write!(f, "{message}"),
            FaircrowdError::Usage { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for FaircrowdError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FaircrowdError::UnknownPolicy {
            name: "magic".into(),
            available: vec!["round_robin".into(), "kos".into()],
        };
        let text = e.to_string();
        assert!(text.contains("magic"));
        assert!(text.contains("round_robin"));

        let e = FaircrowdError::InfeasibleAssignment {
            policy: "kos".into(),
            problems: vec!["w0 over capacity".into()],
        };
        assert!(e.to_string().contains("kos"));
        assert!(e.to_string().contains("over capacity"));
    }

    #[test]
    fn a_decode_error_names_the_format_it_was_reading() {
        let e = FaircrowdError::persist("bad byte");
        assert_eq!(e.to_string(), "cannot decode trace: bad byte");
        // The outer format wins, and a path attached later keeps it.
        let e = e.reading(PersistFormat::Checkpoint).at_path("m.journal");
        assert_eq!(
            e.to_string(),
            "cannot decode checkpoint file `m.journal`: bad byte"
        );
        let e = FaircrowdError::usage("nope").reading(PersistFormat::Checkpoint);
        assert_eq!(e.to_string(), "nope");
    }

    #[test]
    fn is_a_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&FaircrowdError::usage("nope"));
    }
}
