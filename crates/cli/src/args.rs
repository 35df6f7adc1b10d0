//! Hand-rolled command-line parsing for the `disc` binary.
//!
//! No external argument-parsing dependency: four verbs, `--flag value`
//! pairs, every mistake a [`CliError::Usage`] (exit code 2) whose
//! message names the offending flag.

use std::path::PathBuf;

use crate::error::CliError;

/// The `disc --help` text.
pub const USAGE: &str = "\
disc — DisC diversity snapshots: build, query, serve, triage

USAGE:
    disc build  --out <path> [--n <int>] [--dim <int>] [--clusters <int>]
                [--seed <int>] [--radius <float>] [--uniform]
                [--shards <int>]
    disc zoom   --snapshot <path> (--radius <float> | --radii <r1,r2,...>)
                [--deadline-ms <int>]
    disc serve  --snapshot <path> [--workers <int>] [--queue <int>]
                [--cache <int>]
    disc doctor --snapshot <path>

EXIT CODES:
    0 ok   2 usage   3 corrupt snapshot   4 i/o   5 graph
    6 dataset   7 self-join   8 deadline cancelled   9 overloaded
";

/// `disc build`: generate a dataset, build the graph, write a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildArgs {
    /// Snapshot output path.
    pub out: PathBuf,
    /// Number of points.
    pub n: usize,
    /// Dimensions per point.
    pub dim: usize,
    /// Cluster count for the clustered generator.
    pub clusters: usize,
    /// RNG seed.
    pub seed: u64,
    /// Graph materialisation radius (`r_max`).
    pub radius: f64,
    /// Use the uniform generator instead of the clustered one.
    pub uniform: bool,
    /// Spatial shard count for the sharded build pipeline, by default
    /// [`disc_core::DEFAULT_SHARDS`]. The snapshot is byte-identical at
    /// every count; the shards' joins are the build's parallel tasks,
    /// so 1 builds with one join on one worker.
    pub shards: usize,
}

/// `disc zoom`: one-shot solve against a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoomArgs {
    /// Snapshot to open.
    pub snapshot: PathBuf,
    /// Radii to solve, strictly descending when more than one.
    pub radii: Vec<f64>,
    /// Optional deadline for the whole solve.
    pub deadline_ms: Option<u64>,
}

/// `disc serve`: the worker pool over stdin/stdout.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Snapshot to open.
    pub snapshot: PathBuf,
    /// Worker threads.
    pub workers: usize,
    /// Admission queue slots.
    pub queue: usize,
    /// Per-radius cache capacity.
    pub cache: usize,
}

/// `disc doctor`: triage a possibly-damaged snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct DoctorArgs {
    /// Snapshot to inspect.
    pub snapshot: PathBuf,
}

/// A fully parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `disc build`
    Build(BuildArgs),
    /// `disc zoom`
    Zoom(ZoomArgs),
    /// `disc serve`
    Serve(ServeArgs),
    /// `disc doctor`
    Doctor(DoctorArgs),
    /// `disc help` / `--help`
    Help,
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Splits `args` into `--flag value` pairs (plus bare `--uniform`),
/// rejecting anything else.
struct Flags<'a> {
    pairs: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String], bare: &[&str]) -> Result<Self, CliError> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if !flag.starts_with("--") {
                return Err(usage(format!("expected a --flag, got {flag:?}")));
            }
            if bare.contains(&flag) {
                pairs.push((flag, None));
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| usage(format!("{flag} needs a value")))?;
            pairs.push((flag, Some(value.as_str())));
            i += 2;
        }
        Ok(Self { pairs })
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), CliError> {
        for (flag, _) in &self.pairs {
            if !known.contains(flag) {
                return Err(usage(format!("unknown flag {flag}")));
            }
        }
        Ok(())
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.pairs
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| *v)
    }

    fn present(&self, flag: &str) -> bool {
        self.pairs.iter().any(|(f, _)| *f == flag)
    }

    fn required(&self, flag: &str) -> Result<&'a str, CliError> {
        self.value(flag)
            .ok_or_else(|| usage(format!("{flag} is required")))
    }
}

fn parse_usize(flag: &str, value: &str) -> Result<usize, CliError> {
    value.parse().map_err(|_| {
        usage(format!(
            "{flag} must be a non-negative integer, got {value:?}"
        ))
    })
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, CliError> {
    value.parse().map_err(|_| {
        usage(format!(
            "{flag} must be a non-negative integer, got {value:?}"
        ))
    })
}

fn parse_f64(flag: &str, value: &str) -> Result<f64, CliError> {
    let parsed: f64 = value
        .parse()
        .map_err(|_| usage(format!("{flag} must be a number, got {value:?}")))?;
    if !parsed.is_finite() {
        return Err(usage(format!("{flag} must be finite, got {value:?}")));
    }
    Ok(parsed)
}

/// Parses the argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let verb = match args.first() {
        None => return Ok(Command::Help),
        Some(v) => v.as_str(),
    };
    let rest = &args[1..];
    match verb {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "build" => {
            let flags = Flags::parse(rest, &["--uniform"])?;
            flags.reject_unknown(&[
                "--out",
                "--n",
                "--dim",
                "--clusters",
                "--seed",
                "--radius",
                "--uniform",
                "--shards",
            ])?;
            Ok(Command::Build(BuildArgs {
                out: PathBuf::from(flags.required("--out")?),
                n: match flags.value("--n") {
                    Some(v) => parse_usize("--n", v)?,
                    None => 2000,
                },
                dim: match flags.value("--dim") {
                    Some(v) => parse_usize("--dim", v)?,
                    None => 2,
                },
                clusters: match flags.value("--clusters") {
                    Some(v) => parse_usize("--clusters", v)?,
                    None => 5,
                },
                seed: match flags.value("--seed") {
                    Some(v) => parse_u64("--seed", v)?,
                    None => 42,
                },
                radius: match flags.value("--radius") {
                    Some(v) => parse_f64("--radius", v)?,
                    None => 0.1,
                },
                uniform: flags.present("--uniform"),
                shards: match flags.value("--shards") {
                    Some(v) => {
                        let shards = parse_usize("--shards", v)?;
                        if shards == 0 {
                            return Err(usage("--shards must be at least 1"));
                        }
                        shards
                    }
                    None => disc_core::DEFAULT_SHARDS,
                },
            }))
        }
        "zoom" => {
            let flags = Flags::parse(rest, &[])?;
            flags.reject_unknown(&["--snapshot", "--radius", "--radii", "--deadline-ms"])?;
            let radii = match (flags.value("--radius"), flags.value("--radii")) {
                (Some(_), Some(_)) => {
                    return Err(usage("--radius and --radii are mutually exclusive"))
                }
                (Some(r), None) => vec![parse_f64("--radius", r)?],
                (None, Some(list)) => list
                    .split(',')
                    .map(|part| parse_f64("--radii", part))
                    .collect::<Result<Vec<f64>, CliError>>()?,
                (None, None) => return Err(usage("zoom needs --radius or --radii")),
            };
            Ok(Command::Zoom(ZoomArgs {
                snapshot: PathBuf::from(flags.required("--snapshot")?),
                radii,
                deadline_ms: match flags.value("--deadline-ms") {
                    Some(v) => Some(parse_u64("--deadline-ms", v)?),
                    None => None,
                },
            }))
        }
        "serve" => {
            let flags = Flags::parse(rest, &[])?;
            flags.reject_unknown(&["--snapshot", "--workers", "--queue", "--cache"])?;
            Ok(Command::Serve(ServeArgs {
                snapshot: PathBuf::from(flags.required("--snapshot")?),
                workers: match flags.value("--workers") {
                    Some(v) => parse_usize("--workers", v)?.max(1),
                    None => 4,
                },
                queue: match flags.value("--queue") {
                    Some(v) => parse_usize("--queue", v)?.max(1),
                    None => 16,
                },
                cache: match flags.value("--cache") {
                    Some(v) => parse_usize("--cache", v)?,
                    None => 16,
                },
            }))
        }
        "doctor" => {
            let flags = Flags::parse(rest, &[])?;
            flags.reject_unknown(&["--snapshot"])?;
            Ok(Command::Doctor(DoctorArgs {
                snapshot: PathBuf::from(flags.required("--snapshot")?),
            }))
        }
        other => Err(usage(format!(
            "unknown verb {other:?}; verbs are build, zoom, serve, doctor"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn zoom_parses_radius_list_and_deadline() {
        let cmd = match parse(&argv(&[
            "zoom",
            "--snapshot",
            "x.snap",
            "--radii",
            "0.2,0.1,0.05",
            "--deadline-ms",
            "250",
        ])) {
            Ok(c) => c,
            Err(e) => unreachable!("must parse: {e}"),
        };
        assert_eq!(
            cmd,
            Command::Zoom(ZoomArgs {
                snapshot: PathBuf::from("x.snap"),
                radii: vec![0.2, 0.1, 0.05],
                deadline_ms: Some(250),
            })
        );
    }

    #[test]
    fn build_defaults_fill_in() {
        let cmd = match parse(&argv(&["build", "--out", "a.snap"])) {
            Ok(c) => c,
            Err(e) => unreachable!("must parse: {e}"),
        };
        match cmd {
            Command::Build(b) => {
                assert_eq!(b.n, 2000);
                assert_eq!(b.dim, 2);
                assert_eq!(b.clusters, 5);
                assert!(!b.uniform);
                assert_eq!(b.shards, disc_core::DEFAULT_SHARDS);
            }
            other => unreachable!("expected build, got {other:?}"),
        }
    }

    #[test]
    fn usage_errors_exit_two() {
        for bad in [
            argv(&["frobnicate"]),
            argv(&["zoom", "--snapshot", "x.snap"]),
            argv(&["zoom", "--snapshot", "x.snap", "--radius", "nope"]),
            argv(&["serve"]),
            argv(&["doctor", "--mystery", "x"]),
            argv(&["build", "--out"]),
        ] {
            let err = match parse(&bad) {
                Err(e) => e,
                Ok(c) => unreachable!("{bad:?} must not parse, got {c:?}"),
            };
            assert_eq!(err.exit_code(), crate::error::EXIT_USAGE, "{bad:?}");
        }
    }

    #[test]
    fn no_args_is_help_not_an_error() {
        assert!(matches!(parse(&[]), Ok(Command::Help)));
    }
}
