//! `fudjbench`: the end-to-end and per-layer benchmark of the FUDJ engine.
//!
//! ```text
//! fudjbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! fudjbench all [--seed n] [--seconds s] [--runs r] [--smoke] [--twice] [--out file]
//! fudjbench compare <a.json> <b.json>
//! fudjbench manifest
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload in
//! this process, one JSON object on the last line of standard output. See
//! README.md beside this crate's manifest.

mod compare;
mod durable_ingest;
mod harness;
mod joins;
mod json;
mod scan_agg;
mod serve_mix;
mod spec;
mod stats;
mod trace;

use harness::{Checks, Config};
use json::Json;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use trace::Tracer;

/// Scratch directory of one process, removed when the value drops — on
/// success, on an error return and on a panic that unwinds `main`.
struct Scratch(PathBuf);

impl Scratch {
    /// `<directory of the executable>/fudjbench-scratch`: inside the build
    /// directory, which is inside the checkout and ignored by git.
    fn root() -> std::io::Result<PathBuf> {
        let exe = std::env::current_exe()?;
        let dir = exe.parent().unwrap_or(Path::new("."));
        Ok(dir.join("fudjbench-scratch"))
    }

    /// `<root>/<pid>-<label>`; the label keeps the unit tests, which share
    /// a process, apart.
    fn create(label: &str) -> std::io::Result<Scratch> {
        let dir = Scratch::root()?.join(format!("{}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure here.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Engine behaviour must come from the benchmark's arguments alone.
fn clear_engine_env() {
    let names: Vec<_> = std::env::vars_os()
        .map(|(name, _)| name)
        .filter(|name| {
            let name = name.to_string_lossy();
            name.starts_with("FUDJ_") || name == "CHAOS_SEEDS"
        })
        .collect();
    for name in names {
        std::env::remove_var(name);
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    const SWITCHES: [&'static str; 2] = ["--smoke", "--twice"];

    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            flags: HashMap::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if Args::SWITCHES.contains(&arg.as_str()) {
                parsed.switches.push(arg.clone());
            } else if let Some(name) = arg.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                parsed.flags.insert(name.to_owned(), value.clone());
            } else {
                parsed.positional.push(arg.clone());
            }
        }
        Ok(parsed)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
            None => Ok(default),
        }
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// Run one workload in this process and return the result object.
fn run_workload(workload: &str, cfg: &Config, trace: bool) -> Result<Json, String> {
    let mut checks = Checks::default();
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let join_kind = match workload {
        "spatial_join" => Some(joins::Kind::Spatial),
        "interval_join" => Some(joins::Kind::Interval),
        "text_join" => Some(joins::Kind::Text),
        _ => None,
    };
    if trace {
        let mut tracer = Tracer::new(true);
        values = match (workload, join_kind) {
            (_, Some(kind)) => joins::run_traced(kind, cfg, &mut checks, &mut tracer),
            ("scan_agg", _) => scan_agg::run_traced(cfg, &mut checks, &mut tracer),
            ("serve_mix", _) => serve_mix::run_traced(cfg, &mut checks, &mut tracer),
            ("durable_ingest", _) => durable_ingest::run_traced(cfg, &mut checks, &mut tracer),
            _ => return Err(format!("unknown workload {workload:?}")),
        }
        .map_err(|e| format!("{workload}: {e}"))?;
        let ops = tracer.spans().iter().filter(|s| s.parent.is_none()).count();
        values.push(("trace.spans", tracer.spans().len() as f64));
        values.push(("trace.timed_ops", ops as f64));
        // The spans outlive the run: they are what a reader opens to see
        // where an op's time went.
        let path = Scratch::root()
            .map_err(|e| e.to_string())?
            .join(format!("trace-{workload}.json"));
        std::fs::write(&path, tracer.to_json().pretty()).map_err(|e| e.to_string())?;
        eprintln!(
            "fudjbench: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    } else {
        let measured = match (workload, join_kind) {
            (_, Some(kind)) => joins::run(kind, cfg, &mut checks),
            ("scan_agg", _) => scan_agg::run(cfg, &mut checks),
            ("serve_mix", _) => serve_mix::run(cfg, &mut checks),
            ("durable_ingest", _) => durable_ingest::run(cfg, &mut checks),
            _ => return Err(format!("unknown workload {workload:?}")),
        }
        .map_err(|e| format!("{workload}: {e}"))?;
        values.extend(measured.end_to_end());
        values.push(("peak_rss_mb", peak_rss_mb()?));
        eprintln!(
            "fudjbench: {workload}: {} timed rounds; set-ups took {:.4?} s",
            measured.rounds.len(),
            measured.setup_s
        );
    }

    // Exactly the contract's metrics: every one of the kind, nothing else.
    let units: Vec<(&str, &str)> = if trace {
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    if let Some((stray, _)) = values
        .iter()
        .find(|(n, _)| !units.iter().any(|(u, _)| u == n))
    {
        return Err(format!(
            "{workload} reported {stray}, which the spec does not list"
        ));
    }
    let mut metrics = Vec::new();
    for (name, unit) in units {
        let value = values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        let value = match value {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("{workload}: {name} is {v}")),
            // A layer this workload does not run.
            None if trace => 0.0,
            None => return Err(format!("{workload} did not report {name}")),
        };
        metrics.push((
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(checks.failed == 0)),
        ("attempted", Json::Num(checks.attempted.max(1) as f64)),
        ("failed", Json::Num(checks.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]))
}

/// The driver's entry: one workload, result on the last line of stdout.
fn run_command(args: &Args) -> Result<ExitCode, String> {
    let workload = args.flags.get("workload").ok_or("--workload is required")?;
    let scratch = Scratch::create("run").map_err(|e| format!("scratch directory: {e}"))?;
    let cfg = Config {
        seed: args.number("seed", spec::DEFAULT_SEED)?,
        seconds: args.number("seconds", spec::RUN_SECONDS as f64)?,
        smoke: args.switch("--smoke"),
        scratch: scratch.0.clone(),
    };
    let trace = match args.number("trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let result = run_workload(workload, &cfg, trace)?;
    drop(scratch);
    println!("{result}");
    Ok(
        if result.get("correct").and_then(Json::as_bool) == Some(true) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        },
    )
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Every workload in a child process of its own, `runs` untraced runs on
/// consecutive seeds and one traced run, into one result file.
fn run_suite(args: &Args, out: &Path) -> Result<Json, String> {
    let seed: u64 = args.number("seed", spec::DEFAULT_SEED)?;
    let seconds: f64 = args.number("seconds", spec::RUN_SECONDS as f64)?;
    let runs: u64 = args.number("runs", 3)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    let mut failed = false;
    for workload in &spec::WORKLOADS {
        let plan = (0..runs).map(|r| (seed + r, 0)).chain([(seed, 1)]);
        for (run_seed, trace) in plan {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name])
                .args(["--seed", &run_seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", &trace.to_string()]);
            if args.switch("--smoke") {
                child.arg("--smoke");
            }
            let output = child
                .output()
                .map_err(|e| format!("starting {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let Ok(Json::Obj(mut pairs)) = Json::parse(line) else {
                return Err(format!(
                    "{} (seed {run_seed}, trace {trace}) printed no result:\n{}",
                    workload.name,
                    String::from_utf8_lossy(&output.stderr)
                ));
            };
            failed |= !output.status.success();
            let value = |name: &str| {
                pairs
                    .iter()
                    .find(|(k, _)| k == "metrics")
                    .and_then(|(_, m)| m.get(name)?.get("value")?.as_f64())
            };
            if trace == 0 {
                println!(
                    "{:<15} seed {run_seed:<4} query_s {:<10.5} builtin {:<10.5} ratio {:<7.4} ops/s {:<12.2} setup_s {:<8.4} rss {:.0} MiB",
                    workload.name,
                    value("query_s").unwrap_or(0.0),
                    value("builtin_query_s").unwrap_or(0.0),
                    value("fudj_over_builtin").unwrap_or(0.0),
                    value("ops_per_s").unwrap_or(0.0),
                    value("setup_s").unwrap_or(0.0),
                    value("peak_rss_mb").unwrap_or(0.0),
                );
            } else {
                println!(
                    "{:<15} traced: overhead {:.4}, {} spans",
                    workload.name,
                    value("trace.overhead_share").unwrap_or(0.0),
                    value("trace.spans").unwrap_or(0.0),
                );
            }
            pairs.splice(
                0..0,
                [
                    ("workload".to_owned(), Json::str(workload.name)),
                    ("seed".to_owned(), Json::Num(run_seed as f64)),
                    ("trace".to_owned(), Json::Num(f64::from(trace))),
                ],
            );
            results.push(Json::Obj(pairs));
        }
    }
    let file = Json::obj([
        ("schema", Json::str("fudjbench-results-1")),
        (
            "commit",
            Json::str(tool_version("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(tool_version("rustc", &["--version"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("workers", Json::Num(harness::WORKERS as f64)),
        (
            "exec_mode",
            Json::str(fudj_exec::ExecMode::from_env().as_str()),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(args.switch("--smoke"))),
        ("runs", Json::Arr(results)),
    ]);
    std::fs::write(out, file.pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    if failed {
        return Err("a run failed its output checks".to_owned());
    }
    Ok(file)
}

fn all_command(args: &Args) -> Result<ExitCode, String> {
    let root = Scratch::root().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&root).map_err(|e| e.to_string())?;
    let out = args
        .flags
        .get("out")
        .map_or_else(|| root.join("results.json"), PathBuf::from);
    let first = run_suite(args, &out)?;
    if !args.switch("--twice") {
        return Ok(ExitCode::SUCCESS);
    }
    // A/A: the same commit against itself must agree within the bounds.
    let second = run_suite(args, &out.with_extension("second.json"))?;
    let summary = compare::compare(&first, &second);
    Ok(if summary.regressed + summary.unresolved == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_command(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: fudjbench compare <a.json> <b.json>".to_owned());
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let summary = compare::compare(&read(a)?, &read(b)?);
    Ok(if summary.regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Args::parse(&argv).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            Some("manifest") => {
                print!("{}", spec::manifest().pretty());
                return Ok(ExitCode::SUCCESS);
            }
            Some("compare") => return compare_command(&args),
            _ => {}
        }
        // Everything below measures.
        if cfg!(debug_assertions) {
            return Err("refusing to measure a debug build; build with --release".to_owned());
        }
        clear_engine_env();
        match args.positional.first().map(String::as_str) {
            Some("all") => all_command(&args),
            None => run_command(&args),
            Some(other) => Err(format!("unknown command {other:?}")),
        }
    });
    outcome.unwrap_or_else(|message| {
        eprintln!("fudjbench: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--smoke` run of every workload, both kinds of run: the output
    /// checks pass, the result re-parses and names exactly the spec's
    /// metrics.
    #[test]
    fn smoke_run_of_every_workload_passes_its_checks() {
        let scratch = Scratch::create("smoke").unwrap();
        for (i, workload) in spec::WORKLOADS.iter().enumerate() {
            let cfg = Config {
                seed: spec::DEFAULT_SEED,
                seconds: 0.0,
                smoke: true,
                scratch: scratch.0.join(i.to_string()),
            };
            std::fs::create_dir_all(&cfg.scratch).unwrap();
            for (trace, expected) in [
                (
                    false,
                    spec::END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
                ),
                (
                    true,
                    spec::PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>(),
                ),
            ] {
                let result = run_workload(workload.name, &cfg, trace)
                    .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name));
                let parsed = Json::parse(&result.to_string()).unwrap();
                assert_eq!(parsed, result);
                let keys: Vec<&str> = parsed
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(
                    parsed.get("correct"),
                    Some(&Json::Bool(true)),
                    "{}",
                    workload.name
                );
                assert_eq!(parsed.get("failed"), Some(&Json::Num(0.0)));
                assert!(parsed.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
                let metrics = parsed.get("metrics").unwrap().as_obj().unwrap();
                let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(names, expected, "{} trace={trace}", workload.name);
                if !trace {
                    for (name, m) in metrics {
                        let v = m.get("value").unwrap().as_f64().unwrap();
                        assert!(v > 0.0, "{}: {name} = {v}", workload.name);
                    }
                }
            }
        }
    }

    #[test]
    fn arguments_parse_flags_switches_and_positionals() {
        let argv: Vec<String> = ["all", "--seed", "7", "--smoke", "--runs", "2"]
            .map(str::to_owned)
            .to_vec();
        let args = Args::parse(&argv).unwrap();
        assert_eq!(args.positional, ["all"]);
        assert_eq!(args.number("seed", 0u64).unwrap(), 7);
        assert_eq!(args.number("runs", 0u64).unwrap(), 2);
        assert_eq!(args.number("seconds", 10.0).unwrap(), 10.0);
        assert!(args.switch("--smoke") && !args.switch("--twice"));
        assert!(Args::parse(&["--seed".to_owned()]).is_err());
        assert!(args.number::<u64>("seed", 0).is_ok());
        let bad = Args::parse(&["--seed".to_owned(), "x".to_owned()]).unwrap();
        assert!(bad.number::<u64>("seed", 0).is_err());
    }

    #[test]
    fn scratch_directory_goes_away_with_its_owner() {
        let scratch = Scratch::create("drop").unwrap();
        let dir = scratch.0.clone();
        std::fs::write(dir.join("wal"), b"x").unwrap();
        drop(scratch);
        assert!(!dir.exists());
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
