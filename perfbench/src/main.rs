//! Whole-simulator benchmark of the HARMLESS workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! ```
//!
//! Runs one named fabric workload (see `workloads.rs`) in repeated
//! iterations for about `--seconds`, checks every simulated output, and
//! prints each metric by name and unit. The last line of stdout is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics of untraced iterations with `--trace 0`, the
//! per-layer metrics of traced iterations with `--trace 1`. A trace run
//! starts with one untraced iteration as the reference its traced
//! iterations must reproduce exactly.
//!
//! Nothing is written anywhere unless `--out` names a file; that file
//! gets the result with the host fingerprint as its first JSON line
//! and, for a trace run, the spans of the last traced iteration after
//! it. A failed output check exits with code 1, a usage error with 2.

mod expected;
mod layers;
mod metrics;
mod trace;
mod workloads;

use metrics::{median, ratio, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Kind;
use workloads::{Iteration, Workload};

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]\n\
workloads: install_16x512 flood_2x512 epoch_packet_16x512 epoch_hybrid_64x4096";

/// Untraced iterations a run makes at least, so medians have a middle.
const MIN_UNTRACED: usize = 3;
/// Share of an iteration's time spent on extra set-up samples, and the
/// most extra samples per iteration.
const EXTRA_SHARE: f64 = 0.1;
const MAX_EXTRA: usize = 10;
/// No iteration starts once the run could not end by this time, s; the
/// whole run must end well within 180 s.
const HARD_LIMIT_S: f64 = 150.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        out,
    })
}

/// Host fingerprint: where and from what a result was measured.
fn fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only a checkout whose root holds `.git` is asked for its revision,
    // so git never searches the directories above the benchmark.
    let git = |args: &[&str]| -> Option<String> {
        if !std::path::Path::new(".git").exists() {
            return None;
        }
        let o = Command::new("git")
            .arg("--no-optional-locks")
            .args(args)
            .output()
            .ok()?;
        o.status
            .success()
            .then(|| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| git(&["status", "--porcelain"]))
        .map(|s| (!s.is_empty()).to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("git_rev", rev.unwrap_or_else(|| "unknown".into())),
        ("git_dirty", dirty.unwrap_or_else(|| "unknown".into())),
    ]
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// A finite JSON number.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Per-layer values of one traced iteration, in [`PER_LAYER`] order.
fn layer_values(it: &Iteration) -> Vec<f64> {
    let (rec, rep) = it.traced.as_ref().expect("a traced iteration");
    let c = &it.counters;
    let sw = &c.switches;
    let lookups = sw.lookups() as f64;
    let ctrl_msgs = rec.count(Kind::Controller, Some("on_ctrl"));
    let self_ns = rec.run_self_ns() as f64;
    let values = [
        ("core.build_s", it.setup.build_s),
        ("core.configure_s", it.setup.configure_s),
        ("core.attach_s", it.setup.attach_s),
        (
            "controller.busy_s",
            rec.total_ns(Kind::Controller, None) as f64 / 1e9,
        ),
        ("controller.msgs", ctrl_msgs as f64),
        (
            "controller.us_per_msg",
            ratio(
                rec.total_ns(Kind::Controller, Some("on_ctrl")) as f64 / 1e3,
                ctrl_msgs as f64,
            ),
        ),
        ("controller.packet_ins", c.ctrl_packet_ins as f64),
        ("controller.flow_mods", c.ctrl_flow_mods as f64),
        ("openflow.decode_ns_per_msg", rep.decode_ns_per_msg),
        ("netsim.self_s", self_ns / 1e9),
        ("netsim.events", c.events as f64),
        ("netsim.ns_per_event", ratio(self_ns, c.events as f64)),
        (
            "netsim.endpoints_busy_s",
            rec.total_ns(Kind::Endpoint, None) as f64 / 1e9,
        ),
        ("netsim.delivered_frames", c.delivered_frames as f64),
        ("softswitch.flow_entries", sw.flow_entries as f64),
        ("softswitch.packets", sw.packets as f64),
        (
            "softswitch.memo_hit_ratio",
            ratio(sw.memo_hits as f64, lookups),
        ),
        (
            "softswitch.micro_hit_ratio",
            ratio(sw.micro_hits as f64, lookups),
        ),
        (
            "softswitch.mega_hit_ratio",
            ratio(sw.mega_hits as f64, lookups),
        ),
        (
            "softswitch.slow_path_ratio",
            ratio(sw.mega_misses as f64, lookups),
        ),
        ("softswitch.rx_dropped", sw.rx_dropped as f64),
        ("softswitch.packet_ins", sw.packet_ins as f64),
        ("softswitch.batch32_ns", rep.batch32_ns),
        ("netpkt.parse_ns_per_frame", rep.parse_ns_per_frame),
        ("legacy.flood_frames", c.legacy_floods as f64),
        ("flowsim.window_updates", c.flowsim.window_updates as f64),
        ("flowsim.promotions", c.flowsim.promotions as f64),
        ("flowsim.demotions", c.flowsim.demotions as f64),
        (
            "flowsim.modeled_ratio",
            ratio(c.flowsim.frames_modeled as f64, c.frames_sent as f64),
        ),
    ];
    debug_assert!(values
        .iter()
        .map(|v| v.0)
        .eq(PER_LAYER.iter().map(|m| m.name)));
    values.map(|v| v.1).to_vec()
}

/// Repeat iterations of the workload for about `args.seconds`. Returns
/// the iterations and every set-up and convergence time sampled.
fn measure(args: &Args) -> (Vec<Iteration>, Vec<f64>, Vec<f64>) {
    let w = args.workload;
    let started = Instant::now();
    let mut iters: Vec<Iteration> = Vec::new();
    let (mut setups, mut converges) = (Vec::new(), Vec::new());
    loop {
        // A trace run's first iteration is the untraced reference.
        let traced = args.trace && !iters.is_empty();
        if traced {
            trace::start();
        }
        let it = w.run(args.seed);
        println!(
            "iteration {} ({}): setup {:.4} s, converge {:.4} s, steady {:.4} s",
            iters.len(),
            if traced { "traced" } else { "untraced" },
            it.setup.total_s,
            it.converge_s,
            it.steady_s
        );
        if !args.trace {
            setups.push(it.setup.total_s);
            converges.push(it.converge_s);
            // Short phases get extra samples: more set-ups, and more
            // convergences where those are cheap, within a tenth of the
            // iteration's time.
            let budget = EXTRA_SHARE * it.wall_s();
            let prefix = it.setup.total_s + it.converge_s;
            let with_converge = prefix <= budget / 2.0;
            let unit = if with_converge {
                prefix
            } else {
                it.setup.total_s
            };
            for _ in 0..((budget / unit) as usize).min(MAX_EXTRA) {
                let mut p = w.setup(args.seed);
                setups.push(p.setup_times().total_s);
                if with_converge {
                    converges.push(p.converge());
                }
            }
        }
        let last = it.wall_s();
        iters.push(it);
        let min = if args.trace { 2 } else { MIN_UNTRACED };
        let next_end = started.elapsed().as_secs_f64() + last;
        if (iters.len() >= min && next_end > args.seconds) || next_end > HARD_LIMIT_S {
            break;
        }
    }
    println!(
        "{} iterations, {} set-ups, {} convergences in {:.1} s",
        iters.len(),
        setups.len(),
        converges.len(),
        started.elapsed().as_secs_f64()
    );
    (iters, setups, converges)
}

/// The output gate: every iteration's invariants, repeatability (every
/// iteration of one seed, traced or not, prints the same outputs), and
/// the values recorded for the default seed. Returns what failed.
fn gate(w: Workload, seed: u64, iters: &[Iteration]) -> Vec<String> {
    let mut problems: Vec<String> = Vec::new();
    for (k, it) in iters.iter().enumerate() {
        problems.extend(it.violations.iter().map(|v| format!("iteration {k}: {v}")));
    }
    let reference = iters[0].outputs_table();
    for (k, it) in iters.iter().enumerate().skip(1) {
        if it.outputs_table() != reference {
            problems.push(format!(
                "iteration {k} ({}) outputs differ from iteration 0:\n{}",
                if it.traced.is_some() {
                    "traced"
                } else {
                    "untraced"
                },
                it.outputs_table()
            ));
        }
    }
    println!("simulated outputs:\n{reference}");
    if seed == w.default_seed() {
        let rec = expected::recorded(w);
        for &(name, want) in rec.outputs {
            let got = iters[0].outputs.iter().find(|o| o.0 == name).map(|o| o.1);
            if got != Some(want) {
                problems.push(format!("{name}: {got:?}, recorded {want}"));
            }
        }
        for &(name, want) in rec.internals {
            if let Some(&(_, got)) = iters[0].internals.iter().find(|o| o.0 == name) {
                if got != want {
                    println!(
                        "note: {name} is {got}, recorded {want} ({:+})",
                        got as i128 - want as i128
                    );
                }
            }
        }
    }
    problems
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let fp = fingerprint();
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: {}",
        fp.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let (iters, setups, converges) = measure(&args);
    let mut problems = gate(w, args.seed, &iters);

    let attempted: u64 = iters.iter().map(|i| i.attempted).sum();
    let failed: u64 = iters.iter().map(|i| i.failed).sum();
    println!(
        "fail_ratio: {} ({failed} of {attempted} operations)",
        metrics::fail_ratio(attempted, failed)
    );
    if attempted == 0 {
        problems.push("no operation was attempted".into());
    }

    let untraced: Vec<&Iteration> = iters.iter().filter(|i| i.traced.is_none()).collect();
    let traced: Vec<&Iteration> = iters.iter().filter(|i| i.traced.is_some()).collect();
    let med = |f: &dyn Fn(&Iteration) -> f64, set: &[&Iteration]| {
        median(&set.iter().map(|i| f(i)).collect::<Vec<_>>())
    };
    let (catalog, values): (&[metrics::Metric], Vec<f64>) = if args.trace {
        let per_iter: Vec<Vec<f64>> = traced.iter().map(|i| layer_values(i)).collect();
        let values = (0..PER_LAYER.len())
            .map(|k| median(&per_iter.iter().map(|v| v[k]).collect::<Vec<_>>()))
            .collect();
        let wall_u = med(&Iteration::wall_s, &untraced);
        let wall_t = med(&Iteration::wall_s, &traced);
        println!(
            "tracing overhead: {:+.1}% (untraced {wall_u:.4} s, traced {wall_t:.4} s per iteration)",
            (wall_t / wall_u - 1.0) * 100.0
        );
        let (rec, _) = traced[traced.len() - 1].traced.as_ref().expect("traced");
        println!("phase split of the last traced iteration (s):");
        println!(
            "  {:<9} {:>9} {:>9} {:>13} {:>17} {:>17}",
            "phase", "wall", "in run_*", "netsim.self", "controller.busy", "endpoints.busy"
        );
        for phase in ["converge", "steady"] {
            let [wall, runs, own, ctrl, ends] = rec.phase_split(phase);
            println!("  {phase:<9} {wall:>9.4} {runs:>9.4} {own:>13.4} {ctrl:>17.4} {ends:>17.4}");
        }
        (PER_LAYER, values)
    } else {
        let values = vec![
            median(&setups),
            median(&converges),
            med(&|i| i.steady_s, &untraced),
            metrics::peak_rss_mb(),
        ];
        (END_TO_END, values)
    };

    println!("metrics (name, value, unit, better, moves):");
    for (m, v) in catalog.iter().zip(&values) {
        println!(
            "  {:<28} {:>22} {:<6} {:<6} {}",
            m.name,
            json_num(*v),
            m.unit,
            m.better.word(),
            m.moves
        );
    }
    let correct = problems.is_empty();
    for p in &problems {
        println!("FAILED: {p}");
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        catalog
            .iter()
            .zip(&values)
            .map(|(m, v)| format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(*v),
                json_str(m.unit)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );

    if let Some(path) = &args.out {
        let header = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"iterations\": {}, \"host\": {{{}}}, \"result\": {result}}}",
            json_str(w.name()),
            args.seed,
            u8::from(args.trace),
            iters.len(),
            fp.iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let write = || -> std::io::Result<()> {
            let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
            writeln!(f, "{header}")?;
            if let Some(it) = traced.last() {
                it.traced.as_ref().expect("traced").0.write_spans(&mut f)?;
            }
            f.flush()
        };
        if let Err(e) = write() {
            eprintln!("perfbench: could not write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
