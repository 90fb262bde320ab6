//! Benchmark runner.
//!
//! ```sh
//! perfbench --workload <sweep|hunts|campaign> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats passes of the workload for about `--seconds` (always at least
//! one), then prints a labelled summary, a host stamp and, as the last
//! line, one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end medians; with
//! `--trace 1` traced and untraced passes alternate, their outcome counters
//! must match exactly, and the metrics are the per-layer medians of the
//! traced passes plus the tracing overhead.

use std::{collections::BTreeMap, process::ExitCode, time::Instant};

use perfbench::{campaign, hunts, proc, secs, sweep, Pass, PER_LAYER, WORKER_S};

/// Set-up samples each run takes at least (a short run tops them up at its
/// end).
const SETUP_SAMPLES: usize = 50;
/// Set-ups timed on their own after every pass. Spread over the whole run,
/// the samples see the same host as the passes; bunched at the end of the
/// run, one burst of contention from another process moved their median
/// by 2×.
const SETUPS_PER_PASS: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let mut take = |k: &str| kv.remove(k).ok_or(format!("missing {k}"));
    let workload = take("--workload")?;
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = take("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown argument {k}"));
    }
    if !["sweep", "hunts", "campaign"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

struct Runner {
    args: Args,
    threads: usize,
    first_doc: Option<u64>,
}

impl Runner {
    /// One pass, followed by [`SETUPS_PER_PASS`] set-ups timed into
    /// `setups` (the hunts also time one after each hunt).
    fn pass(&mut self, traced: bool, setups: &mut Vec<f64>) -> Pass {
        let seed = self.args.seed;
        let p = match self.args.workload.as_str() {
            "sweep" => sweep::pass(seed, self.threads, traced),
            "hunts" => hunts::pass(traced, setups),
            _ => campaign::pass(seed, traced, &mut self.first_doc),
        };
        setups.push(p.setup_s);
        for _ in 0..SETUPS_PER_PASS {
            setups.push(self.setup_only());
        }
        p
    }

    /// A set-up alone, timed, with its products dropped.
    fn setup_only(&self) -> f64 {
        let seed = self.args.seed;
        match self.args.workload.as_str() {
            "sweep" => sweep::setup(seed, self.threads),
            "hunts" => hunts::setup(),
            _ => campaign::setup(seed),
        }
    }
}

fn host_stamp() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Untraced campaign passes keep their store in memory; traced ones also
    // run it on the disk that holds `campaign::disk_store`.
    let disk = campaign::disk_store();
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {:?}, \"rustc\": {:?}, \"git_commit\": {:?}, \"store_fs\": \"memory\", \"traced_disk_store_fs\": {:?}}}",
        cpu,
        cmd("rustc", &["-V"]),
        cmd("git", &["rev-parse", "HEAD"]),
        proc::fs_type(disk.parent().unwrap_or(&disk)),
    )
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let trace = args.trace;
    let budget = args.seconds;
    let mut r = Runner {
        args,
        threads,
        first_doc: None,
    };

    // Untraced runs measure plain passes. Traced runs alternate plain and
    // traced passes so every traced pass has an untraced twin to match.
    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    // Peak memory of one pass in a fresh process. Later passes only add
    // allocator fragmentation: the high-water mark jumps by a few MiB at a
    // random later pass.
    let mut peak_rss_mib = 0.0;
    loop {
        let p = r.pass(false, &mut setups);
        if plain.is_empty() {
            peak_rss_mib = proc::peak_rss_mib();
        }
        if trace {
            let t = r.pass(true, &mut setups);
            if t.outcome != p.outcome {
                let diff: Vec<&String> = t
                    .outcome
                    .keys()
                    .filter(|k| t.outcome.get(*k) != p.outcome.get(*k))
                    .collect();
                problems.push(format!("traced pass changed outcome counters: {diff:?}"));
            }
            traced.push(t);
        }
        plain.push(p);
        let per_round = secs(start) / plain.len() as f64;
        if secs(start) + per_round > budget {
            break;
        }
    }
    while setups.len() < SETUP_SAMPLES {
        setups.push(r.setup_only());
    }

    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|p| p.units).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();
    problems.extend(all.iter().flat_map(|p| p.problems.iter().cloned()));
    let correct = problems.is_empty() && failed == 0;

    let med = |ps: &[Pass], f: fn(&Pass) -> f64| median(ps.iter().map(f).collect());
    let wall = med(&plain, |p| p.wall_s);
    // (name, median, unit, samples)
    let mut metrics: Vec<(&str, f64, &str, usize)> = Vec::new();
    if trace {
        for &(name, unit) in PER_LAYER {
            let v = if name == "trace.overhead" {
                med(&traced, |p| p.wall_s) / wall
            } else {
                median(
                    traced
                        .iter()
                        .map(|p| p.layers.get(name).copied().unwrap_or(0.0))
                        .collect(),
                )
            };
            metrics.push((name, v, unit, traced.len()));
        }
    } else {
        let n = plain.len();
        metrics.push(("setup_s", median(setups.clone()), "s", setups.len()));
        metrics.push(("wall_s", wall, "s", n));
        metrics.push(("cpu_s", med(&plain, |p| p.cpu_s), "s", n));
        let rate = med(&plain, |p| p.states as f64 / p.wall_s);
        metrics.push(("states_per_s", rate, "1/s", n));
        metrics.push(("peak_rss_mib", peak_rss_mib, "MiB", 1));
    }

    // Labelled summary: wall time and summed worker time never share a
    // label.
    let a = &r.args;
    let threads = plain[0].threads;
    println!(
        "perfbench workload={} seed={} trace={} threads={threads} passes={} untraced + {} traced",
        a.workload,
        a.seed,
        u8::from(trace),
        plain.len(),
        traced.len(),
    );
    let walls: Vec<String> = plain.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    println!("  wall time of each untraced pass (s): {}", walls.join(" "));
    let busy = med(&plain, |p| p.busy_s);
    if busy > 0.0 {
        println!(
            "  oracle+record+check summed over {threads} workers (median per pass): {busy:.4} {WORKER_S}"
        );
    }
    println!(
        "  failed_frac: {failed}/{attempted} = {:.6}",
        failed as f64 / attempted.max(1) as f64
    );
    println!("  {:<24} {:>16} {:<9} samples", "metric", "median", "unit");
    for (name, v, unit, n) in &metrics {
        println!("  {name:<24} {v:>16.6} {unit:<9} {n}");
    }
    for p in &problems {
        println!("  CHECK FAILED: {p}");
    }
    println!("host {}", host_stamp());
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u, _)| {
            // `{:?}` prints every digit of the shortest round-trip form.
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
