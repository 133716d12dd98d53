//! `kbench`: the repository benchmark.
//!
//! ```text
//! kbench --workload <net_rr|net_bulk|blk_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each iteration builds a fresh Kite system, feeds it the inputs the
//! seed generates, runs it to quiescence and checks every output. The
//! run repeats iterations for `--seconds` of wall time. Virtual-clock
//! metrics must agree exactly across iterations (they are the seed's).
//! Wall-clock metrics are rescaled to a host of fixed speed by the
//! `reference` kernel, timed between each iteration's build and its run.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` alternates
//! plain iterations with profiled ones and reports the per-layer
//! metrics, including the profiler's overhead against the plain ones.
//! The last line of standard output is one JSON object; the lines
//! before it are a human-readable summary.

mod blk;
mod gen;
mod harness;
mod net;
mod reference;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use kite_prof::Phase;

use harness::Outcome;
use stats::{median, Quantile};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    NetRr,
    NetBulk,
    BlkMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        [Workload::NetRr, Workload::NetBulk, Workload::BlkMixed]
            .into_iter()
            .find(|w| w.name() == s)
    }

    fn name(self) -> &'static str {
        match self {
            Workload::NetRr => "net_rr",
            Workload::NetBulk => "net_bulk",
            Workload::BlkMixed => "blk_mixed",
        }
    }

    fn run(self, seed: u64, traced: bool) -> Outcome {
        match self {
            Workload::NetRr => net::run_rr(seed, traced),
            Workload::NetBulk => net::run_bulk(seed, traced),
            Workload::BlkMixed => blk::run(seed, traced),
        }
    }

    /// How closely the run's wall time follows the reference kernel's as
    /// the host's speed changes: the slope of log run time on log kernel
    /// time across runs. The network workloads slow down as the kernel
    /// does. `blk_mixed` slows down about half as much: over two sets of
    /// ten runs, a slope of 0.5 left the least spread in `run_s`.
    fn slope(self) -> f64 {
        match self {
            Workload::NetRr | Workload::NetBulk => 1.0,
            Workload::BlkMixed => 0.5,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: kbench --workload <net_rr|net_bulk|blk_mixed> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => {
                seconds = Some(
                    val.parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or(format!("bad seconds {val}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload missing")?,
        seed: seed.ok_or("--seed missing")?,
        seconds: seconds.ok_or("--seconds missing")?,
        trace: trace.ok_or("--trace missing")?,
    })
}

/// Wall-clock numbers of one profiled iteration.
struct TracedWall {
    run: f64,
    /// The reference kernel's time in this iteration.
    reference: f64,
    inject: f64,
    app: f64,
    self_ns: Vec<u64>,
    calls: Vec<u64>,
}

/// Everything a run collects before it reports.
struct Run {
    first: Option<Outcome>,
    /// Reference kernel times, one per iteration.
    refs: Vec<f64>,
    setup: Vec<f64>,
    plain_run: Vec<f64>,
    /// Reference kernel times of the plain iterations.
    plain_ref: Vec<f64>,
    traced: Vec<TracedWall>,
    traced_first: Option<Outcome>,
    iterations: u64,
    attempted: u64,
    failed: u64,
    errors: harness::Errors,
}

impl Run {
    /// Runs one iteration and folds it in, checking it against the
    /// first.
    fn iterate(&mut self, w: Workload, seed: u64, traced: bool) {
        let mut o = w.run(seed, traced);
        let r = o.reference.as_secs_f64();
        self.refs.push(r);
        self.iterations += 1;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.setup.push(o.setup.as_secs_f64());
        self.errors.absorb(std::mem::take(&mut o.errors));
        if let Some(f) = &self.first {
            if f.fingerprint() != o.fingerprint() {
                self.errors.push(format!(
                    "iteration {} (traced: {traced}) differs from the first on the virtual clock",
                    self.iterations
                ));
            }
        }
        if traced {
            self.add_traced(&mut o, r);
        } else {
            self.plain_run.push(o.run.as_secs_f64());
            self.plain_ref.push(r);
        }
        if self.first.is_none() {
            self.first = Some(o);
        }
    }

    fn add_traced(&mut self, o: &mut Outcome, reference: f64) {
        let rep = kite_prof::report();
        kite_prof::disable();
        let mut self_ns = vec![0; Phase::COUNT];
        let mut calls = vec![0; Phase::COUNT];
        for r in &rep.rows {
            self_ns[r.phase.index()] = r.self_ns;
            calls[r.phase.index()] = r.calls;
        }
        match &self.traced_first {
            None => {
                self.traced_first = Some(Outcome {
                    layers: std::mem::take(&mut o.layers),
                    stages: std::mem::take(&mut o.stages),
                    ..Outcome::default()
                })
            }
            Some(t) => {
                if t.layers != o.layers || calls != self.traced[0].calls {
                    self.errors.push(format!(
                        "traced iteration {} differs from the first in a layer count",
                        self.iterations
                    ));
                }
            }
        }
        self.traced.push(TracedWall {
            run: o.run.as_secs_f64(),
            reference,
            inject: o.inject.as_secs_f64(),
            app: o.app.as_secs_f64(),
            self_ns,
            calls,
        });
    }

    fn first(&self) -> &Outcome {
        self.first.as_ref().expect("at least one iteration ran")
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);

    let t0 = Instant::now();
    let mut run = Run {
        first: None,
        refs: Vec::new(),
        setup: Vec::new(),
        plain_run: Vec::new(),
        plain_ref: Vec::new(),
        traced: Vec::new(),
        traced_first: None,
        iterations: 0,
        attempted: 0,
        failed: 0,
        errors: harness::Errors::default(),
    };
    run.iterate(w, args.seed, false);
    loop {
        if args.trace {
            run.iterate(w, args.seed, true);
        }
        if t0.elapsed() >= budget {
            break;
        }
        run.iterate(w, args.seed, false);
    }
    let lat = Quantile::new(&run.first().lat);
    if lat.beyond(0.999) < 10 {
        run.errors.push(format!(
            "only {} latency samples lie beyond p99.9",
            lat.beyond(0.999)
        ));
    }

    let metrics = if args.trace {
        per_layer(&run, w.slope())
    } else {
        end_to_end(&run, w.slope())
    };
    for m in &metrics {
        println!("# {:<34} {:>16.6} {}", m.0, m.1, m.2);
    }
    println!(
        "# workload {} seed {} iterations {} (traced {}), {} ops per iteration, fail_pct {:.4}, {} latency samples",
        w.name(),
        args.seed,
        run.iterations,
        run.traced.len(),
        run.first().attempted,
        100.0 * run.failed as f64 / run.attempted as f64,
        run.first().lat.len(),
    );
    let mut runs = run.plain_run.clone();
    runs.sort_by(f64::total_cmp);
    println!(
        "# plain run wall time over {} iterations: min {:.4} median {:.4} max {:.4} s; reference kernel median {:.4} s",
        runs.len(),
        runs[0],
        median(&runs),
        runs[runs.len() - 1],
        median(&run.refs),
    );
    for e in &run.errors.kept {
        println!("# error: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", finite(*v)))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.errors.count == 0,
        run.attempted,
        run.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

type Metric = (String, f64, &'static str);

/// Wall times `t` of iterations in which the reference kernel took `r`,
/// rescaled to a host on which the kernel takes its nominal time, for
/// code whose time follows the kernel's with the given `slope`: their
/// total over the total of the kernel's slowdowns (its time over the
/// nominal, to the power `slope`). Totals, not a median of
/// per-iteration ratios: one kernel run samples the host's speed only
/// once per iteration, and totals average out that pairing error.
fn scaled(t: &[f64], r: &[f64], slope: f64) -> f64 {
    let nominal = reference::NOMINAL.as_secs_f64();
    t.iter().sum::<f64>() / r.iter().map(|r| (r / nominal).powf(slope)).sum::<f64>()
}

fn end_to_end(run: &Run, slope: f64) -> Vec<Metric> {
    let o = run.first();
    let secs = o.span.as_secs_f64();
    let q = Quantile::new(&o.lat);
    let mut m: Vec<Metric> = vec![
        // A build slows down as the kernel does, whatever the workload.
        ("setup_s".into(), scaled(&run.setup, &run.refs, 1.0), "s"),
        (
            "run_s".into(),
            scaled(&run.plain_run, &run.plain_ref, slope),
            "s",
        ),
        ("peak_rss_mb".into(), stats::peak_rss_mb(), "MB"),
        ("ops_per_s".into(), o.completed() as f64 / secs, "1/s"),
        (
            "goodput_gbps".into(),
            o.payload_bytes as f64 * 8.0 / secs / 1e9,
            "Gbit/s",
        ),
    ];
    for (name, p) in [
        ("lat_p50_us", 0.5),
        ("lat_p99_us", 0.99),
        ("lat_p999_us", 0.999),
    ] {
        m.push((name.into(), q.at(p) as f64 / 1e3, "us"));
    }
    m.push((
        "ok_pct".into(),
        100.0 * o.completed() as f64 / o.attempted as f64,
        "%",
    ));
    m.push(("dd_cpu_pct".into(), o.dd_cpu_pct, "%"));
    m
}

fn per_layer(run: &Run, slope: f64) -> Vec<Metric> {
    let t = run
        .traced_first
        .as_ref()
        .expect("a trace run has traced iterations");
    let tr = &run.traced;
    let mut m: Vec<Metric> = vec![("sim.events".into(), t.layer_value("sim.events"), "count")];
    for p in Phase::ALL {
        let i = p.index();
        let self_ns: Vec<f64> = tr.iter().map(|w| w.self_ns[i] as f64).collect();
        m.push((format!("prof.{}.self_ns", p.name()), median(&self_ns), "ns"));
        m.push((
            format!("prof.{}.calls", p.name()),
            tr[0].calls[i] as f64,
            "count",
        ));
    }
    let drains =
        tr[0].calls[Phase::NetbackTxDrain.index()] + tr[0].calls[Phase::NetbackRxDrain.index()];
    m.push((
        "netback.pkts_per_drain".into(),
        stats::ratio(t.layer_value("netback.packets"), drains as f64),
        "pkts/drain",
    ));
    for (name, unit) in [
        ("netback.gso_segs_per_frame", "segs/frame"),
        ("netback.lro_rx_frames", "count"),
        ("netback.rejects", "count"),
        ("netback.rx_dropped", "count"),
    ] {
        m.push((name.into(), t.layer_value(name), unit));
    }
    let batches = t.layer_value("grant.batches");
    m.push((
        "grant.ops_per_batch".into(),
        stats::ratio(t.layer_value("grant.ops"), batches),
        "ops/batch",
    ));
    m.push((
        "grant.bytes_per_batch".into(),
        stats::ratio(t.layer_value("grant.bytes"), batches),
        "B/batch",
    ));
    for (name, unit) in [
        ("blkback.persistent_hit_ratio", "ratio"),
        ("blkback.errors", "count"),
        ("nvme.random_penalties", "count"),
        ("netfront.tx_dropped", "count"),
        ("guest.cpu_pct", "%"),
    ] {
        m.push((name.into(), t.layer_value(name), unit));
    }
    for (i, s) in blk::STAGES.iter().enumerate() {
        let q = Quantile::new(t.stages.get(i).map_or(&[], |v| &v[..]));
        m.push((
            format!("stage.{}.p50_us", s.name()),
            q.at(0.5) as f64 / 1e3,
            "us",
        ));
        m.push((
            format!("stage.{}.p99_us", s.name()),
            q.at(0.99) as f64 / 1e3,
            "us",
        ));
    }
    let col = |f: fn(&TracedWall) -> f64| -> Vec<f64> { tr.iter().map(f).collect() };
    m.push(("bench.inject_s".into(), median(&col(|w| w.inject)), "s"));
    m.push(("bench.app_s".into(), median(&col(|w| w.app)), "s"));
    m.push((
        "bench.trace_overhead_pct".into(),
        100.0
            * (scaled(&col(|w| w.run), &col(|w| w.reference), slope)
                / scaled(&run.plain_run, &run.plain_ref, slope)
                - 1.0),
        "%",
    ));
    m.push(("bench.ref_s".into(), median(&run.refs), "s"));
    m.push(("bench.run_wall_s".into(), median(&run.plain_run), "s"));
    m.push(("bench.setup_wall_s".into(), median(&run.setup), "s"));
    m.push((
        "prof.coverage".into(),
        median(&col(|w| w.self_ns.iter().sum::<u64>() as f64 / 1e9 / w.run)),
        "ratio",
    ));
    m.push((
        "bench.lat_samples".into(),
        run.first().lat.len() as f64,
        "count",
    ));
    m
}
