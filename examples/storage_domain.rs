//! Storage domain walkthrough: write a file system image through blkfront
//! → Kite blkback → NVMe, read it back with verification, and show the
//! effect of the paper's §3.3 optimizations (batching, persistent grants,
//! indirect segments) via an ablation.
//!
//! ```text
//! cargo run --release --example storage_domain
//! cargo run --release --example storage_domain -- --rings 4 --trace out.json
//! ```
//!
//! `--rings N` runs the backend with `N` ring pairs on an `N`-vCPU
//! driver domain (each ring gets its own NVMe queue pair); `--trace
//! PATH` writes the first pass's Chrome trace to PATH, which
//! `scripts/verify.sh` diffs across runs as a determinism gate.

use std::cell::RefCell;
use std::rc::Rc;

use kite::core::BlkbackTuning;
use kite::sim::Nanos;
use kite::system::{BackendOs, IoKind, IoOp, SystemConfig};

fn sequential_write_read(tuning: BlkbackTuning, label: &str, rings: u32, trace: Option<&str>) {
    let mut cfg = SystemConfig::new(BackendOs::Kite, 7)
        .tuning(tuning)
        .queues(rings);
    if trace.is_some() {
        cfg = cfg.tracing(1 << 18);
    }
    let mut sys = cfg.build_stor();
    // 16 MiB of patterned data in 128 KiB logical writes.
    const CHUNK: usize = 128 * 1024;
    const TOTAL: usize = 16 * 1024 * 1024;
    let mut t = Nanos::from_micros(100);
    for i in 0..(TOTAL / CHUNK) {
        let data: Vec<u8> = (0..CHUNK).map(|b| ((b + i) % 251) as u8).collect();
        sys.submit_at(
            t,
            IoOp {
                tag: i as u64,
                kind: IoKind::Write {
                    sector: (i * CHUNK / 512) as u64,
                    data,
                },
            },
        );
        t += Nanos::from_micros(50);
    }
    sys.run_to_quiescence();
    let write_done = sys.now();

    // Read everything back and verify bytes.
    let failures = Rc::new(RefCell::new(0u32));
    let f2 = failures.clone();
    sys.set_handler(Box::new(move |_, done| {
        let data = done.data.as_ref().expect("read data");
        let i = done.tag as usize;
        let ok = data
            .iter()
            .enumerate()
            .all(|(b, &v)| v == ((b + i) % 251) as u8);
        if !ok {
            *f2.borrow_mut() += 1;
        }
        Vec::new()
    }));
    let mut t = write_done + Nanos::from_millis(1);
    for i in 0..(TOTAL / CHUNK) {
        sys.submit_at(
            t,
            IoOp {
                tag: i as u64,
                kind: IoKind::Read {
                    sector: (i * CHUNK / 512) as u64,
                    len: CHUNK,
                },
            },
        );
        t += Nanos::from_micros(50);
    }
    sys.run_to_quiescence();

    // All reporting goes through the shared snapshot rendering.
    let st = sys.blkback_stats();
    let mut snap = sys.metrics_snapshot(format!("storage_domain/{label}"));
    snap.push_int("elapsed", "ns", sys.now().as_nanos());
    snap.push_float(
        "batching_merge_ratio",
        "ratio",
        st.requests as f64 / st.device_ops.max(1) as f64,
    );
    snap.push_int("verify_failures", "count", *failures.borrow() as u64);
    print!("{}", snap.render_text());
    assert_eq!(*failures.borrow(), 0, "data must round-trip intact");

    if let Some(path) = trace {
        assert_eq!(sys.hv.trace.dropped(), 0, "trace ring must not overflow");
        std::fs::write(path, sys.hv.export_chrome_trace()).expect("write trace");
        println!("wrote Chrome trace to {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let rings: u32 = flag("--rings").map_or(1, |v| v.parse().expect("--rings N"));
    let trace = flag("--trace");

    sequential_write_read(
        BlkbackTuning::default(),
        "all optimizations on",
        rings,
        trace.as_deref(),
    );
    sequential_write_read(
        BlkbackTuning {
            batching: false,
            persistent_grants: false,
            indirect_segments: true,
            persistent_cap: 0,
            ..BlkbackTuning::default()
        },
        "batching + persistent grants off (batched grant copies)",
        rings,
        None,
    );
    sequential_write_read(
        BlkbackTuning {
            indirect_segments: false,
            ..BlkbackTuning::default()
        },
        "indirect segments off (11-seg / 44KiB requests)",
        rings,
        None,
    );
}
