//! A yardstick for the host's speed at the moment: a fixed event-driven
//! kernel owned by the benchmark, timed next to every iteration.
//!
//! On a shared host, other tenants slow the simulator by up to 1.8×, in
//! spells from a fraction of a second to minutes. A tight arithmetic
//! loop does not feel them, and pointer chases through 1 MB or 64 MB
//! slow down by at most a fifth, so the kernel has the simulator's
//! shape instead: a binary-heap event queue, hash-map flow queues of
//! allocated byte buffers, and a branchy dispatch on the event kind. It
//! slows down as the simulator does. Its code and inputs never change
//! with the program, so its time moves only with the host.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use crate::gen::Rng;

/// Events the kernel processes: 8 to 16 ms on a shared 2.1 GHz Xeon,
/// as the host's load varies.
const EVENTS: u64 = 50_000;
const FLOWS: u64 = 64;
/// Buffers a flow queue holds before it drops its oldest.
const QUEUE_CAP: usize = 32;
/// Pending events above which an event schedules one follow-up, not two.
const HEAP_CAP: usize = 512;

/// The nominal time of one kernel run. The benchmark reports wall times
/// scaled to a host on which the kernel takes exactly this long.
pub const NOMINAL: Duration = Duration::from_millis(10);

/// Wall time of one kernel run.
pub fn time() -> Duration {
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed()
}

/// Runs the kernel and returns a digest of its work.
fn kernel() -> u64 {
    let mut rng = Rng::new(0, 0x0072_6566);
    // (due time, sequence number for a stable order, kind, flow)
    let mut heap: BinaryHeap<Reverse<(u64, u64, u64, u64)>> = BinaryHeap::new();
    let mut flows: HashMap<u64, VecDeque<Vec<u8>>> = HashMap::new();
    for f in 0..FLOWS {
        heap.push(Reverse((rng.below(1000), f, f % 8, f)));
    }
    let mut seq = FLOWS;
    let mut acc = 0u64;
    for _ in 0..EVENTS {
        let Some(Reverse((at, _, kind, flow))) = heap.pop() else {
            break;
        };
        let r = rng.next_u64();
        match kind {
            // Enqueue a fresh buffer of 64..1464 bytes.
            0..=2 => {
                let len = 64 + (r % 1400) as usize;
                let mut b = vec![0u8; len];
                b[..8].copy_from_slice(&r.to_le_bytes());
                for i in (8..len).step_by(64) {
                    b[i] = (r >> (i % 56)) as u8;
                }
                let q = flows.entry(flow).or_default();
                q.push_back(b);
                if q.len() > QUEUE_CAP {
                    q.pop_front();
                }
            }
            // Dequeue from a nearby flow and read the buffer.
            3 | 4 => {
                if let Some(b) = flows
                    .get_mut(&((flow + r % 3) % FLOWS))
                    .and_then(VecDeque::pop_front)
                {
                    acc = acc.wrapping_add(b.iter().step_by(16).map(|&v| u64::from(v)).sum());
                }
            }
            5 => {
                let mut v: Vec<u64> = (0..32).map(|i| r.rotate_left(i)).collect();
                v.sort_unstable();
                acc ^= v[7];
            }
            _ => acc = acc.wrapping_add(flows.get(&flow).map_or(0, |q| q.len() as u64)),
        }
        let fanout = if (r >> 40) & 1 == 1 && heap.len() < HEAP_CAP {
            2
        } else {
            1
        };
        for k in 0..fanout {
            seq += 1;
            let due = at + 1 + (r >> (8 * k)) % 5000;
            heap.push(Reverse((due, seq, (r >> (20 + k)) % 8, (r >> 33) % FLOWS)));
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    #[test]
    fn kernel_is_fixed() {
        assert_eq!(super::kernel(), super::kernel());
    }
}
