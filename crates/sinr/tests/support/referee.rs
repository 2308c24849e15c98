//! The naive exact SINR referee: recomputes every distance and path-loss
//! term from scratch and scans all `m` links per attempt.
//!
//! It is the ground truth the cached and tiled oracles are held to
//! bit for bit (`prop_sinr` and the `tiles::tests::contract` unit
//! tests) and the pre-optimization baseline that `bench_sinr` times.
//! Those three include this one file with `#[path]`, so the referee
//! lives in no library's production code. (The unit tests see this
//! crate as `dps_sinr` through a test-only `extern crate self`.)
//!
//! Interference contributions accumulate as `count · (p/d^α)` — the same
//! association as the cached path — in link-index order. (The pre-cache
//! oracle associated this as `(count · p)/d^α`, which can differ by an
//! ulp for `count ≥ 3`; the equivalence guarantee is between this
//! referee and the current oracles, whose expressions are identical.)

use dps_core::feasibility::Attempt;
use dps_core::ids::LinkId;
use dps_sinr::network::SinrNetwork;
use dps_sinr::power::PowerAssignment;

/// Whether each attempt of one slot succeeds under the accumulative SINR
/// rule on `net` with powers from `power`, in attempt order.
pub fn successes_naive<P: PowerAssignment + ?Sized>(
    net: &SinrNetwork,
    power: &P,
    attempts: &[Attempt],
) -> Vec<bool> {
    let params = *net.params();
    // Count transmissions per link: two packets on one link collide at
    // the shared transmitter regardless of SINR.
    let mut mult = vec![0u32; net.num_links()];
    for a in attempts {
        mult[a.link.index()] += 1;
    }
    attempts
        .iter()
        .map(|a| {
            if mult[a.link.index()] != 1 {
                return false;
            }
            let own = net.sender_pos(a.link);
            let len = own.distance(&net.receiver_pos(a.link));
            let signal = power.power(len) / len.powf(params.alpha);
            let mut interference = 0.0;
            for (other_idx, &count) in mult.iter().enumerate() {
                if count == 0 || other_idx == a.link.index() {
                    continue;
                }
                let other = LinkId(other_idx as u32);
                let other_sender = net.sender_pos(other);
                let other_len = other_sender.distance(&net.receiver_pos(other));
                let d = other_sender.distance(&net.receiver_pos(a.link));
                if d <= 0.0 {
                    return false;
                }
                interference += count as f64 * (power.power(other_len) / d.powf(params.alpha));
            }
            signal >= params.beta * (interference + params.noise)
        })
        .collect()
}
