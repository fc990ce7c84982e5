//! Golden equivalence for the suspended-token certificate, in three
//! parts mirroring the three regimes the census can land in:
//!
//! 1. **Sub-floor invisibility** — on every golden cell that converges
//!    before the evidence floors ([`SuspensionPolicy`]) are reachable,
//!    the armed census is **bit-identical** to a certificate-free run:
//!    same end, same cost, same action count, same meeting sequence, same
//!    per-agent protocol state, and no certificate. This is the
//!    "provably free" claim made concrete: the census only ever *reads*
//!    the driver's attestation bit, so the sole way it can change a run
//!    is by actually certifying.
//!
//! 2. **Certified-early equivalence** — on converging cells large enough
//!    for the floors, the token ghost eventually parks for good and the
//!    explorer certifies the parked token instead of walking the rest of
//!    its phase against it (a parked ghost is a permanent suspension
//!    too). The run must end strictly cheaper with the paper's
//!    postconditions intact: `AllParked`, the same gossip outputs as the
//!    certificate-free run, and pairwise-met completeness.
//!
//! 3. **Suspension cells** — on the three former outliers and the large
//!    `lazy(1)` rings the certificate unlocked, the explorer closes the
//!    pinned phase on a certificate whose evidence meets the policy
//!    floors, and the run still quiesces complete.

use rv_core::Label;
use rv_explore::esst::{SuspendedTokenCert, SuspensionPolicy};
use rv_explore::SeededUxs;
use rv_graph::{GraphFamily, NodeId};
use rv_protocols::{SglBehavior, SglConfig};
use rv_sim::adversary::AdversaryKind;
use rv_sim::{Meeting, MeetingTally, RunConfig, RunEnd, Runtime};

/// Matrix constants: graph seed, adversary seed, SGL labels.
const GRAPH_SEED: u64 = 5;
const ADVERSARY_SEED: u64 = 3;
const SGL_LABELS: [u64; 4] = [6, 9, 14, 21];

/// FNV-1a-style mix for the meeting sequence (full `Debug` would be
/// megabytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }
    fn push(&mut self, m: &Meeting) {
        self.write_u64(m.agents.len() as u64);
        for a in m.agents.iter() {
            self.write_u64(a as u64);
        }
        self.write_u64(m.at_cost);
        self.write_u64(m.at_action);
        self.write_u64(match m.place {
            rv_sim::MeetingPlace::Node(v) => v.0 as u64,
            rv_sim::MeetingPlace::Edge(e) => (1 << 32) | ((e.a.0 as u64) << 16) | e.b.0 as u64,
        });
    }
}

/// One finished run, reduced to everything observable: outcome counters,
/// a hash of every meeting declared, per-agent protocol state, the
/// rendered gossip outputs, and the certificates (if any).
struct RunReport {
    fingerprint: String,
    end: RunEnd,
    cost: u64,
    meetings: MeetingTally,
    outputs: Vec<Option<String>>,
    certificates: Vec<Option<SuspendedTokenCert>>,
}

fn fingerprint(end: RunEnd, rt: &Runtime<SglBehavior<SeededUxs>>, h: &Fnv) -> String {
    let agents: Vec<String> = (0..rt.agent_count())
        .map(|i| {
            let b = rt.behavior(i);
            format!(
                "{}:{:?} bag={:?} out={:?} e={:?}",
                b.label(),
                b.state(),
                b.bag().labels(),
                b.output().map(|s| s.iter().collect::<Vec<_>>()),
                b.order_bound(),
            )
        })
        .collect();
    let per: Vec<u64> = (0..rt.agent_count()).map(|i| rt.traversals(i)).collect();
    format!(
        "{end:?} cost={} actions={} per={per:?} meetings={}#{:016x} agents={agents:?}",
        rt.total_traversals(),
        rt.actions(),
        rt.meetings().len(),
        h.0,
    )
}

fn run_cell(
    family: GraphFamily,
    n: usize,
    k: usize,
    kind: AdversaryKind,
    cutoff: u64,
    suspension: Option<SuspensionPolicy>,
) -> RunReport {
    let uxs = SeededUxs::quadratic();
    let g = family.generate(n, GRAPH_SEED);
    let config = SglConfig {
        suspension,
        ..SglConfig::default()
    };
    let behaviors: Vec<_> = SGL_LABELS[..k]
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            SglBehavior::new(
                &g,
                uxs,
                NodeId(i * g.order() / k),
                Label::new(l).unwrap(),
                l + 1000,
                config,
            )
        })
        .collect();
    let mut rt = Runtime::new(&g, behaviors, RunConfig::protocol().with_cutoff(cutoff));
    let mut adv = kind.build(ADVERSARY_SEED);
    // `run()` is this loop over `step`; stepping hands out the meetings.
    let (mut h, mut meetings) = (Fnv::new(), Vec::new());
    let end = loop {
        let end = rt.step(adv.as_mut(), &mut meetings);
        meetings.iter().for_each(|m| h.push(m));
        if let Some(end) = end {
            break end;
        }
    };
    RunReport {
        fingerprint: fingerprint(end, &rt, &h),
        end,
        cost: rt.total_traversals(),
        outputs: (0..rt.agent_count())
            .map(|i| {
                rt.behavior(i)
                    .output()
                    .map(|s| format!("{:?}", s.iter().collect::<Vec<_>>()))
            })
            .collect(),
        certificates: (0..rt.agent_count())
            .map(|i| rt.behavior(i).certificate())
            .collect(),
        meetings: rt.meetings().clone(),
    }
}

/// Regime 1: on every golden cell whose whole run fits under the
/// evidence floors, the armed census is invisible — the run with the
/// default policy is bit-for-bit the run with no census at all, and
/// neither holds a certificate. One cell per graph family, all four
/// adversaries represented.
#[test]
fn certificate_is_invisible_on_every_sub_floor_golden_cell() {
    let goldens = [
        (GraphFamily::Ring, 4, 2, AdversaryKind::LazySecond),
        (GraphFamily::Path, 4, 2, AdversaryKind::EagerMeet),
        (GraphFamily::Path, 4, 2, AdversaryKind::GreedyAvoid),
        (GraphFamily::RandomTree, 4, 2, AdversaryKind::EagerMeet),
        (GraphFamily::Gnp, 4, 2, AdversaryKind::RoundRobin),
        (GraphFamily::Lollipop, 4, 2, AdversaryKind::GreedyAvoid),
    ];
    for (family, n, k, kind) in goldens {
        let armed = run_cell(
            family,
            n,
            k,
            kind,
            2_500_000,
            SglConfig::default().suspension,
        );
        let disarmed = run_cell(family, n, k, kind, 2_500_000, None);
        assert_eq!(
            armed.end,
            RunEnd::AllParked,
            "{family}({n})/{kind}/k{k} must be a converging golden cell"
        );
        assert_eq!(
            armed.fingerprint, disarmed.fingerprint,
            "{family}({n})/{kind}/k{k}: the armed census must be invisible"
        );
        assert!(
            armed.certificates.iter().all(Option::is_none),
            "{family}({n})/{kind}/k{k}: a sub-floor cell must not certify"
        );
    }
}

/// Regime 2: on converging cells large enough to clear the floors, the
/// explorer certifies the token ghost once it has parked for good, and
/// the certified run is a strict improvement with identical
/// postconditions: `AllParked`, strictly cheaper than the natural run,
/// the same gossip output at every agent, and the minimal agent still
/// met every teammate.
#[test]
fn certified_early_runs_preserve_outputs_and_completeness() {
    let cells = [
        (GraphFamily::Ring, 5, 3, AdversaryKind::EagerMeet),
        (GraphFamily::Ring, 6, 2, AdversaryKind::GreedyAvoid),
        (GraphFamily::Path, 6, 3, AdversaryKind::LazySecond),
        (GraphFamily::RandomTree, 8, 2, AdversaryKind::GreedyAvoid),
        (GraphFamily::Gnp, 6, 3, AdversaryKind::RoundRobin),
        (GraphFamily::Lollipop, 7, 3, AdversaryKind::RoundRobin),
    ];
    for (family, n, k, kind) in cells {
        let armed = run_cell(
            family,
            n,
            k,
            kind,
            5_000_000,
            SglConfig::default().suspension,
        );
        let disarmed = run_cell(family, n, k, kind, 5_000_000, None);
        assert_eq!(disarmed.end, RunEnd::AllParked, "{family}({n})/{kind}/k{k}");
        assert_eq!(
            armed.end,
            RunEnd::AllParked,
            "{family}({n})/{kind}/k{k}: the certified run must still quiesce"
        );
        assert!(
            armed.certificates.iter().any(Option::is_some),
            "{family}({n})/{kind}/k{k}: a cell this size must certify its parked token"
        );
        assert!(
            armed.cost < disarmed.cost,
            "{family}({n})/{kind}/k{k}: certified {} must beat natural {}",
            armed.cost,
            disarmed.cost
        );
        assert_eq!(
            armed.outputs, disarmed.outputs,
            "{family}({n})/{kind}/k{k}: certifying must not change any gossip output"
        );
        assert!(
            armed.outputs.iter().all(Option::is_some),
            "{family}({n})/{kind}/k{k}: every agent must output"
        );
        assert!(
            (1..armed.outputs.len()).all(|j| armed.meetings.pair_met(0, j)),
            "{family}({n})/{kind}/k{k}: the minimal agent must have met every teammate"
        );
    }
}

/// Regime 3: on the suspension cells the explorer certifies, the
/// evidence meets the policy floors, and the run quiesces with the
/// paper's postconditions intact — several-fold under where the
/// certificate-free run would still be walking. Each cell's certified
/// quiescence cost is pinned exactly (`ring(16)/lazy(1)/k2` needs about
/// 19.6M traversals without the certificate).
#[test]
fn suspension_cells_certify_and_quiesce_complete() {
    let policy = SuspensionPolicy::default();
    let cells = [
        (
            GraphFamily::RandomTree,
            8,
            3,
            AdversaryKind::LazySecond,
            2_500_000,
            491_352,
        ),
        (
            GraphFamily::RandomTree,
            8,
            3,
            AdversaryKind::GreedyAvoid,
            2_500_000,
            491_392,
        ),
        (
            GraphFamily::Gnp,
            8,
            4,
            AdversaryKind::GreedyAvoid,
            2_500_000,
            485_301,
        ),
        (
            GraphFamily::Ring,
            12,
            2,
            AdversaryKind::LazySecond,
            50_000_000,
            814_799,
        ),
        (
            GraphFamily::Ring,
            16,
            2,
            AdversaryKind::LazySecond,
            50_000_000,
            645_705,
        ),
    ];
    for (family, n, k, kind, cutoff, cost) in cells {
        let r = run_cell(family, n, k, kind, cutoff, Some(policy));
        assert_eq!(
            r.end,
            RunEnd::AllParked,
            "{family}({n})/{kind}/k{k} must quiesce certified"
        );
        assert_eq!(
            r.cost, cost,
            "{family}({n})/{kind}/k{k}: certified quiescence cost"
        );
        let cert = r
            .certificates
            .iter()
            .flatten()
            .next()
            .unwrap_or_else(|| panic!("{family}({n})/{kind}/k{k} must hold a certificate"));
        assert!(
            cert.sightings >= policy.min_sightings && cert.span >= policy.min_span,
            "{family}({n})/{kind}/k{k}: certificate evidence {cert:?} below the policy floors"
        );
        assert!(
            r.outputs.iter().all(Option::is_some),
            "{family}({n})/{kind}/k{k}: every agent must output"
        );
        assert!(
            (1..r.outputs.len()).all(|j| r.meetings.pair_met(0, j)),
            "{family}({n})/{kind}/k{k}: the minimal agent must have met every teammate"
        );
    }
}
