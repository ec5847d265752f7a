//! The benchmark's workloads: what each item runs, how its inputs are
//! generated, and how its verdict is checked against a known answer.
//!
//! An item runs from its first layer call to a checked verdict:
//!
//! * an **explore** item runs `explore()` on a generated TPC-C client
//!   program and checks the counted histories, end states and explore
//!   calls against their pinned values;
//! * a **store** item runs the simulated store (`run_simulation`), checks
//!   the recorded history with `DecomposingChecker::check_witnessed`, and
//!   verifies the evidence: a witness must replay (`Witness::replays`), a
//!   violation core must be a closed cycle, and the recorded history's
//!   fingerprint and verdict must match their pinned values.
//!
//! Each item drops what it built before it returns, so its teardown is
//! billed to it and not to whatever runs next.

use std::hint::black_box;
use std::time::Duration;

use txdpor_analysis::{decompose, DecomposingChecker, ProgramFootprints};
use txdpor_apps::workload::{client_program, App, MixedScenario, WorkloadConfig};
use txdpor_apps::{app_deployments, app_sim_config};
use txdpor_explore::{explore, ExploreConfig};
use txdpor_history::{ConsistencyChecker, History, IsolationLevel, LevelSpec, Verdict, Violation};
use txdpor_program::Program;
use txdpor_store::{run_simulation, FaultPlan, SimConfig};

use crate::pins::Pins;
use crate::trace::Tracer;

/// Wall-clock budget of one item; an item over it counts as failed. No
/// item of the workloads comes within a factor of five of it.
pub const ITEM_BUDGET: Duration = Duration::from_secs(30);

/// The benchmark's workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Explorer-heavy: `explore-ce(CC)` and `explore-ce*` with weak bases
    /// (RA, RC, true) filtered by CC on TPC-C programs.
    ExploreTpcc,
    /// Check-heavy: the `CC` exploration of the same programs, filtered by
    /// the strong levels PC, SI, SER and the mixed `tpcc:pay-ser` spec.
    FilterStrong,
    /// The simulated store under faults, checked with evidence.
    StoreCheck,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::ExploreTpcc,
        Workload::FilterStrong,
        Workload::StoreCheck,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreTpcc => "explore-tpcc",
            Workload::FilterStrong => "filter-strong",
            Workload::StoreCheck => "store-check",
        }
    }

    /// The workload with the given name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// An algorithm configuration of an explore item.
#[derive(Copy, Clone, Debug)]
enum Algo {
    /// `explore-ce(I)`.
    Ce(IsolationLevel),
    /// `explore-ce*(I0, I)`.
    Star(IsolationLevel, IsolationLevel),
    /// `explore-ce*(CC, spec)` with the scenario's spec resolved on the
    /// program.
    Mixed(MixedScenario),
}

impl Algo {
    fn label(self) -> String {
        match self {
            Algo::Ce(l) => l.short_name().to_owned(),
            Algo::Star(base, target) => format!("{}+{}", base.short_name(), target.short_name()),
            Algo::Mixed(sc) => format!("{}+mix:{}", sc.base_level().short_name(), sc.name()),
        }
    }

    fn config(self, program: &Program) -> ExploreConfig {
        match self {
            Algo::Ce(l) => ExploreConfig::explore_ce(l),
            Algo::Star(base, target) => ExploreConfig::explore_ce_star(base, target),
            Algo::Mixed(sc) => ExploreConfig::explore_ce_star_spec(
                LevelSpec::uniform(sc.base_level()),
                sc.spec_for(program),
            ),
        }
        .with_timeout(ITEM_BUDGET)
    }
}

use IsolationLevel::{
    CausalConsistency as CC, PrefixConsistency as PC, ReadAtomic as RA, ReadCommitted as RC,
    Serializability as SER, SnapshotIsolation as SI, Trivial as TRUE,
};

/// TPC-C program seeds of the explore workloads.
const TPCC_SEEDS: [u64; 4] = [1, 2, 3, 4];

/// A group of explore items: every algorithm on every seed, at one
/// `sessions × transactions` shape.
struct ExploreGroup {
    shape: (usize, usize),
    algos: &'static [Algo],
}

/// Explorer-heavy items. The RC and `true` bases run at 3×2: at 3×3 they
/// take 6.1 s and 15.9 s on tpcc-4 and time out on the other seeds, more
/// than a whole run may spend.
const EXPLORE_TPCC: [ExploreGroup; 2] = [
    ExploreGroup {
        shape: (3, 3),
        algos: &[Algo::Ce(CC), Algo::Star(RA, CC)],
    },
    ExploreGroup {
        shape: (3, 2),
        algos: &[Algo::Star(RC, CC), Algo::Star(TRUE, CC)],
    },
];

/// Check-heavy items: the same CC exploration, four output filters.
const FILTER_STRONG: [ExploreGroup; 1] = [ExploreGroup {
    shape: (3, 3),
    algos: &[
        Algo::Star(CC, PC),
        Algo::Star(CC, SI),
        Algo::Star(CC, SER),
        Algo::Mixed(MixedScenario::TpccPaymentSer),
    ],
}];

/// Applications of the store workload with their `sessions ×
/// transactions` shape. Courseware runs at 5×5: at 6×6 a single seed's
/// twelve items take about 90 s (one PC check alone 14–30 s at 1.3–2 GB).
const STORE_APPS: [(App, usize, usize); 5] = [
    (App::Tpcc, 6, 6),
    (App::Twitter, 6, 6),
    (App::Wikipedia, 6, 6),
    (App::ShoppingCart, 6, 6),
    (App::Courseware, 5, 5),
];

/// Fault-plan presets of the store workload.
const STORE_FAULTS: [&str; 2] = ["chaos", "crash-chaos"];

/// Simulation seeds of the store workload.
const STORE_SEEDS: [u64; 1] = [1];

/// What one item runs.
#[derive(Debug)]
pub enum Job {
    /// One exploration of a generated program.
    Explore {
        /// The generated client program.
        program: Program,
        /// The algorithm configuration.
        config: ExploreConfig,
    },
    /// One simulated store run, checked against the deployment's claim.
    Store {
        /// The generated simulation config.
        config: SimConfig,
    },
}

/// One unit of measured work.
#[derive(Debug)]
pub struct Item {
    /// Stable identifier, the key of the item's pinned answer.
    pub id: String,
    /// What the item runs.
    pub job: Job,
}

impl Item {
    /// Whether the exploration runs under uniform Causal Consistency (the
    /// items whose explore calls must agree across workloads).
    pub fn cc_base(&self) -> bool {
        matches!(&self.job, Job::Explore { config, .. } if config.exploration == LevelSpec::uniform(CC))
    }
}

/// Generates the workload's inputs and runs its one-time analyses,
/// returning its items in canonical order. Deterministic: the inputs do
/// not depend on the benchmark seed, which only orders the items (see
/// `main.rs`).
pub fn setup(w: Workload, tracer: &mut Tracer) -> Vec<Item> {
    match w {
        Workload::ExploreTpcc => explore_items(&EXPLORE_TPCC, tracer),
        Workload::FilterStrong => explore_items(&FILTER_STRONG, tracer),
        Workload::StoreCheck => store_items(tracer),
    }
}

fn explore_items(groups: &[ExploreGroup], tracer: &mut Tracer) -> Vec<Item> {
    let mut items = Vec::new();
    for g in groups {
        let (sessions, transactions) = g.shape;
        for seed in TPCC_SEEDS {
            let program = tracer.span("apps.generate", || {
                client_program(&WorkloadConfig {
                    app: App::Tpcc,
                    sessions,
                    transactions_per_session: transactions,
                    seed,
                })
            });
            let footprints = tracer.span("analysis.footprint", || {
                ProgramFootprints::analyze(&program)
            });
            black_box(footprints.predicted_components());
            for &algo in g.algos {
                items.push(Item {
                    id: format!("tpcc-{seed}/{sessions}x{transactions}/{}", algo.label()),
                    job: Job::Explore {
                        config: algo.config(&program),
                        program: program.clone(),
                    },
                });
            }
        }
    }
    items
}

fn store_items(tracer: &mut Tracer) -> Vec<Item> {
    let mut items = Vec::new();
    for (app, sessions, transactions) in STORE_APPS {
        for seed in STORE_SEEDS {
            for deployment in app_deployments(app) {
                for faults in STORE_FAULTS {
                    let id = format!(
                        "{}-{seed}/{sessions}x{transactions}/{}/{faults}",
                        app.name(),
                        deployment.name
                    );
                    let plan = FaultPlan::preset(faults).expect("fault presets exist");
                    let config = tracer.span("apps.generate", || {
                        app_sim_config(app, sessions, transactions, seed, deployment.clone(), plan)
                    });
                    items.push(Item {
                        id,
                        job: Job::Store { config },
                    });
                }
            }
        }
    }
    items
}

/// Layer counters of one item run; summed over a pass they are the
/// traced run's count metrics.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub explore_calls: u64,
    pub end_states: u64,
    pub outputs: u64,
    pub blocked: u64,
    pub history_clones: u64,
    pub statically_pruned: u64,
    pub components: u64,
    pub largest_component: u64,
    pub checks: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub incremental_hits: u64,
    /// Nanoseconds the exploration's engines spent deciding checks (their
    /// own timer, inside `explore()`).
    pub check_nanos: u64,
    pub messages: u64,
    pub committed: u64,
    pub attempts_aborted: u64,
    pub rpc_resends: u64,
    pub dropped: u64,
    pub wal_replayed: u64,
    pub sim_time_us: u64,
}

/// A recorded store history kept past its item for the traced run's
/// evidence measurements.
#[derive(Debug)]
pub struct Evidence {
    history: History,
    claimed: LevelSpec,
}

/// What an item produced.
#[derive(Debug)]
pub struct Outcome {
    /// The canonical rendering of the item's answer, compared with its pin.
    pub answer: String,
    /// Why the verdict is wrong, if it is.
    pub failure: Option<String>,
    pub counters: Counters,
    /// The store history, when the caller asked to keep it.
    pub evidence: Option<Evidence>,
}

/// Runs one item to a checked verdict. With `pins`, a mismatch with the
/// pinned answer is a failure; without, only the evidence is checked
/// (used to print fresh pins). `keep_evidence` returns a store item's
/// history instead of dropping it.
pub fn run_item(
    item: &Item,
    pins: Option<&Pins>,
    keep_evidence: bool,
    tracer: &mut Tracer,
) -> Outcome {
    let mut outcome = match &item.job {
        Job::Explore { program, config } => run_explore(program, config, tracer),
        Job::Store { config } => run_store(config, keep_evidence, tracer),
    };
    if outcome.failure.is_none() {
        if let Some(pins) = pins {
            match pins.get(&item.id) {
                None => {
                    outcome.failure = Some("no pinned answer (regenerate with --print-pins)".into())
                }
                Some(pinned) if pinned != outcome.answer => {
                    outcome.failure = Some(format!(
                        "answer `{}` differs from pinned `{pinned}`",
                        outcome.answer
                    ));
                }
                Some(_) => {}
            }
        }
    }
    outcome
}

fn run_explore(program: &Program, config: &ExploreConfig, tracer: &mut Tracer) -> Outcome {
    txdpor_history::reset_clone_stats();
    let report = tracer.span("explore.explore", || explore(program, config.clone()));
    let (history_clones, _) = txdpor_history::clone_stats();
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            return Outcome {
                answer: String::new(),
                failure: Some(format!("explore failed: {e}")),
                counters: Counters::default(),
                evidence: None,
            }
        }
    };
    let e = &report.engine_stats;
    let counters = Counters {
        explore_calls: report.explore_calls,
        end_states: report.end_states,
        outputs: report.outputs,
        blocked: report.blocked,
        history_clones,
        statically_pruned: report.statically_pruned,
        components: report.components,
        largest_component: report.largest_component,
        checks: report.engine_checks,
        memo_hits: report.engine_memo_hits,
        memo_misses: e.memo_misses,
        incremental_hits: e.incremental_hits,
        check_nanos: e.check_nanos,
        ..Counters::default()
    };
    let answer = format!(
        "outputs={} end_states={} explore_calls={}",
        report.outputs, report.end_states, report.explore_calls
    );
    let failure = report
        .timed_out
        .then(|| format!("over the {ITEM_BUDGET:?} budget"));
    tracer.span("item.teardown", || drop(report));
    Outcome {
        answer,
        failure,
        counters,
        evidence: None,
    }
}

/// Whether a violation core is a closed cycle.
fn closed(v: &Violation) -> bool {
    !v.cycle.is_empty()
        && v.cycle
            .iter()
            .zip(v.cycle.iter().cycle().skip(1))
            .all(|(e, next)| e.to == next.from)
}

fn run_store(config: &SimConfig, keep_evidence: bool, tracer: &mut Tracer) -> Outcome {
    let out = tracer.span("store.simulate", || run_simulation(config));
    let mut checker = DecomposingChecker::new(&out.claimed, true);
    let verdict = tracer.span("history.check_witnessed", || {
        checker.check_witnessed(&out.history)
    });
    let (kind, mut failure) = match &verdict {
        Verdict::Consistent(w) => {
            let replays = tracer.span("history.replay", || w.replays(&out.history, &out.claimed));
            (
                "consistent",
                (!replays).then(|| "witness does not replay".to_owned()),
            )
        }
        Verdict::Inconsistent(v) => (
            "violation",
            if !closed(v) {
                Some("violation core is not a closed cycle".to_owned())
            } else if config.deployment.honest() {
                Some("honest deployment violates its claim".to_owned())
            } else {
                None
            },
        ),
    };
    if let Some(b) = out.invariant_breaches.first() {
        failure.get_or_insert_with(|| format!("invariant breach: {b}"));
    }
    let (f0, f1) = out.history.fingerprint_hash();
    let s = &out.stats;
    let e = checker.stats();
    let counters = Counters {
        components: checker.components(),
        largest_component: checker.largest_component(),
        checks: e.checks,
        memo_hits: e.memo_hits,
        memo_misses: e.memo_misses,
        incremental_hits: e.incremental_hits,
        messages: s.messages,
        committed: s.committed,
        attempts_aborted: s.attempts_aborted,
        rpc_resends: s.rpc_resends,
        dropped: s.dropped,
        wal_replayed: s.wal_replayed,
        sim_time_us: s.sim_time_us,
        ..Counters::default()
    };
    let answer = format!("verdict={kind} fingerprint={f0:016x}{f1:016x}");
    let teardown = tracer.begin("item.teardown");
    drop(verdict);
    drop(checker);
    let evidence = if keep_evidence {
        Some(Evidence {
            history: out.history,
            claimed: out.claimed,
        })
    } else {
        drop(out);
        None
    };
    tracer.end(teardown);
    Outcome {
        answer,
        failure,
        counters,
        evidence,
    }
}

/// The traced run's evidence measurements on a recorded store history,
/// made after its item so they do not count in the item's time: the
/// communication-graph decomposition on its own, and the boolean check the
/// witnessed check is compared with.
pub fn measure_evidence(ev: Evidence, tracer: &mut Tracer) {
    let d = tracer.span("analysis.decompose", || decompose(&ev.history));
    black_box(d.len());
    let mut checker = DecomposingChecker::new(&ev.claimed, true);
    let ok = tracer.span("history.check", || checker.check(&ev.history));
    black_box(ok);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 64-bit FNV-1a, a fixed hash for fingerprints that must repeat
    /// across processes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    fn program_fingerprint(p: &Program) -> u64 {
        fnv1a(format!("{p:?}").as_bytes())
    }

    fn ids(w: Workload) -> Vec<String> {
        setup(w, &mut Tracer::new())
            .into_iter()
            .map(|i| i.id)
            .collect()
    }

    #[test]
    fn workloads_have_the_documented_items() {
        assert_eq!(ids(Workload::ExploreTpcc).len(), 16);
        assert_eq!(ids(Workload::FilterStrong).len(), 16);
        assert_eq!(ids(Workload::StoreCheck).len(), 60);
        for w in Workload::ALL {
            let mut v = ids(w);
            let n = v.len();
            v.sort();
            v.dedup();
            assert_eq!(v.len(), n, "{} item ids are unique", w.name());
            assert!(v.iter().all(|id| !id.contains(' ')), "ids hold no spaces");
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for w in [Workload::ExploreTpcc, Workload::FilterStrong] {
            let prints = |items: Vec<Item>| -> Vec<(String, u64)> {
                items
                    .into_iter()
                    .map(|i| match i.job {
                        Job::Explore { program, .. } => (i.id, program_fingerprint(&program)),
                        Job::Store { .. } => unreachable!(),
                    })
                    .collect()
            };
            let a = prints(setup(w, &mut Tracer::new()));
            let b = prints(setup(w, &mut Tracer::new()));
            assert_eq!(a, b, "{} programs repeat", w.name());
        }
        let store = setup(Workload::StoreCheck, &mut Tracer::new());
        let again = setup(Workload::StoreCheck, &mut Tracer::new());
        for (a, b) in store.iter().zip(&again).step_by(7) {
            let (Job::Store { config: ca }, Job::Store { config: cb }) = (&a.job, &b.job) else {
                unreachable!()
            };
            assert_eq!(
                program_fingerprint(&ca.program),
                program_fingerprint(&cb.program)
            );
            let (ha, hb) = (run_simulation(ca).history, run_simulation(cb).history);
            assert_eq!(
                ha.fingerprint_hash(),
                hb.fingerprint_hash(),
                "{} history repeats",
                a.id
            );
        }
    }

    #[test]
    fn cc_base_items_are_the_cc_explorations() {
        let items = setup(Workload::ExploreTpcc, &mut Tracer::new());
        let cc: Vec<&str> = items
            .iter()
            .filter(|i| i.cc_base())
            .map(|i| i.id.as_str())
            .collect();
        assert_eq!(
            cc,
            [
                "tpcc-1/3x3/CC",
                "tpcc-2/3x3/CC",
                "tpcc-3/3x3/CC",
                "tpcc-4/3x3/CC"
            ]
        );
        let strong = setup(Workload::FilterStrong, &mut Tracer::new());
        assert!(strong.iter().all(Item::cc_base));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
