//! Efficient consistency checking of histories against isolation levels,
//! following the algorithms of Biswas & Enea (OOPSLA 2019) that the paper's
//! implementation relies on (§7.1).
//!
//! Every level, uniform or assigned per transaction by a
//! [`crate::isolation::LevelSpec`], is decided by one procedure
//! ([`mixed`]), run by one stateful engine ([`engine::MixedEngine`]):
//!
//! * Read Committed, Read Atomic and Causal Consistency readers force
//!   commit-order edges that can be computed in polynomial time, because
//!   their axiom premises do not mention `co` ([`weak`]). Without a
//!   stronger level in the spec, the history is consistent iff
//!   `so ∪ wr ∪ forced` is acyclic.
//! * Prefix Consistency, Snapshot Isolation and Serializability are decided
//!   by a memoised search over session frontiers, polynomial for a fixed
//!   number of sessions: SER transactions are placed atomically and read
//!   from the last committed writer; SI and PC transactions occupy
//!   start/commit intervals with snapshot reads (the classical
//!   characterisation of the Prefix axiom), and SI adds the write-conflict
//!   rule of the Conflict axiom. The forced edges of weak readers become
//!   commit prerequisites of the search.
//! * A witnessed check returns the verdict with its [`evidence`]: the
//!   deciding search's own commit order as a replayable witness, or a
//!   minimal violation cycle.
//!
//! The slow axiom-level oracle in [`crate::axioms`] cross-validates all of
//! this in the test suite.

pub mod engine;
pub mod evidence;
pub(crate) mod frontier;
pub mod mixed;
pub mod shared;
pub mod weak;

use crate::history::History;
use crate::isolation::{IsolationLevel, LevelSpec};

pub use engine::{
    engine_for, engine_for_spec, engine_for_spec_with, engine_for_with, ConsistencyChecker,
    EngineStats, MixedEngine,
};
pub use evidence::{AxiomInstance, EdgeReason, Verdict, Violation, ViolationEdge, Witness};
pub use mixed::satisfies_spec;
pub use shared::SharedMemo;

/// Whether the history satisfies the isolation level (Definition 2.2).
///
/// This is the stateless entry point: it builds fresh indexes and runs a
/// single check, so nothing is amortised across calls. Long-running
/// explorations should create an engine once (via [`engine_for`]) and
/// reuse it.
pub fn satisfies(h: &History, level: IsolationLevel) -> bool {
    satisfies_spec(h, &LevelSpec::uniform(level))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::axioms::{oracle_satisfies, oracle_satisfies_spec};
    use crate::event::{Event, EventId, EventKind};
    use crate::testkit::{assert_verdict_valid, random_history, random_spec, XorShift};
    use crate::transaction::{SessionId, TxId};
    use crate::value::{Value, Var};

    /// Builds a history transaction by transaction, with fresh event and
    /// transaction ids.
    pub(crate) struct Builder {
        pub(crate) h: History,
        next_event: u32,
        next_tx: u32,
    }

    impl Builder {
        pub(crate) fn new() -> Self {
            Builder {
                h: History::new([]),
                next_event: 0,
                next_tx: 0,
            }
        }
        fn fresh(&mut self) -> EventId {
            self.next_event += 1;
            EventId(self.next_event)
        }
        pub(crate) fn begin(&mut self, s: u32) -> TxId {
            self.next_tx += 1;
            let id = TxId(self.next_tx);
            let idx = self.h.session_txs(SessionId(s)).len();
            let e = Event::new(self.fresh(), EventKind::Begin);
            self.h.begin_transaction(SessionId(s), id, idx, e);
            id
        }
        pub(crate) fn write(&mut self, s: u32, x: Var, v: i64) {
            let e = Event::new(self.fresh(), EventKind::Write(x, Value::Int(v)));
            self.h.append_event(SessionId(s), e);
        }
        pub(crate) fn read(&mut self, s: u32, x: Var, from: TxId) {
            let e = Event::new(self.fresh(), EventKind::Read(x));
            let id = e.id;
            self.h.append_event(SessionId(s), e);
            self.h.set_wr(id, from);
        }
        pub(crate) fn commit(&mut self, s: u32) {
            let e = Event::new(self.fresh(), EventKind::Commit);
            self.h.append_event(SessionId(s), e);
        }
        pub(crate) fn abort(&mut self, s: u32) {
            let e = Event::new(self.fresh(), EventKind::Abort);
            self.h.append_event(SessionId(s), e);
        }
    }

    #[test]
    fn specialised_checkers_agree_with_oracle_on_random_histories() {
        let levels = [
            IsolationLevel::ReadCommitted,
            IsolationLevel::ReadAtomic,
            IsolationLevel::CausalConsistency,
            IsolationLevel::PrefixConsistency,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::Serializability,
        ];
        for seed in 0..400u64 {
            let h = random_history(seed, 3, 2, 2);
            for level in levels {
                let fast = satisfies(&h, level);
                let slow = oracle_satisfies(&h, level);
                assert_eq!(
                    fast, slow,
                    "checker mismatch for {level} on seed {seed}:\n{h}"
                );
            }
        }
    }

    #[test]
    fn mixed_checker_agrees_with_oracle_on_random_histories_and_specs() {
        // The operational mixed checker (forced edges + commit-order
        // search with SI intervals) against the axiom-level oracle that
        // instantiates each read's axioms by its reader's level — over
        // random histories and random per-transaction assignments drawn
        // from ALL levels, SI and `true` included.
        for seed in 0..300u64 {
            let h = random_history(seed, 3, 2, 2);
            let spec = random_spec(seed, &h);
            let fast = satisfies_spec(&h, &spec);
            let slow = oracle_satisfies_spec(&h, &spec);
            assert_eq!(
                fast, slow,
                "mixed checker mismatch for spec {spec} on seed {seed}:\n{h}"
            );
        }
    }

    #[test]
    fn witnessed_verdicts_cross_validate_on_random_histories() {
        for seed in 0..400u64 {
            let h = random_history(seed, 3, 2, 2);
            for level in IsolationLevel::ALL {
                let spec = LevelSpec::uniform(level);
                let mut engine = engine_for(level);
                let verdict = engine.check_witnessed(&h);
                let expected = satisfies(&h, level);
                assert_verdict_valid(
                    &h,
                    &spec,
                    &verdict,
                    expected,
                    &format!("{level} on seed {seed}"),
                );
            }
        }
    }

    #[test]
    fn witnessed_verdicts_cross_validate_on_random_specs() {
        // Same corpus of history × per-transaction-spec pairs as the
        // boolean mixed cross-validation above: every success must come
        // with a replayable witness, every failure with a checkable
        // minimal cycle.
        for seed in 0..300u64 {
            let h = random_history(seed, 3, 2, 2);
            let spec = random_spec(seed, &h);
            let mut engine = engine_for_spec(&spec);
            let verdict = engine.check_witnessed(&h);
            let expected = satisfies_spec(&h, &spec);
            assert_verdict_valid(
                &h,
                &spec,
                &verdict,
                expected,
                &format!("spec {spec} on seed {seed}"),
            );
        }
    }

    /// A spec drawing its default and every position from `pool`.
    fn spec_from(pool: &[IsolationLevel], seed: u64, h: &History) -> LevelSpec {
        let mut rng = XorShift(seed.wrapping_mul(0x2545f4914f6cdd1d).wrapping_add(7));
        let mut pick = || pool[rng.below(pool.len() as u64) as usize];
        let mut spec = LevelSpec::uniform(pick());
        for (sid, txs) in h.sessions() {
            for k in 0..txs.len() {
                spec = spec.with_override(sid.0, k as u32, pick());
            }
        }
        spec
    }

    #[test]
    fn strong_only_specs_agree_with_oracle_with_memo_on_and_off() {
        // Specs without RC/RA/CC skip the weak index; PC/SI mixes are
        // where the SI conflict scan is elided at SI commits and run only
        // against started SI transactions.
        use IsolationLevel::*;
        let pools: [&[IsolationLevel]; 2] = [
            &[
                Trivial,
                PrefixConsistency,
                SnapshotIsolation,
                Serializability,
            ],
            &[PrefixConsistency, SnapshotIsolation],
        ];
        for pool in pools {
            for seed in 0..300u64 {
                let h = random_history(seed, 3, 2, 2);
                let spec = spec_from(pool, seed, &h);
                let expected = oracle_satisfies_spec(&h, &spec);
                for memoize in [true, false] {
                    let mut engine = engine_for_spec_with(&spec, memoize);
                    let ctx = format!("spec {spec} (memo {memoize}) on seed {seed}");
                    assert_eq!(engine.check(&h), expected, "{ctx}:\n{h}");
                    // A second check is served by the memo when it is on.
                    let verdict = engine.check_witnessed(&h);
                    assert_verdict_valid(&h, &spec, &verdict, expected, &ctx);
                }
            }
        }
    }

    #[test]
    fn stronger_levels_accept_fewer_histories() {
        // SER ⊆ SI ⊆ PC ⊆ CC ⊆ RA ⊆ RC on random histories.
        for seed in 400..600u64 {
            let h = random_history(seed, 3, 2, 2);
            let rc = satisfies(&h, IsolationLevel::ReadCommitted);
            let ra = satisfies(&h, IsolationLevel::ReadAtomic);
            let cc = satisfies(&h, IsolationLevel::CausalConsistency);
            let pc = satisfies(&h, IsolationLevel::PrefixConsistency);
            let si = satisfies(&h, IsolationLevel::SnapshotIsolation);
            let ser = satisfies(&h, IsolationLevel::Serializability);
            assert!(!ser || si, "SER must imply SI (seed {seed})");
            assert!(!si || pc, "SI must imply PC (seed {seed})");
            assert!(!pc || cc, "PC must imply CC (seed {seed})");
            assert!(!cc || ra, "CC must imply RA (seed {seed})");
            assert!(!ra || rc, "RA must imply RC (seed {seed})");
        }
    }
}

/// Named Serializability anomalies, decided through [`satisfies`] and the
/// engine.
#[cfg(test)]
mod ser {
    mod tests {
        use crate::check::tests::Builder;
        use crate::check::*;
        use crate::isolation::IsolationLevel::*;
        use crate::transaction::TxId;
        use crate::value::Var;

        #[test]
        fn empty_history_is_serializable() {
            assert!(satisfies(&History::default(), Serializability));
        }

        #[test]
        fn lost_update_is_not_serializable() {
            let x = Var(0);
            let mut b = Builder::new();
            b.begin(0);
            b.read(0, x, TxId::INIT);
            b.write(0, x, 1);
            b.commit(0);
            b.begin(1);
            b.read(1, x, TxId::INIT);
            b.write(1, x, 2);
            b.commit(1);
            assert!(!satisfies(&b.h, Serializability));
        }

        #[test]
        fn write_skew_is_not_serializable() {
            let (x, y) = (Var(0), Var(1));
            let mut b = Builder::new();
            b.begin(0);
            b.read(0, x, TxId::INIT);
            b.write(0, y, 1);
            b.commit(0);
            b.begin(1);
            b.read(1, y, TxId::INIT);
            b.write(1, x, 1);
            b.commit(1);
            assert!(!satisfies(&b.h, Serializability));
        }

        #[test]
        fn sequential_reads_are_serializable() {
            let x = Var(0);
            let mut b = Builder::new();
            let t1 = b.begin(0);
            b.write(0, x, 1);
            b.commit(0);
            b.begin(1);
            b.read(1, x, t1);
            b.commit(1);
            b.begin(2);
            b.read(2, x, t1);
            b.commit(2);
            assert!(satisfies(&b.h, Serializability));
        }

        #[test]
        fn reading_overwritten_value_in_session_is_not_serializable() {
            // Session 0: t1 writes x=1, t2 writes x=2. Session 1: reads x from t1
            // and then (another transaction) reads x from t2: serializable.
            let x = Var(0);
            let mut b = Builder::new();
            let t1 = b.begin(0);
            b.write(0, x, 1);
            b.commit(0);
            let t2 = b.begin(0);
            b.write(0, x, 2);
            b.commit(0);
            b.begin(1);
            b.read(1, x, t1);
            b.commit(1);
            b.begin(1);
            b.read(1, x, t2);
            b.commit(1);
            assert!(satisfies(&b.h, Serializability));

            // Reading them in the opposite order (t2 then t1) is not.
            let mut b = Builder::new();
            let t1 = b.begin(0);
            b.write(0, x, 1);
            b.commit(0);
            let t2 = b.begin(0);
            b.write(0, x, 2);
            b.commit(0);
            b.begin(1);
            b.read(1, x, t2);
            b.commit(1);
            b.begin(1);
            b.read(1, x, t1);
            b.commit(1);
            assert!(!satisfies(&b.h, Serializability));
        }

        #[test]
        fn aborted_writer_is_invisible() {
            // An aborted transaction writing x does not block others from
            // reading the initial value.
            let x = Var(0);
            let mut b = Builder::new();
            b.begin(0);
            b.write(0, x, 5);
            b.abort(0);
            b.begin(1);
            b.read(1, x, TxId::INIT);
            b.commit(1);
            assert!(satisfies(&b.h, Serializability));
        }

        #[test]
        fn long_fork_is_not_serializable() {
            // t1 writes x; t2 writes y; t3 reads x (new) and y (init);
            // t4 reads y (new) and x (init). Classic SI-but-not-SER anomaly.
            let (x, y) = (Var(0), Var(1));
            let mut b = Builder::new();
            let t1 = b.begin(0);
            b.write(0, x, 1);
            b.commit(0);
            let t2 = b.begin(1);
            b.write(1, y, 1);
            b.commit(1);
            b.begin(2);
            b.read(2, x, t1);
            b.read(2, y, TxId::INIT);
            b.commit(2);
            b.begin(3);
            b.read(3, y, t2);
            b.read(3, x, TxId::INIT);
            b.commit(3);
            assert!(!satisfies(&b.h, Serializability));
        }
    }
}
/// Named Snapshot Isolation anomalies, decided through [`satisfies`] and the
/// engine.
#[cfg(test)]
mod si {
    mod tests {
        use crate::check::tests::Builder;
        use crate::check::*;
        use crate::isolation::IsolationLevel::*;
        use crate::transaction::TxId;
        use crate::value::Var;

        #[test]
        fn empty_history_satisfies_si() {
            assert!(satisfies(&History::default(), SnapshotIsolation));
        }

        #[test]
        fn lost_update_violates_si() {
            let x = Var(0);
            let mut b = Builder::new();
            b.begin(0);
            b.read(0, x, TxId::INIT);
            b.write(0, x, 1);
            b.commit(0);
            b.begin(1);
            b.read(1, x, TxId::INIT);
            b.write(1, x, 2);
            b.commit(1);
            assert!(!satisfies(&b.h, SnapshotIsolation));
        }

        #[test]
        fn write_skew_satisfies_si() {
            let (x, y) = (Var(0), Var(1));
            let mut b = Builder::new();
            b.begin(0);
            b.read(0, x, TxId::INIT);
            b.write(0, y, 1);
            b.commit(0);
            b.begin(1);
            b.read(1, y, TxId::INIT);
            b.write(1, x, 1);
            b.commit(1);
            assert!(satisfies(&b.h, SnapshotIsolation));
        }

        #[test]
        fn long_fork_violates_si() {
            let (x, y) = (Var(0), Var(1));
            let mut b = Builder::new();
            let t1 = b.begin(0);
            b.write(0, x, 1);
            b.commit(0);
            let t2 = b.begin(1);
            b.write(1, y, 1);
            b.commit(1);
            b.begin(2);
            b.read(2, x, t1);
            b.read(2, y, TxId::INIT);
            b.commit(2);
            b.begin(3);
            b.read(3, y, t2);
            b.read(3, x, TxId::INIT);
            b.commit(3);
            assert!(!satisfies(&b.h, SnapshotIsolation));
        }

        #[test]
        fn fig6_counterexample_to_causal_extensibility() {
            // Fig. 6: session 0: write z=1, read x (from init), write y=1;
            //         session 1: write z=2, read y (from init), write x=2.
            // Both write z, both read the other's written variable from init:
            // write-conflict on z forces disjoint intervals while the stale
            // reads force overlapping ones — inconsistent with SI (and SER).
            let (x, y, z) = (Var(0), Var(1), Var(2));
            let mut b = Builder::new();
            b.begin(0);
            b.write(0, z, 1);
            b.read(0, x, TxId::INIT);
            b.write(0, y, 1);
            b.commit(0);
            b.begin(1);
            b.write(1, z, 2);
            b.read(1, y, TxId::INIT);
            b.write(1, x, 2);
            b.commit(1);
            assert!(!satisfies(&b.h, SnapshotIsolation));
            assert!(!satisfies(&b.h, Serializability));
            // Without the write(x,2) (the blue event in Fig. 6) it satisfies SI.
            let mut b = Builder::new();
            b.begin(0);
            b.write(0, z, 1);
            b.read(0, x, TxId::INIT);
            b.write(0, y, 1);
            b.commit(0);
            b.begin(1);
            b.write(1, z, 2);
            b.read(1, y, TxId::INIT);
            b.commit(1);
            assert!(satisfies(&b.h, SnapshotIsolation));
        }

        #[test]
        fn session_order_respected() {
            // A later transaction of the same session must observe the earlier one.
            let x = Var(0);
            let mut b = Builder::new();
            b.begin(0);
            b.write(0, x, 1);
            b.commit(0);
            b.begin(0);
            b.read(0, x, TxId::INIT); // stale read of own session's past
            b.commit(0);
            assert!(!satisfies(&b.h, SnapshotIsolation));
        }

        #[test]
        fn serializable_history_satisfies_si() {
            let x = Var(0);
            let mut b = Builder::new();
            let t1 = b.begin(0);
            b.write(0, x, 1);
            b.commit(0);
            b.begin(1);
            b.read(1, x, t1);
            b.write(1, x, 2);
            b.commit(1);
            assert!(satisfies(&b.h, SnapshotIsolation));
        }
    }
}
/// Named Prefix Consistency anomalies, decided through [`satisfies`] and the
/// engine.
#[cfg(test)]
mod pc {
    mod tests {
        use crate::check::tests::Builder;
        use crate::check::*;
        use crate::isolation::IsolationLevel::*;
        use crate::transaction::TxId;
        use crate::value::Var;

        #[test]
        fn empty_history_satisfies_pc() {
            assert!(satisfies(&History::default(), PrefixConsistency));
        }

        #[test]
        fn lost_update_satisfies_pc_but_not_si() {
            // Both transactions read x from init and write it: the Conflict
            // axiom rejects this under SI, but PC has no conflict rule.
            let x = Var(0);
            let mut b = Builder::new();
            b.begin(0);
            b.read(0, x, TxId::INIT);
            b.write(0, x, 1);
            b.commit(0);
            b.begin(1);
            b.read(1, x, TxId::INIT);
            b.write(1, x, 2);
            b.commit(1);
            assert!(satisfies(&b.h, PrefixConsistency));
            assert!(!satisfies(&b.h, SnapshotIsolation));
        }

        #[test]
        fn long_fork_violates_pc_but_not_cc() {
            // t1 writes x; t2 writes y; t3 reads x (new) and y (init); t4 reads
            // y (new) and x (init). The two readers need prefixes ordering t1
            // and t2 oppositely, so no snapshot assignment exists — yet there
            // is no causal relation between t1 and t2, so CC accepts.
            let (x, y) = (Var(0), Var(1));
            let mut b = Builder::new();
            let t1 = b.begin(0);
            b.write(0, x, 1);
            b.commit(0);
            let t2 = b.begin(1);
            b.write(1, y, 1);
            b.commit(1);
            b.begin(2);
            b.read(2, x, t1);
            b.read(2, y, TxId::INIT);
            b.commit(2);
            b.begin(3);
            b.read(3, y, t2);
            b.read(3, x, TxId::INIT);
            b.commit(3);
            assert!(!satisfies(&b.h, PrefixConsistency));
            assert!(satisfies(&b.h, CausalConsistency));
        }

        #[test]
        fn write_skew_satisfies_pc() {
            let (x, y) = (Var(0), Var(1));
            let mut b = Builder::new();
            b.begin(0);
            b.read(0, x, TxId::INIT);
            b.write(0, y, 1);
            b.commit(0);
            b.begin(1);
            b.read(1, y, TxId::INIT);
            b.write(1, x, 1);
            b.commit(1);
            assert!(satisfies(&b.h, PrefixConsistency));
        }

        #[test]
        fn session_order_respected() {
            // A later transaction of the same session must observe the earlier one.
            let x = Var(0);
            let mut b = Builder::new();
            b.begin(0);
            b.write(0, x, 1);
            b.commit(0);
            b.begin(0);
            b.read(0, x, TxId::INIT); // stale read of own session's past
            b.commit(0);
            assert!(!satisfies(&b.h, PrefixConsistency));
        }

        #[test]
        fn witness_order_is_a_replayable_commit_order() {
            let x = Var(0);
            let mut b = Builder::new();
            b.begin(0);
            b.read(0, x, TxId::INIT);
            b.write(0, x, 1);
            b.commit(0);
            b.begin(1);
            b.read(1, x, TxId::INIT);
            b.write(1, x, 2);
            b.commit(1);
            let verdict = engine_for(PrefixConsistency).check_witnessed(&b.h);
            let witness = verdict.witness().expect("lost update is PC-consistent");
            assert!(crate::axioms::check_with_order(
                &b.h,
                PrefixConsistency,
                &witness.commit_order
            ));
        }
    }
}
