//! The decision procedure for every level specification.
//!
//! A [`LevelSpec`] assigns each transaction its own isolation level; a
//! uniform level is the special case that assigns every transaction the
//! same one. A history satisfies a spec when there is a strict total commit
//! order extending `so ∪ wr` in which every transaction obeys the axioms of
//! *its own* level (the per-transaction generalisation of Definition 2.2,
//! following *On the Complexity of Checking Mixed Isolation Levels for SQL
//! Transactions*). One procedure decides all of them:
//!
//! * **Weak readers** (RC/RA/CC): their axiom premises never mention the
//!   commit order, so each such read contributes a set of *forced* edges
//!   computed by the incrementally synced `WeakIndex`, under the premise of
//!   its reader's level. A spec without PC/SI/SER holds iff
//!   `so ∪ wr ∪ forced` is acyclic (Kahn), so no search runs at all.
//! * **Strong transactions** (PC/SI/SER) are decided by a session-frontier
//!   search over commit orders on the `FrontierIndex`, in which the forced
//!   edges become commit prerequisites. Serializability transactions are
//!   placed *atomically* and must read each variable from its last
//!   committed writer. Snapshot Isolation transactions occupy a
//!   start/commit *interval*: reads are checked against the snapshot at
//!   start, and no transaction writing a common variable may commit inside
//!   the interval (the Conflict axiom; for two SI transactions this is the
//!   classical disjoint-interval rule). Prefix Consistency transactions
//!   occupy an interval with the same snapshot reads but no conflict rule
//!   in either direction. Weak and `true` transactions are placed
//!   atomically with no read constraint beyond `wr ⊆ co` and their forced
//!   edges.
//!
//! What a check pays for is selected from the spec alone: the weak index
//! is synced only when some position is RC/RA/CC (readers at `true`,
//! PC, SI and SER force no edges), the frontier index only when some
//! position is PC/SI/SER, and a uniformly `true` spec is decided without
//! either. The axiom-level oracle in [`crate::axioms`] cross-validates the
//! procedure on random histories under uniform and random specs (see the
//! tests of [`crate::check`]).

use std::collections::HashSet;

use crate::check::frontier::FrontierIndex;
use crate::check::weak::WeakIndex;
use crate::history::History;
use crate::isolation::{IsolationLevel, LevelSpec};
use crate::transaction::TxId;

/// Whether the history satisfies the level spec. Stateless entry point:
/// builds fresh indexes per call. Long-running explorations should use the
/// memoised engine from [`crate::check::engine::engine_for_spec`].
pub fn satisfies_spec(h: &History, spec: &LevelSpec) -> bool {
    Decider::new(spec.clone()).decide(h)
}

/// The incrementally synced indexes and search buffers that decide one
/// level spec, owned by the engine so repeated checks allocate nothing.
#[derive(Debug)]
pub(crate) struct Decider {
    spec: LevelSpec,
    /// Whether some position is RC/RA/CC, i.e. reads force commit-order
    /// edges and the weak index has to be synced.
    weak_readers: bool,
    /// Whether some position is PC/SI/SER, i.e. the commit-order search
    /// runs.
    strong: bool,
    pub(crate) weak: WeakIndex,
    pub(crate) frontier: FrontierIndex,
    scratch: SearchScratch,
}

impl Decider {
    pub(crate) fn new(spec: LevelSpec) -> Self {
        Decider {
            weak_readers: [
                IsolationLevel::ReadCommitted,
                IsolationLevel::ReadAtomic,
                IsolationLevel::CausalConsistency,
            ]
            .into_iter()
            .any(|l| spec.mentions(l)),
            strong: spec.has_strong(),
            weak: WeakIndex::new(spec.clone()),
            spec,
            frontier: FrontierIndex::default(),
            scratch: SearchScratch::default(),
        }
    }

    /// Whether the spec is uniformly `true`: every history is consistent,
    /// with no commit-order obligation (the paper's trivial level). A spec
    /// that only *mixes in* `true` positions keeps Definition 2.2's
    /// requirement that a commit order extending `so ∪ wr` exists.
    pub(crate) fn is_trivial(&self) -> bool {
        self.spec.as_uniform() == Some(IsolationLevel::Trivial)
    }

    /// Whether `h` satisfies the spec.
    pub(crate) fn decide(&mut self, h: &History) -> bool {
        if self.is_trivial() {
            return true;
        }
        if !self.strong {
            self.weak.sync(h);
            return self.weak.decide();
        }
        self.search(h, None)
    }

    /// The commit order (init first) of a successful decision, `None` when
    /// `h` violates the spec.
    pub(crate) fn witness(&mut self, h: &History) -> Option<Vec<TxId>> {
        if !self.strong {
            // Any topological order of `so ∪ wr ∪ forced` witnesses the
            // weak readers' axioms (and is all `true` asks for).
            self.weak.sync(h);
            return self.weak.witness_order();
        }
        let mut order = vec![TxId::INIT];
        self.search(h, Some(&mut order)).then_some(order)
    }

    /// Syncs the indexes the spec needs and runs the commit-order search,
    /// recording the order into `order` when given.
    fn search(&mut self, h: &History, order: Option<&mut Vec<TxId>>) -> bool {
        let forced = &mut self.scratch.forced_tx;
        forced.clear();
        if self.weak_readers {
            self.weak.sync(h);
            self.weak.collect_forced_tx(forced);
        }
        self.frontier.sync(h);
        let s = &mut self.scratch;
        if !s.prepare(&self.spec, &self.frontier) {
            return false;
        }
        Search {
            idx: &self.frontier,
            s,
            order,
        }
        .run()
    }
}

/// Marker of a variable without a position in [`SearchScratch::last`].
const UNTRACKED: u32 = u32::MAX;

/// Buffers and state of the commit-order search, reused across checks.
#[derive(Debug, Default)]
struct SearchScratch {
    /// Forced commit-order edges of the weak readers, as transaction ids.
    forced_tx: Vec<(TxId, TxId)>,
    /// `slot ↦` the level the spec assigns the slot's transaction.
    level: Vec<IsolationLevel>,
    /// Forced edges as `(target, source)` slots sorted by target: the
    /// slots that must commit before `slot` are
    /// `preds[pred_head[slot]..pred_head[slot + 1]]`.
    preds: Vec<(u32, u32)>,
    pred_head: Vec<u32>,
    /// `slot ↦` whether the slot is committed in the current prefix.
    committed: Vec<bool>,
    /// `var ↦` its position in `last`, or [`UNTRACKED`] for a variable no
    /// transaction reads externally: its last writer constrains nothing,
    /// so it is neither tracked nor part of the failed-state key.
    var_pos: Vec<u32>,
    /// Search state: per session `2 · next index + started`, where the
    /// started bit is only ever set for PC and SI interval transactions …
    pos: Vec<u32>,
    /// … and the last committed writer (`TxId.0`, 0 = init) of every
    /// tracked variable. The committed set is a function of `pos`.
    last: Vec<u32>,
    /// Number of started, uncommitted SI transactions.
    started_si: u32,
    /// Number of committed transactions.
    placed: usize,
    /// `(position in last, previous writer)`, restored on backtrack.
    undo: Vec<(u32, u32)>,
    /// Failed states (`pos` then `last`), cleared per check: entries are
    /// only meaningful within one history.
    failed: HashSet<Box<[u32]>>,
    /// Key buffer, so a state is copied out only when it fails.
    key: Vec<u32>,
}

impl SearchScratch {
    /// Resets the search for the history `idx` is synced to, with
    /// `forced_tx` as commit prerequisites. Returns `false` when a forced
    /// edge alone is unsatisfiable.
    fn prepare(&mut self, spec: &LevelSpec, idx: &FrontierIndex) -> bool {
        let n = idx.len();
        self.level.clear();
        self.level.resize(n, spec.default_level());
        if spec.as_uniform().is_none() {
            for (s, txs) in idx.sessions.iter().enumerate() {
                for (k, &(_, slot)) in txs.iter().enumerate() {
                    self.level[slot as usize] = spec.level_of(s as u32, k as u32);
                }
            }
        }
        self.preds.clear();
        for &(a, b) in &self.forced_tx {
            if b.is_init() {
                // Init commits first by construction.
                return false;
            }
            if a.is_init() {
                continue; // always satisfied
            }
            let (Some(sa), Some(sb)) = (idx.slot_of(a), idx.slot_of(b)) else {
                return false;
            };
            self.preds.push((sb, sa));
        }
        self.preds.sort_unstable();
        self.pred_head.clear();
        self.pred_head.resize(n + 1, 0);
        for &(b, _) in &self.preds {
            self.pred_head[b as usize + 1] += 1;
        }
        for v in 0..n {
            self.pred_head[v + 1] += self.pred_head[v];
        }
        self.var_pos.clear();
        let mut tracked = 0;
        for &(x, _) in idx.reads.iter().flatten() {
            let x = x.0 as usize;
            if self.var_pos.len() <= x {
                self.var_pos.resize(x + 1, UNTRACKED);
            }
            if self.var_pos[x] == UNTRACKED {
                self.var_pos[x] = tracked;
                tracked += 1;
            }
        }
        self.last.clear();
        self.last.resize(tracked as usize, TxId::INIT.0);
        self.pos.clear();
        self.pos.resize(idx.sessions.len(), 0);
        self.committed.clear();
        self.committed.resize(n, false);
        self.started_si = 0;
        self.placed = 0;
        self.undo.clear();
        self.failed.clear();
        true
    }
}

/// One run of the search over the synced frontier index.
struct Search<'a> {
    idx: &'a FrontierIndex,
    s: &'a mut SearchScratch,
    order: Option<&'a mut Vec<TxId>>,
}

impl Search<'_> {
    fn run(&mut self) -> bool {
        if self.s.placed == self.idx.len() {
            return true;
        }
        self.fill_key();
        if self.s.failed.contains(self.s.key.as_slice()) {
            return false;
        }
        for session in 0..self.idx.sessions.len() {
            if self.step(session) {
                return true;
            }
        }
        // The recursion reused the key buffer: rebuild it.
        self.fill_key();
        self.s.failed.insert(self.s.key.as_slice().into());
        false
    }

    fn fill_key(&mut self) {
        let s = &mut *self.s;
        s.key.clear();
        s.key.extend_from_slice(&s.pos);
        s.key.extend_from_slice(&s.last);
    }

    /// Tries the next move of `session`: starting its current transaction
    /// (PC/SI) or committing it (a started PC/SI transaction, or an atomic
    /// placement at any other level), then searches on.
    fn step(&mut self, session: usize) -> bool {
        let idx = self.idx;
        let p = self.s.pos[session];
        let Some(&(t, slot)) = idx.sessions[session].get(p as usize / 2) else {
            return false;
        };
        let level = self.s.level[slot as usize];
        let interval = matches!(
            level,
            IsolationLevel::SnapshotIsolation | IsolationLevel::PrefixConsistency
        );
        let si = level == IsolationLevel::SnapshotIsolation;
        if interval && p % 2 == 0 {
            // Start: snapshot reads, plus — for SI only — write-conflict
            // freedom against the other started SI transactions.
            if !self.snapshot_ok(slot) || (si && self.conflicts_with_started(session, slot)) {
                return false;
            }
            self.s.pos[session] += 1;
            self.s.started_si += si as u32;
            if self.run() {
                return true;
            }
            self.s.started_si -= si as u32;
            self.s.pos[session] -= 1;
            return false;
        }
        let head = &self.s.pred_head;
        let preds = &self.s.preds[head[slot as usize] as usize..head[slot as usize + 1] as usize];
        if !preds.iter().all(|&(_, p)| self.s.committed[p as usize]) {
            return false;
        }
        let reads_ok = match level {
            // Interval reads were checked at start.
            IsolationLevel::SnapshotIsolation | IsolationLevel::PrefixConsistency => true,
            // Serializability: every external read observes the last
            // committed writer at the placement point.
            IsolationLevel::Serializability => self.snapshot_ok(slot),
            // Weak levels and `true`: the commit order merely extends
            // `wr`, so each observed writer must already be committed (the
            // level's axioms are carried by the forced edges).
            _ => idx.reads[slot as usize].iter().all(|&(_, w)| {
                w.is_init()
                    || idx
                        .slot_of(w)
                        .is_some_and(|ws| self.s.committed[ws as usize])
            }),
        };
        // The commit must not land inside a conflicting started SI
        // interval. An SI commit never does: the start rule keeps the
        // intervals of conflicting SI transactions disjoint.
        if !reads_ok || (!si && self.conflicts_with_started(session, slot)) {
            return false;
        }
        self.commit(session, t, slot, if interval { 1 } else { 2 }, si)
    }

    /// Commits `t` (at `slot`, the current transaction of `session`),
    /// advancing the session's position by `advance`, and searches on.
    fn commit(&mut self, session: usize, t: TxId, slot: u32, advance: u32, si: bool) -> bool {
        let s = &mut *self.s;
        let mark = s.undo.len();
        for x in self.idx.visible_writes(slot as usize) {
            if let Some(&k) = s.var_pos.get(x.0 as usize) {
                if k != UNTRACKED {
                    s.undo.push((k, s.last[k as usize]));
                    s.last[k as usize] = t.0;
                }
            }
        }
        s.pos[session] += advance;
        s.started_si -= si as u32;
        s.committed[slot as usize] = true;
        s.placed += 1;
        if let Some(order) = self.order.as_deref_mut() {
            order.push(t);
        }
        if self.run() {
            return true;
        }
        if let Some(order) = self.order.as_deref_mut() {
            order.pop();
        }
        let s = &mut *self.s;
        s.placed -= 1;
        s.committed[slot as usize] = false;
        s.started_si += si as u32;
        s.pos[session] -= advance;
        for (k, old) in s.undo.drain(mark..).rev() {
            s.last[k as usize] = old;
        }
        false
    }

    /// Whether every external read of `slot` observes the last committed
    /// writer of its variable.
    fn snapshot_ok(&self, slot: u32) -> bool {
        self.idx.reads[slot as usize]
            .iter()
            .all(|&(x, w)| self.s.last[self.s.var_pos[x.0 as usize] as usize] == w.0)
    }

    /// Whether a started SI transaction of another session visibly writes a
    /// variable that `slot` visibly writes. The Conflict axiom forbids a
    /// conflicting writer from committing inside an SI transaction's
    /// interval; Prefix Consistency has no Conflict axiom, so a started PC
    /// interval constrains nobody.
    fn conflicts_with_started(&self, session: usize, slot: u32) -> bool {
        if self.s.started_si == 0 {
            return false;
        }
        let idx = self.idx;
        idx.visible_writes(slot as usize).any(|x| {
            (0..idx.sessions.len()).any(|s2| {
                let p = self.s.pos[s2];
                if s2 == session || p % 2 == 0 {
                    return false;
                }
                let (_, slot2) = idx.sessions[s2][p as usize / 2];
                self.s.level[slot2 as usize] == IsolationLevel::SnapshotIsolation
                    && idx.writes_var(slot2 as usize, x)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::tests::Builder;
    use crate::isolation::IsolationLevel::*;
    use crate::value::Var;

    /// Lost update: both transactions read x from init and write it.
    fn lost_update() -> History {
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
        b.h
    }

    /// Long fork: two blind writers, two readers observing them in
    /// opposite orders.
    fn long_fork() -> History {
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
        b.h
    }

    #[test]
    fn uniform_specs_match_uniform_checkers() {
        // The uniform checker here is the axiom-level oracle.
        for h in [lost_update(), long_fork(), History::default()] {
            for level in IsolationLevel::ALL {
                assert_eq!(
                    satisfies_spec(&h, &LevelSpec::uniform(level)),
                    crate::axioms::oracle_satisfies(&h, level),
                    "uniform {level} spec diverged on\n{h}"
                );
            }
        }
    }

    #[test]
    fn lost_update_with_one_weak_increment() {
        let h = lost_update();
        // Both increments serializable: the anomaly is rejected.
        let both_ser = LevelSpec::uniform(Serializability);
        assert!(!satisfies_spec(&h, &both_ser));
        // Demote one increment to Read Committed: its stale read is now
        // allowed and the other (SER) increment can be placed first.
        let one_rc = both_ser.clone().with_override(0, 0, ReadCommitted);
        assert!(satisfies_spec(&h, &one_rc));
        let other_rc = both_ser.with_override(1, 0, ReadCommitted);
        assert!(satisfies_spec(&h, &other_rc));
    }

    #[test]
    fn long_fork_verdicts_follow_the_reader_levels() {
        let h = long_fork();
        // Both readers at SER: the opposite observation orders are
        // irreconcilable with one commit order.
        assert!(!satisfies_spec(&h, &LevelSpec::uniform(Serializability)));
        // Demoting ONE reader to CC frees the other's order.
        let spec = LevelSpec::uniform(Serializability).with_override(2, 0, CausalConsistency);
        assert!(satisfies_spec(&h, &spec));
        // Both readers at SI (writers at SER): the long fork is an SI
        // anomaly too — both snapshots cannot exist.
        let spec = LevelSpec::uniform(Serializability)
            .with_override(2, 0, SnapshotIsolation)
            .with_override(3, 0, SnapshotIsolation);
        assert!(!satisfies_spec(&h, &spec));
        // One snapshot reader, one RC reader is fine.
        let spec = LevelSpec::uniform(Serializability)
            .with_override(2, 0, SnapshotIsolation)
            .with_override(3, 0, ReadCommitted);
        assert!(satisfies_spec(&h, &spec));
    }

    #[test]
    fn forced_edges_of_weak_readers_constrain_the_strong_search() {
        // Session 0: t1 writes x. Session 1: t2 writes x. Session 2:
        // t3 (CC) reads x from t1 *after* reading y from t4 which read x
        // from t2 — forcing t2 before t1 in co. Session 3: t5 (SER) reads
        // x from t1: fine. But a SER read of x from t2 placed *after*
        // both writers is impossible when t1 must follow t2... build a
        // simpler shape: CC reader forces t2 < t1, SER reader of x=t2
        // must then be placed between t2 and t1 — satisfiable; a SER
        // reader of y (written only by t1... keep it direct:
        // CC reader in one transaction reads x from t2 then x from t1
        // (internal po order) — RC-style premise forces t2 < t1. A SER
        // transaction writing x and reading nothing can commit anywhere.
        let x = Var(0);
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        let t2 = b.begin(1);
        b.write(1, x, 2);
        b.commit(1);
        b.begin(2);
        b.read(2, x, t2);
        b.read(2, x, t1);
        b.commit(2);
        let h = b.h;
        // Reader at RC: reading t2 then t1 forces t2 < t1 — satisfiable
        // on its own (no cycle), even with the writers at SER.
        let spec = LevelSpec::uniform(Serializability).with_override(2, 0, ReadCommitted);
        assert!(satisfies_spec(&h, &spec));

        // Now add a second RC reader observing the writers in the
        // opposite internal order: t1 < t2 is also forced — a cycle no
        // commit order satisfies, whatever the writers' levels.
        let mut b = Builder::new();
        let t1 = b.begin(0);
        b.write(0, x, 1);
        b.commit(0);
        let t2 = b.begin(1);
        b.write(1, x, 2);
        b.commit(1);
        b.begin(2);
        b.read(2, x, t2);
        b.read(2, x, t1);
        b.commit(2);
        b.begin(3);
        b.read(3, x, t1);
        b.read(3, x, t2);
        b.commit(3);
        let h = b.h;
        let spec = LevelSpec::uniform(Serializability)
            .with_override(2, 0, ReadCommitted)
            .with_override(3, 0, ReadCommitted);
        assert!(!satisfies_spec(&h, &spec));
    }

    #[test]
    fn atomic_writer_may_not_commit_inside_a_conflicting_si_interval() {
        // Write skew with one SI transaction and one SER transaction that
        // write a *common* variable: t1 (SI) reads x=init writes x,y;
        // t2 (SER) reads y=init writes x. t2's stale read of y needs
        // placement before t1 commits y; t1's stale read of x needs its
        // snapshot before t2 commits x — so t2 must commit inside t1's
        // interval, which the common write of x forbids.
        let (x, y) = (Var(0), Var(1));
        let mut b = Builder::new();
        b.begin(0);
        b.read(0, x, TxId::INIT);
        b.write(0, x, 1);
        b.write(0, y, 1);
        b.commit(0);
        b.begin(1);
        b.read(1, y, TxId::INIT);
        b.write(1, x, 2);
        b.commit(1);
        let h = b.h;
        let spec = LevelSpec::uniform(SnapshotIsolation).with_override(1, 0, Serializability);
        assert!(!satisfies_spec(&h, &spec));
        // Without the write conflict (t2 writes z instead of x) the same
        // shape is accepted: t2 commits inside t1's interval.
        let z = Var(2);
        let mut b = Builder::new();
        b.begin(0);
        b.read(0, x, TxId::INIT);
        b.write(0, x, 1);
        b.write(0, y, 1);
        b.commit(0);
        b.begin(1);
        b.read(1, y, TxId::INIT);
        b.write(1, z, 2);
        b.commit(1);
        let h = b.h;
        let spec = LevelSpec::uniform(SnapshotIsolation).with_override(1, 0, Serializability);
        assert!(satisfies_spec(&h, &spec));
    }

    #[test]
    fn empty_history_satisfies_every_spec() {
        let h = History::default();
        let spec = LevelSpec::uniform(CausalConsistency)
            .with_override(0, 0, Serializability)
            .with_override(1, 0, SnapshotIsolation);
        assert!(satisfies_spec(&h, &spec));
    }
}
