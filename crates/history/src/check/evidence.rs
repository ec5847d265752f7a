//! Evidence-producing verdicts: replayable witnesses and minimal violation
//! cores.
//!
//! The boolean checkers in [`crate::check`] answer *whether* a history
//! satisfies a spec; a witnessed check also says *why*, following the
//! witness/error model of dbcop and the practical-explanations argument of
//! *Making Transaction Isolation Checking Practical*:
//!
//! * On success, a [`Witness`]: a total commit order over all transactions
//!   (init first) that extends `so ∪ wr` and satisfies every reader's
//!   axioms. It is independently replay-verifiable with
//!   [`crate::axioms::check_with_order_spec`] — see [`Witness::replays`].
//!   The order is the one the deciding pass itself found: the Kahn order of
//!   `so ∪ wr ∪ forced` for specs without PC/SI/SER, and the order the
//!   commit-order search committed otherwise (see [`crate::check::mixed`]).
//!   [`MixedEngine::check_witnessed`](crate::check::MixedEngine) runs that
//!   pass once, on its own synced indexes.
//! * On failure, a [`Violation`]: a cycle of `so`/`wr`/forced-`co` edges,
//!   each forced edge annotated with the [`AxiomInstance`] that forced it.
//!   The cycle is *simple* (every vertex is entered and left exactly once),
//!   so it is minimal in the sense that dropping any edge breaks it.
//!
//! Violation cores are found by **saturation**: starting from the
//! `so ∪ wr` edges, commit-order edges that must hold in *every* total
//! commit order are derived from the axiom instances until either the edge
//! set becomes cyclic (the core) or a fixpoint is reached. Two sound rules
//! are used per instance `⟨t1, α⟩ ∈ wr_x ∧ t2 writes x ∧ φ(t2, α) ⇒
//! ⟨t2, t1⟩ ∈ co`:
//!
//! * **direct**: if `φ(t2, α)` holds in the derived partial order, force
//!   `t2 < t1`. The premise is evaluated by the oracle's own
//!   [`premise_holds`](crate::axioms) with the derived closure as `co`:
//!   every premise is a positive existential over `co` facts, so holding in
//!   the partial order is the same as holding in every total extension;
//! * **contrapositive**: if `t1 < t2` is already derived, then `¬φ(t2, α)`
//!   must hold, and by totality of the commit order the negated premise
//!   forces edges of its own (e.g. for Serializability, the reader `t3`
//!   must precede `t2` — the classical anti-dependency edge).
//!
//! For weak readers (RC/RA/CC) the premises never mention `co`, so the
//! first pass of the direct rule derives exactly the forced edges of the
//! checker's `WeakIndex` (a test pins the two sets equal). The two paths
//! stay separate on purpose: `WeakIndex` is the incrementally synced hot
//! path of every check, while the saturation runs once per rejected
//! witnessed verdict, over transaction ids, and adds the co-dependent
//! contrapositive rules the strong levels need.
//!
//! In the rare case where the saturation fixpoint is still acyclic although
//! the history is inconsistent, the saturation case-splits on an
//! unordered transaction pair ([`EdgeReason::Hypothesis`]); every
//! randomised corpus in the test suite is covered without hypotheses.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::axioms::{all_txs, axioms_for, check_with_order_spec, premise_holds, Axiom};
use crate::event::EventId;
use crate::history::History;
use crate::isolation::{IsolationLevel, LevelSpec};
use crate::relations::BitMatrix;
use crate::transaction::TxId;
use crate::value::Var;

/// The outcome of an evidence-producing check
/// ([`check_witnessed`](crate::check::ConsistencyChecker::check_witnessed)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The history satisfies the spec; the witness proves it.
    Consistent(Witness),
    /// The history violates the spec; the violation core shows why.
    Inconsistent(Violation),
}

impl Verdict {
    /// Whether this is a [`Verdict::Consistent`] verdict.
    pub fn is_consistent(&self) -> bool {
        matches!(self, Verdict::Consistent(_))
    }

    /// The witness of a consistent verdict, if any.
    pub fn witness(&self) -> Option<&Witness> {
        match self {
            Verdict::Consistent(w) => Some(w),
            Verdict::Inconsistent(_) => None,
        }
    }

    /// The violation core of an inconsistent verdict, if any.
    pub fn violation(&self) -> Option<&Violation> {
        match self {
            Verdict::Consistent(_) => None,
            Verdict::Inconsistent(v) => Some(v),
        }
    }
}

/// A consistency witness: a strict total commit order over all transactions
/// of the history (init first) that extends `so ∪ wr` and satisfies the
/// axioms of every reader's assigned level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// The commit order, smallest (init) first.
    pub commit_order: Vec<TxId>,
}

impl Witness {
    /// Replays the witness against the axioms: whether `commit_order` is a
    /// permutation of all transactions of `h` extending `so ∪ wr` whose
    /// induced total order satisfies `spec`
    /// ([`crate::axioms::check_with_order_spec`]).
    pub fn replays(&self, h: &History, spec: &LevelSpec) -> bool {
        check_with_order_spec(h, spec, &self.commit_order)
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.commit_order.iter().enumerate() {
            if i > 0 {
                f.write_str(" < ")?;
            }
            fmt_tx(f, *t)?;
        }
        Ok(())
    }
}

/// A violation core: a simple cycle of commit-order edges no strict total
/// order can satisfy. Each edge either exists in the history (`so`, `wr`)
/// or is forced by an axiom instance of the violated spec; dropping any
/// edge breaks the cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The cycle edges, in order: `cycle[k].to == cycle[k + 1].from` and
    /// the last edge closes back to `cycle[0].from`.
    pub cycle: Vec<ViolationEdge>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.cycle.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            fmt_tx(f, e.from)?;
            write!(f, " -{}->", e.reason)?;
            if i + 1 == self.cycle.len() {
                f.write_str(" ")?;
                fmt_tx(f, e.to)?;
            }
        }
        Ok(())
    }
}

/// One edge of a [`Violation`] cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViolationEdge {
    /// Source transaction: committed before `to` in every candidate order.
    pub from: TxId,
    /// Target transaction.
    pub to: TxId,
    /// Why the edge must hold.
    pub reason: EdgeReason,
}

/// Why a [`ViolationEdge`] must hold in every total commit order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EdgeReason {
    /// The edge is in the history's session order.
    SessionOrder,
    /// The edge is in the history's write-read (reads-from) relation.
    WriteRead,
    /// The edge is forced by an axiom instance of the spec.
    Forced(AxiomInstance),
    /// Case-split assumption: the saturation fixpoint was acyclic, the
    /// saturation branched on an unordered pair, and *every*
    /// orientation leads to a cycle; this edge is the orientation of the
    /// displayed branch. Does not occur on the test corpora.
    Hypothesis,
}

impl fmt::Display for EdgeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeReason::SessionOrder => f.write_str("so"),
            EdgeReason::WriteRead => f.write_str("wr"),
            EdgeReason::Forced(i) => write!(f, "co[{i}]"),
            EdgeReason::Hypothesis => f.write_str("co[hyp]"),
        }
    }
}

/// The axiom instance forcing a commit-order edge: the reader `reader`
/// reads `var` from `source`, `writer` also writes `var`, and the axiom's
/// premise `φ(writer, α)` (or, for `contrapositive` edges, its totality
/// consequence given `source < writer`) forces the edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AxiomInstance {
    /// The violated axiom of the reader's level.
    pub axiom: Axiom,
    /// The transaction whose external read instantiates the axiom.
    pub reader: TxId,
    /// The variable the read observes.
    pub var: Var,
    /// The transaction the read observes (`tr(α)` — `t1` in the axiom).
    pub source: TxId,
    /// The conflicting writer of `var` (`t2` in the axiom).
    pub writer: TxId,
    /// Whether the edge comes from the contrapositive rule (negated
    /// premise under `source < writer`) rather than the direct one.
    pub contrapositive: bool,
}

impl fmt::Display for AxiomInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.axiom)?;
        if self.contrapositive {
            f.write_str("'")?;
        }
        f.write_str(" ")?;
        fmt_tx(f, self.reader)?;
        write!(f, ":x{}<-", self.var.0)?;
        fmt_tx(f, self.source)?;
        f.write_str(" vs ")?;
        fmt_tx(f, self.writer)
    }
}

fn fmt_tx(f: &mut fmt::Formatter<'_>, t: TxId) -> fmt::Result {
    if t.is_init() {
        f.write_str("init")
    } else {
        write!(f, "t{}", t.0)
    }
}

/// A minimal violation core, or `None` when `h` actually satisfies `spec`
/// (every saturation branch reaches a consistent total order). Called by
/// [`MixedEngine::check_witnessed`](crate::check::MixedEngine) once its
/// search (or its memo) has rejected `h`.
pub(crate) fn violation_core(h: &History, spec: &LevelSpec) -> Option<Violation> {
    if spec.as_uniform() == Some(IsolationLevel::Trivial) {
        // The trivial level rejects nothing: no core can exist.
        return None;
    }
    let mut sat = Saturation::new(h, spec);
    sat.find_cycle().map(|cycle| Violation { cycle })
}

/// The saturation state: the transactions of the history, the annotated
/// derived edge set, and its transitive closure. Cloned at a case split.
#[derive(Clone)]
struct Saturation<'h> {
    h: &'h History,
    /// All transactions, init first.
    txs: Vec<TxId>,
    /// `TxId ↦` vertex index in `txs`.
    index: BTreeMap<TxId, usize>,
    /// External reads: `(reader, read event, var, source)`, with the
    /// reader's axioms resolved through the spec.
    reads: Vec<(TxId, EventId, Var, TxId, &'static [Axiom])>,
    /// Annotated adjacency: `edges[a]` lists `(b, reason)` with the first
    /// derivation of each edge kept.
    edges: Vec<Vec<(usize, EdgeReason)>>,
    /// Edge membership of `edges`.
    present: BitMatrix,
    /// Transitive closure of `present` (paths of length ≥ 1).
    closure: BitMatrix,
}

impl<'h> Saturation<'h> {
    fn new(h: &'h History, spec: &'h LevelSpec) -> Self {
        let txs: Vec<TxId> = all_txs(h).collect();
        let index: BTreeMap<TxId, usize> = txs.iter().enumerate().map(|(i, t)| (*t, i)).collect();
        let n = txs.len();
        let mut sat = Saturation {
            h,
            txs,
            index,
            reads: Vec::new(),
            edges: vec![Vec::new(); n],
            present: BitMatrix::new(n),
            closure: BitMatrix::new(n),
        };
        for (t3, alpha, x, t1) in h.reads_from() {
            let axioms = axioms_for(spec.level_of_tx(h, t3));
            if !axioms.is_empty() {
                sat.reads.push((t3, alpha, x, t1, axioms));
            }
        }
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let (ta, tb) = (sat.txs[a], sat.txs[b]);
                if h.so_before(ta, tb) {
                    sat.add_edge(a, b, EdgeReason::SessionOrder);
                } else if h.wr_tx_edge(ta, tb) {
                    sat.add_edge(a, b, EdgeReason::WriteRead);
                }
            }
        }
        sat.close();
        sat
    }

    fn n(&self) -> usize {
        self.txs.len()
    }

    /// Records `a → b` unless already present. Returns whether it was new.
    fn add_edge(&mut self, a: usize, b: usize, reason: EdgeReason) -> bool {
        debug_assert_ne!(a, b);
        if self.present.get(a, b) {
            return false;
        }
        self.present.set(a, b);
        self.edges[a].push((b, reason));
        true
    }

    /// Recomputes the transitive closure of the derived edges.
    fn close(&mut self) {
        self.closure.clone_from(&self.present);
        self.closure.transitive_close();
    }

    fn before(&self, a: usize, b: usize) -> bool {
        self.closure.get(a, b)
    }

    fn before_eq(&self, a: usize, b: usize) -> bool {
        a == b || self.before(a, b)
    }

    /// Every axiom instance `⟨t1, α⟩ ∈ wr_x ∧ t2 writes x` (`t2 ≠ t1`) of
    /// every read, with the read event `α`.
    fn instances(&self) -> impl Iterator<Item = (AxiomInstance, EventId)> + '_ {
        self.reads
            .iter()
            .flat_map(move |&(reader, alpha, var, source, axioms)| {
                let writers = self
                    .h
                    .writers_of(var)
                    .into_iter()
                    .filter(move |&t2| t2 != source);
                writers.flat_map(move |writer| {
                    axioms.iter().map(move |&axiom| {
                        let instance = AxiomInstance {
                            axiom,
                            reader,
                            var,
                            source,
                            writer,
                            contrapositive: false,
                        };
                        (instance, alpha)
                    })
                })
            })
    }

    /// The direct rule under the current closure: `t2 < t1` for every
    /// axiom instance whose premise `φ(t2, α)` holds in the derived
    /// partial order. Edges `skip` accepts are not evaluated (the premise
    /// is the expensive part).
    fn direct_edges(&self, skip: impl Fn(usize, usize) -> bool) -> Vec<(usize, usize, EdgeReason)> {
        let before = |a: TxId, b: TxId| self.before(self.index[&a], self.index[&b]);
        self.instances()
            .filter_map(|(i, alpha)| {
                let (i2, i1) = (self.index[&i.writer], self.index[&i.source]);
                (!skip(i2, i1) && premise_holds(i.axiom, self.h, before, i.reader, alpha, i.writer))
                    .then_some((i2, i1, EdgeReason::Forced(i)))
            })
            .collect()
    }

    /// One saturation pass: derives every new edge the direct and
    /// contrapositive rules justify under the current closure. Returns
    /// whether anything was added.
    fn saturate_pass(&mut self) -> bool {
        let mut pending = self.direct_edges(|a, b| self.present.get(a, b));
        // Contrapositive: t1 < t2 derived ⇒ ¬φ(t2, α), and by totality
        // the negated premise forces edges. Weak premises never mention
        // co, so for them the direct rule is already exact.
        for (mut i, _) in self.instances() {
            let (i1, i2, i3) = (
                self.index[&i.source],
                self.index[&i.writer],
                self.index[&i.reader],
            );
            if !self.before(i1, i2) {
                continue;
            }
            i.contrapositive = true;
            let t3 = i.reader;
            let mut force =
                |a: usize, b: usize| pending.push((a, b, EdgeReason::Forced(i.clone())));
            match i.axiom {
                // ¬(t2 < t3) ⇒ t3 < t2 (anti-dependency).
                Axiom::Serializability if i3 != i2 && !self.present.get(i3, i2) => force(i3, i2),
                Axiom::Prefix => {
                    // ∀t4 with ⟨t4,t3⟩ ∈ so ∪ wr: ¬(t2 ≤ t4) ⇒ t4 < t2.
                    for i4 in 0..self.n() {
                        if i4 != i2
                            && !self.present.get(i4, i2)
                            && self.h.so_or_wr(self.txs[i4], t3)
                        {
                            force(i4, i2);
                        }
                    }
                }
                Axiom::Conflict => {
                    // ∀t4 writing a common variable with t3:
                    // t2 ≤ t4 ⇒ ¬(t4 < t3) ⇒ t3 < t4.
                    let Some(log3) = self.h.get_tx(t3) else {
                        continue;
                    };
                    let written: Vec<Var> = log3.visible_writes().keys().copied().collect();
                    for i4 in 0..self.n() {
                        if i4 != i3
                            && self.before_eq(i2, i4)
                            && !self.present.get(i3, i4)
                            && written.iter().any(|y| self.h.writes_var(self.txs[i4], *y))
                        {
                            force(i3, i4);
                        }
                    }
                }
                _ => {}
            }
        }
        let mut added = false;
        for (a, b, reason) in pending {
            added |= self.add_edge(a, b, reason);
        }
        if added {
            self.close();
        }
        added
    }

    /// Shortest simple cycle in the annotated edge set, if any.
    fn shortest_cycle(&self) -> Option<Vec<ViolationEdge>> {
        let n = self.n();
        let mut best: Option<Vec<ViolationEdge>> = None;
        for v in (0..n).filter(|&v| self.before(v, v)) {
            // BFS from v back to v over the annotated edges; `parent[b]`
            // is the first edge `(a, k) = edges[a][k]` reaching `b`.
            let mut parent: Vec<Option<(usize, usize)>> = vec![None; n];
            let mut queue = VecDeque::from([v]);
            'bfs: while let Some(a) = queue.pop_front() {
                for (k, &(b, _)) in self.edges[a].iter().enumerate() {
                    if parent[b].is_none() {
                        parent[b] = Some((a, k));
                        if b == v {
                            break 'bfs;
                        }
                        queue.push_back(b);
                    }
                }
            }
            let mut cycle = Vec::new();
            let mut b = v;
            while let Some((a, k)) = parent[b] {
                cycle.push(ViolationEdge {
                    from: self.txs[a],
                    to: self.txs[b],
                    reason: self.edges[a][k].1.clone(),
                });
                if a == v {
                    break;
                }
                b = a;
            }
            cycle.reverse();
            if best.as_ref().map_or(true, |c| cycle.len() < c.len()) {
                best = Some(cycle);
            }
        }
        best
    }

    /// Saturates to fixpoint; on an acyclic fixpoint, case-splits on the
    /// first unordered pair. Returns a cycle iff every completion of the
    /// derived partial order violates some axiom instance.
    fn find_cycle(&mut self) -> Option<Vec<ViolationEdge>> {
        loop {
            if let Some(cycle) = self.shortest_cycle() {
                return Some(cycle);
            }
            if !self.saturate_pass() {
                break;
            }
        }
        // Acyclic fixpoint: the derived order may still have no consistent
        // completion. Branch on the first unordered pair; the history is
        // inconsistent iff both orientations cycle.
        let n = self.n();
        for a in 0..n {
            for b in a + 1..n {
                if self.before(a, b) || self.before(b, a) {
                    continue;
                }
                let mut forward = self.clone();
                forward.add_edge(a, b, EdgeReason::Hypothesis);
                forward.close();
                let fwd = forward.find_cycle()?;
                let mut backward = self.clone();
                backward.add_edge(b, a, EdgeReason::Hypothesis);
                backward.close();
                let bwd = backward.find_cycle()?;
                return Some(if fwd.len() <= bwd.len() { fwd } else { bwd });
            }
        }
        // Total and acyclic at fixpoint: the unique completion satisfies
        // every axiom instance, so the history is consistent.
        None
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::check::engine_for_spec;
    use crate::check::weak::WeakIndex;
    use crate::event::{Event, EventKind};
    use crate::testkit::{random_history, random_spec};
    use crate::transaction::SessionId;
    use crate::value::Value;

    struct Builder {
        h: History,
        next_event: u32,
        next_tx: u32,
    }

    impl Builder {
        fn new() -> Self {
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
        fn begin(&mut self, s: u32) -> TxId {
            self.next_tx += 1;
            let id = TxId(self.next_tx);
            let idx = self.h.session_txs(SessionId(s)).len();
            let e = Event::new(self.fresh(), EventKind::Begin);
            self.h.begin_transaction(SessionId(s), id, idx, e);
            id
        }
        fn write(&mut self, s: u32, x: Var, v: i64) {
            let e = Event::new(self.fresh(), EventKind::Write(x, Value::Int(v)));
            self.h.append_event(SessionId(s), e);
        }
        fn read(&mut self, s: u32, x: Var, from: TxId) {
            let e = Event::new(self.fresh(), EventKind::Read(x));
            let id = e.id;
            self.h.append_event(SessionId(s), e);
            self.h.set_wr(id, from);
        }
        fn commit(&mut self, s: u32) {
            let e = Event::new(self.fresh(), EventKind::Commit);
            self.h.append_event(SessionId(s), e);
        }
    }

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

    /// Write skew: t1 reads x, writes y; t2 reads y, writes x; both from
    /// init.
    fn write_skew() -> History {
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
        b.h
    }

    fn assert_simple_cycle(v: &Violation) {
        assert!(!v.cycle.is_empty(), "empty cycle");
        for (k, e) in v.cycle.iter().enumerate() {
            let next = &v.cycle[(k + 1) % v.cycle.len()];
            assert_eq!(e.to, next.from, "cycle must be closed: {v}");
        }
        let mut seen = std::collections::BTreeSet::new();
        for e in &v.cycle {
            assert!(seen.insert(e.from), "cycle must be simple: {v}");
        }
    }

    #[test]
    fn lost_update_core_under_si_uses_the_conflict_axiom() {
        let h = lost_update();
        let spec = LevelSpec::uniform(IsolationLevel::SnapshotIsolation);
        let core = violation_core(&h, &spec).expect("lost update violates SI");
        assert_simple_cycle(&Violation {
            cycle: core.cycle.clone(),
        });
        assert!(
            core.cycle
                .iter()
                .any(|e| matches!(&e.reason, EdgeReason::Forced(i) if i.axiom == Axiom::Conflict)),
            "{core}"
        );
    }

    #[test]
    fn write_skew_core_under_ser_is_the_antidependency_cycle() {
        let h = write_skew();
        let spec = LevelSpec::uniform(IsolationLevel::Serializability);
        let core = violation_core(&h, &spec).expect("write skew violates SER");
        assert_simple_cycle(&core);
        // Both edges are contrapositive SER instances: each reader must
        // precede the writer that overwrote its snapshot.
        assert_eq!(core.cycle.len(), 2, "{core}");
        for e in &core.cycle {
            assert!(
                matches!(&e.reason, EdgeReason::Forced(i)
                    if i.axiom == Axiom::Serializability && i.contrapositive),
                "{core}"
            );
        }
    }

    #[test]
    fn consistent_histories_have_no_core() {
        let h = write_skew();
        for level in [
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::PrefixConsistency,
            IsolationLevel::CausalConsistency,
        ] {
            assert_eq!(violation_core(&h, &LevelSpec::uniform(level)), None);
        }
    }

    #[test]
    fn reconstructed_witnesses_replay() {
        let h = lost_update();
        for level in [
            IsolationLevel::Trivial,
            IsolationLevel::ReadCommitted,
            IsolationLevel::CausalConsistency,
            IsolationLevel::PrefixConsistency,
        ] {
            let spec = LevelSpec::uniform(level);
            let v = engine_for_spec(&spec).check_witnessed(&h);
            let w = v.witness().expect("lost update is consistent here");
            assert!(w.replays(&h, &spec), "{level}: {w}");
        }
    }

    #[test]
    fn first_pass_direct_edges_of_weak_readers_are_the_weak_index_forced_edges() {
        // The saturation and `WeakIndex` derive the weak readers' forced
        // edges independently; on the first pass (closure = so ∪ wr) the
        // direct rule must produce exactly the index's set.
        let weak = [Axiom::ReadCommitted, Axiom::ReadAtomic, Axiom::Causal];
        let mut compared = 0;
        for seed in 0..300u64 {
            let h = random_history(seed, 3, 2, 2);
            let spec = random_spec(seed, &h);
            if ![
                IsolationLevel::ReadCommitted,
                IsolationLevel::ReadAtomic,
                IsolationLevel::CausalConsistency,
            ]
            .into_iter()
            .any(|l| spec.mentions(l))
            {
                continue;
            }
            let sat = Saturation::new(&h, &spec);
            let direct: BTreeSet<(TxId, TxId)> = sat
                .direct_edges(|_, _| false)
                .into_iter()
                .filter(|(_, _, r)| matches!(r, EdgeReason::Forced(i) if weak.contains(&i.axiom)))
                .map(|(a, b, _)| (sat.txs[a], sat.txs[b]))
                .collect();
            let mut index = WeakIndex::new(spec.clone());
            index.sync(&h);
            let mut forced = Vec::new();
            index.collect_forced_tx(&mut forced);
            let forced: BTreeSet<(TxId, TxId)> = forced.into_iter().collect();
            assert_eq!(direct, forced, "spec {spec} on seed {seed}:\n{h}");
            compared += !forced.is_empty() as u32;
        }
        assert!(compared > 50, "only {compared} histories forced an edge");
    }
}
