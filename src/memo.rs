//! Memoized auxiliary relations, keyed by the identity of their inputs.
//!
//! A rewriting may carry relations it builds before it runs: the
//! paper's auxiliary views `V^a`, an inline summary (eager aggregation,
//! [`crate::eager`]) and the `Nat` table (footnote 3). Each is a pure
//! function of the relations it reads, so an [`AuxMemo`] keeps what it
//! built together with the [`Identity`] of every one of those inputs,
//! and hands the build out again while every identity still matches.
//! An untouched relation keeps its stored entry across snapshots and
//! publishes, and a write to an entry an identity names always lands in
//! a fresh one (see [`Identity`]), so the check is exact. A mismatch
//! rebuilds; a write is never folded into a kept build.
//!
//! Each plan-cache entry owns the memo of its decision
//! (`plan_cache::CachedPlan`): the memo shares the entry's epoch and
//! LRU, and a session without a plan cache builds on every execution.
//! What the memos keep is capped in bytes by [`AUX_MEMO_CAP_BYTES`].

use crate::run::{materialize_view, nat_for};
use aggview_core::expand::NAT_TABLE;
use aggview_core::ViewDef;
use aggview_engine::database::{Entry, Identity};
use aggview_engine::{Database, EngineResult, ExecContext, Relation, Value};
use aggview_obs::{CounterId, MetricsRegistry};
use aggview_sql::Query;
use std::sync::{Arc, OnceLock};

/// The most bytes of auxiliary relations one session's memos keep; past
/// it, the least recently used plan-cache entries drop their memos.
pub const AUX_MEMO_CAP_BYTES: usize = 64 << 20;

/// How an auxiliary relation came to be in the scratch database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reuse {
    /// Taken from the memo: every input was unchanged.
    Reused,
    /// Built now, with this many rows.
    Built(usize),
}

/// The auxiliary relations one serving decision built, each with the
/// identities of the relations it read.
#[derive(Debug, Default)]
pub struct AuxMemo {
    slots: Vec<Slot>,
}

/// One kept build. Its bytes are on the `aux_memo_bytes` gauge of the
/// registry it was built under for as long as the slot lives.
#[derive(Debug)]
struct Slot {
    /// The relation's name in the scratch database.
    name: String,
    /// The definition it was built from; `None` for the `Nat` table.
    query: Option<Query>,
    /// Every relation the build read, in `FROM` order (name order for
    /// `Nat`), with its identity at build time.
    inputs: Vec<(String, Option<Identity>)>,
    built: Entry,
    bytes: usize,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Drop for Slot {
    fn drop(&mut self) {
        if let Some(m) = &self.metrics {
            m.sub(CounterId::AuxMemoBytes, self.bytes as u64);
        }
    }
}

impl Slot {
    /// May this build stand in for one over `inputs`?
    fn fresh(&self, inputs: &[(String, Option<Identity>)]) -> bool {
        if unsound_skip_identity() {
            return true;
        }
        if unsound_one_input() {
            return self.inputs.first() == inputs.first();
        }
        self.inputs == inputs
    }
}

impl AuxMemo {
    /// Bytes of the builds this memo keeps.
    pub fn bytes(&self) -> usize {
        self.slots.iter().map(|s| s.bytes).sum()
    }

    /// Forget every kept build.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Put `view`'s contents into `scratch` under its name: the kept
    /// build when every relation its `FROM` reads is the one it was built
    /// from, else a fresh evaluation under `cx`, which is then kept.
    pub(crate) fn materialize(
        &mut self,
        view: &ViewDef,
        scratch: &mut Database,
        cx: &ExecContext,
    ) -> EngineResult<Reuse> {
        let mut names: Vec<&str> = Vec::new();
        for t in &view.query.from {
            if !names.contains(&t.table.as_str()) {
                names.push(&t.table);
            }
        }
        let inputs = identities(scratch, names);
        let query = Some(&view.query);
        if self.reuse(&view.name, query, &inputs, scratch) {
            return Ok(Reuse::Reused);
        }
        let rel = materialize_view(scratch, view, cx)?;
        Ok(self.keep(&view.name, query, inputs, rel, scratch))
    }

    /// Put the `Nat` table into `scratch`, sized over every relation in
    /// it (see [`crate::run::ensure_nat`]); reused while none of them
    /// has changed.
    pub(crate) fn provide_nat(&mut self, scratch: &mut Database) {
        let names = scratch
            .iter()
            .map(|(name, _)| name.as_str())
            .filter(|name| *name != NAT_TABLE);
        let inputs = identities(scratch, names);
        if !self.reuse(NAT_TABLE, None, &inputs, scratch) {
            let nat = nat_for(scratch);
            self.keep(NAT_TABLE, None, inputs, nat, scratch);
        }
    }

    /// Insert the kept build of `name` into `scratch` if it is fresh for
    /// `inputs`.
    fn reuse(
        &self,
        name: &str,
        query: Option<&Query>,
        inputs: &[(String, Option<Identity>)],
        scratch: &mut Database,
    ) -> bool {
        let Some(slot) = self
            .slots
            .iter()
            .find(|s| s.name == name && s.query.as_ref() == query)
        else {
            return false;
        };
        if !slot.fresh(inputs) {
            return false;
        }
        scratch.insert_entry(name, slot.built.clone());
        scratch.record(CounterId::AuxMemoHits, 1);
        true
    }

    /// Store `rel` into `scratch` under `name` and keep it, replacing
    /// any older build of the same relation.
    fn keep(
        &mut self,
        name: &str,
        query: Option<&Query>,
        inputs: Vec<(String, Option<Identity>)>,
        rel: Relation,
        scratch: &mut Database,
    ) -> Reuse {
        let rows = rel.len();
        let bytes = approx_bytes(&rel);
        scratch.insert(name, rel);
        let built = scratch.entry(name).expect("just inserted");
        let metrics = scratch.metrics().cloned();
        if let Some(m) = &metrics {
            m.incr(CounterId::AuxMemoBuilds);
            m.add(CounterId::AuxMemoBytes, bytes as u64);
        }
        self.slots
            .retain(|s| !(s.name == name && s.query.as_ref() == query));
        self.slots.push(Slot {
            name: name.to_string(),
            query: query.cloned(),
            inputs,
            built,
            bytes,
            metrics,
        });
        Reuse::Built(rows)
    }
}

fn identities<'a>(
    db: &Database,
    names: impl IntoIterator<Item = &'a str>,
) -> Vec<(String, Option<Identity>)> {
    names
        .into_iter()
        .map(|name| (name.to_string(), db.identity(name)))
        .collect()
}

/// What a relation's rows occupy: row vectors, values, string bytes.
fn approx_bytes(rel: &Relation) -> usize {
    let row = std::mem::size_of::<Vec<Value>>() + rel.arity() * std::mem::size_of::<Value>();
    let strings: usize = rel
        .rows
        .iter()
        .flatten()
        .map(|v| match v {
            Value::Str(s) => s.capacity(),
            _ => 0,
        })
        .sum();
    rel.rows.len() * row + strings
}

/// Fault injection: `AGGVIEW_UNSOUND_EAGER_STALE=1` makes the memo skip
/// its identity check, so a kept build is reused after its inputs
/// changed, up to the next schema change — the soundness bug the
/// qcheck oracle must catch. Read once per process.
fn unsound_skip_identity() -> bool {
    static STALE: OnceLock<bool> = OnceLock::new();
    *STALE.get_or_init(|| std::env::var_os("AGGVIEW_UNSOUND_EAGER_STALE").is_some())
}

/// Fault injection: `AGGVIEW_UNSOUND_AUX_MEMO_ONE_INPUT=1` makes the memo
/// compare only the first input's identity, so a write to any other
/// input goes unseen. Read once per process.
fn unsound_one_input() -> bool {
    static ONE: OnceLock<bool> = OnceLock::new();
    *ONE.get_or_init(|| std::env::var_os("AGGVIEW_UNSOUND_AUX_MEMO_ONE_INPUT").is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_engine::relation::rel_of_ints;
    use aggview_sql::parse_query;

    /// `T(a, b)` and `U(x)`, recording into `m`.
    fn db(m: &Arc<MetricsRegistry>) -> Database {
        let mut db = Database::new();
        db.insert("T", rel_of_ints(["a", "b"], &[&[1, 5], &[1, 6], &[2, 7]]));
        db.insert("U", rel_of_ints(["x"], &[&[3]]));
        db.set_metrics(Arc::clone(m));
        db
    }

    fn counts(m: &MetricsRegistry) -> (u64, u64, u64) {
        (
            m.get(CounterId::AuxMemoHits),
            m.get(CounterId::AuxMemoBuilds),
            m.get(CounterId::AuxMemoBytes),
        )
    }

    /// A reused view is the kept entry itself (no row copy); a write to
    /// a relation it does not read keeps it; dropping the memo takes its
    /// bytes off the gauge.
    #[test]
    fn a_kept_view_is_shared_until_its_input_changes() {
        let m = Arc::new(MetricsRegistry::default());
        let mut base = db(&m);
        let view = ViewDef::new(
            "Aux",
            parse_query("SELECT a, SUM(b) AS s FROM T GROUP BY a").unwrap(),
        );
        let cx = ExecContext::new();
        let mut memo = AuxMemo::default();
        let mut first = base.clone();
        assert_eq!(
            memo.materialize(&view, &mut first, &cx),
            Ok(Reuse::Built(2))
        );
        let held = memo.bytes() as u64;
        assert!(held > 0);
        assert_eq!(counts(&m), (0, 1, held));

        base.update("U", |rel, _| rel.push(vec![Value::Int(4)]))
            .unwrap();
        let mut second = base.clone();
        assert_eq!(memo.materialize(&view, &mut second, &cx), Ok(Reuse::Reused));
        assert!(second.identity("Aux") == first.identity("Aux"));
        assert_eq!(counts(&m), (1, 1, held));

        base.update("T", |rel, _| rel.push(vec![Value::Int(3), Value::Int(1)]))
            .unwrap();
        let mut third = base.clone();
        assert_eq!(
            memo.materialize(&view, &mut third, &cx),
            Ok(Reuse::Built(3))
        );
        assert_eq!(third.get("Aux").unwrap().len(), 3);
        assert_eq!(counts(&m).1, 2);
        drop(memo);
        assert_eq!(counts(&m).2, 0, "the gauge falls with the memo");
    }

    /// `Nat` is sized over every relation, so a write to any of them
    /// rebuilds it, and nothing else does.
    #[test]
    fn nat_is_rebuilt_exactly_when_a_relation_changes() {
        let m = Arc::new(MetricsRegistry::default());
        let mut base = db(&m);
        let mut memo = AuxMemo::default();
        let nat_len = |memo: &mut AuxMemo, base: &Database| {
            let mut scratch = base.clone();
            memo.provide_nat(&mut scratch);
            scratch.get(NAT_TABLE).unwrap().len()
        };
        assert_eq!(nat_len(&mut memo, &base), 7);
        assert_eq!(nat_len(&mut memo, &base), 7);
        assert_eq!(counts(&m).0, 1, "the repeat reuses it");
        base.update("U", |rel, _| rel.push(vec![Value::Int(12)]))
            .unwrap();
        assert_eq!(nat_len(&mut memo, &base), 12);
        assert_eq!(counts(&m).1, 2);
    }
}
