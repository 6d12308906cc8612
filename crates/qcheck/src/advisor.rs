//! The advisor differential axis: `auto` must be answer-invisible.
//!
//! The case's write protocol is replayed on two local session targets —
//! advisor off, and `auto` under an aggressive policy (a fingerprint is
//! hot after 2 servings) — and at each checkpoint the query is served on
//! both, the halfway one three times so that the hot fingerprint crosses
//! the threshold and the advisor actually materializes `AdvView*` views
//! mid-stream. Every pair of answers must agree: set equality when
//! either side's chosen rewriting claims §5 set semantics, multiset
//! equality otherwise.
//!
//! The protocol writes *after* the advisor's views exist — maintenance of
//! advisor-created views is therefore on the hook for every later
//! answer, and a stale advisor view (the `AGGVIEW_UNSOUND_ADVISOR_STALE`
//! fault injection) surfaces as an `advisor-divergence` discrepancy.

use crate::case::Case;
use crate::oracle::{protocol, served, Checkpoint, Discrepancy};
use crate::target::Target;
use aggview::advisor::{AdvisorMode, AdvisorPolicy};
use aggview::session::{Session, SessionOptions};
use aggview_engine::{multiset_eq, set_eq};
use aggview_sql::Statement;

/// Check one case advisor-off vs advisor-`auto`. `Ok(())` = every served
/// answer agreed.
pub(crate) fn check(case: &Case) -> Result<(), Discrepancy> {
    // Act after 2 servings, so the repeated halfway `SELECT`s trigger
    // creation on every case that has a positive-benefit suggestion.
    let policy = AdvisorPolicy {
        mode: AdvisorMode::Auto,
        auto_after: 2,
        ..AdvisorPolicy::default()
    };
    let mut sides = [
        ("advisor-off", Session::new(SessionOptions::default())),
        (
            "advisor-auto",
            Session::new(SessionOptions {
                advisor: policy,
                ..Default::default()
            }),
        ),
    ];
    let select = Statement::Select(case.query.clone());
    for (statements, cp) in protocol(case).segments() {
        for stmt in statements {
            for (who, side) in &mut sides {
                side.run(0, stmt).map_err(|d| d.within(who))?;
            }
        }
        // Three servings on half the data: the second crosses the hot
        // threshold (auto creates a view through the write path), and
        // the third may already be served from it. Two at the end: the
        // advisor's views were maintained through every write since.
        let repeats = match cp {
            Checkpoint::Halfway => 3,
            Checkpoint::PostView | Checkpoint::Inserted => 1,
            Checkpoint::Final => 2,
        };
        for k in 1..=repeats {
            let [base, adv] = sides.each_mut().map(|(who, side)| {
                side.run(0, &select)
                    .and_then(served)
                    .map_err(|d| d.within(who))
            });
            let (base, adv) = (base?, adv?);
            // §5 set-semantics rewritings dedup a provably duplicate-free
            // output; when either side claims it, compare as sets.
            let eq = if base.set_semantics || adv.set_semantics {
                set_eq(&base.relation, &adv.relation)
            } else {
                multiset_eq(&base.relation, &adv.relation)
            };
            if !eq {
                let step = match cp {
                    Checkpoint::Halfway => format!("pre-view select {k}"),
                    Checkpoint::PostView => "post-view select".into(),
                    Checkpoint::Inserted => "pre-delete select".into(),
                    Checkpoint::Final => format!("final select {k}"),
                };
                return Err(Discrepancy::new(
                    "advisor-divergence",
                    format!(
                        "{step}: advisor-auto answer ({} row(s), via {:?}) disagrees with \
                         advisor-off ({} row(s))",
                        adv.relation.len(),
                        adv.views_used,
                        base.relation.len()
                    ),
                ));
            }
        }
    }
    Ok(())
}
