//! Property-based checkpoint round-trip: random engine states —
//! including columnar-cached and `GroupIndex`-bearing ones — must
//! serialize to a checkpoint image that decodes **bit-equal**, and a
//! state rebuilt from that image must answer queries byte-identically
//! to the original (indexes and caches re-derived, not persisted).

use aggview::durability::{image_from_state, state_from_image};
use aggview::state::{EngineState, WritePolicy};
use aggview_engine::datagen::{random_catalog, random_database};
use aggview_engine::{execute_ctx, ExecContext};
use aggview_sql::{parse_query, parse_statement, Statement};
use aggview_store::{decode_image, encode_image};
use proptest::prelude::*;

/// Build a random live [`EngineState`] from `seed`: a random catalog +
/// instance, plus (when the data allows) a `GROUP BY` view over `S0` so
/// the state carries materialized-view machinery. The policy turns on
/// grouped-view indexes and columnar execution so the derived state a
/// checkpoint must *not* persist is actually present.
fn random_state(seed: u64, policy: WritePolicy) -> EngineState {
    let catalog = random_catalog(seed, 3, 4);
    let db = random_database(&catalog, 40, 8, seed);
    let mut state = EngineState::new();
    state.catalog = catalog.clone().into();
    for table in catalog.tables() {
        let rel = db.table(&table.name).expect("generated instance").clone();
        state.db.insert(table.name.clone(), rel);
    }
    // random_catalog always emits S0 with columns A, B, ... (arity >= 2).
    let cv = match parse_statement(
        "CREATE VIEW V0 AS SELECT A, SUM(B) AS SumB, COUNT(B) AS CntB FROM S0 GROUP BY A",
    )
    .expect("view parses")
    {
        Statement::CreateView(cv) => cv,
        other => panic!("expected CREATE VIEW, got {other}"),
    };
    state.create_view(&cv, policy).expect("view materializes");
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// encode → decode → encode is bit-stable, and the decoded image
    /// equals the original structurally.
    #[test]
    fn checkpoint_image_roundtrips_bit_equal(seed in any::<u64>()) {
        let state = random_state(seed, WritePolicy::default());
        let img = image_from_state(&state, seed % 1000, seed % 7);
        let bytes = encode_image(&img);
        let back = decode_image(&bytes).expect("image decodes");
        prop_assert_eq!(&back, &img, "decoded image differs structurally");
        prop_assert_eq!(encode_image(&back), bytes, "re-encoding is not bit-stable");
    }

    /// A state rebuilt from the image serves byte-identical answers —
    /// on base tables and on the view, under both row-at-a-time and
    /// columnar execution — and re-derives the view's group index.
    #[test]
    fn recovered_state_answers_byte_identically(seed in any::<u64>()) {
        let policy = WritePolicy::default();
        let state = random_state(seed, policy);
        let img = image_from_state(&state, 1, 1);
        let recovered = state_from_image(&img, policy);

        prop_assert!(
            recovered.db.index("V0").is_some(),
            "recovery re-derives the grouped-view index"
        );
        prop_assert_eq!(
            recovered.db.index("V0").map(|i| i.key_cols().to_vec()),
            state.db.index("V0").map(|i| i.key_cols().to_vec()),
            "re-derived index keys the same columns"
        );

        let queries = [
            "SELECT A, B FROM S0",
            "SELECT A, SUM(B) FROM S0 GROUP BY A",
            "SELECT A, SumB, CntB FROM V0",
        ];
        for text in queries {
            let q = parse_query(text).expect("query parses");
            for columnar in [false, true] {
                let want = execute_ctx(&q, &state.db, &ExecContext::columnar(columnar)).expect("original answers");
                let got = execute_ctx(&q, &recovered.db, &ExecContext::columnar(columnar)).expect("recovered answers");
                prop_assert_eq!(
                    got.sorted_rows(),
                    want.sorted_rows(),
                    "{} diverges after recovery (columnar={})",
                    text,
                    columnar
                );
            }
        }
    }
}
