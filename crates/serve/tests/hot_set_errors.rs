//! The serve load workload's hot set contains one erroring statement
//! per domain on cordis and oncomx: hot statement 11, whose
//! `HAVING MIN(<text column>) <= 2` compares text with an int. The
//! fuzzer generates such type mismatches on purpose, and the reference
//! interpreter rejects it too, so the `exec_error` it produces on every
//! replay (one request in 16 of each domain's default mix) is the
//! correct answer, not an engine bug. This pins it: the statement, its
//! error code, and its message, which must be the reference's.

use sb_data::Domain;
use sb_engine::execute_reference;
use sb_serve::loadgen::workload_sql;
use sb_serve::{ErrorCode, LoadConfig, QueryRequest, QueryService, ServeConfig};
use std::sync::Arc;

/// Index 11 of the default load: 11 is not a multiple of `hot_every`,
/// so it replays hot statement `11 % hot_set` = 11.
const HOT_STATEMENT: u64 = 11;

#[test]
fn hot_statement_11_is_a_correct_exec_error_on_cordis_and_oncomx() {
    let load = LoadConfig::default();
    for domain in [Domain::Cordis, Domain::OncoMx] {
        let db = Arc::new(sb_fuzz::fuzz_database(domain));
        let sql = workload_sql(&db, &load, HOT_STATEMENT);
        assert!(
            sql.contains("HAVING MIN(") && sql.ends_with("<= 2"),
            "{}: hot statement 11 changed: {sql}",
            domain.name()
        );
        let want = execute_reference(&db, &sb_sql::parse(&sql).expect("parses"))
            .expect_err("the reference rejects the text/int comparison");

        let service =
            QueryService::new(ServeConfig::default()).with_snapshot(domain.name(), Arc::clone(&db));
        // Twice: the second request is a plan-cache hit, as on replay.
        for id in 0..2 {
            let resp = service.handle(&QueryRequest::new(id, domain.name(), &sql));
            assert_eq!(resp.code, ErrorCode::ExecError, "{}: {sql}", domain.name());
            assert_eq!(
                resp.error.as_deref(),
                Some(want.to_string().as_str()),
                "{}: {sql}",
                domain.name()
            );
        }
    }
}
