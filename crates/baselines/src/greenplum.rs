//! The Greenplum-style baseline: big-join SQL over MPP segments with
//! scatter/gather execution.

use crate::{BaselineError, Rows};
use aiql_core::QueryContext;
use aiql_storage::SegmentedStore;
use aiql_translate::sql::to_sql;
use std::time::Instant;

/// Executes the big-join SQL on the segmented store: per-table scans are
/// pushed to all segments in parallel, matching rows are gathered to a
/// coordinator, and the join runs there — the execution shape of an MPP
/// engine whose placement does not co-locate the join (paper Sec. 6.3.3).
pub fn run(
    store: &SegmentedStore,
    ctx: &QueryContext,
    deadline: Option<Instant>,
) -> Result<Rows, BaselineError> {
    let sql = to_sql(ctx)?;
    let rs = store.sdb().query_gather(&sql, deadline)?;
    let mut rows = rs.rows;
    if ctx.ret.count {
        rows = vec![vec![aiql_rdb::Value::Int(rows.len() as i64)]];
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_core::compile;
    use aiql_datagen::EnterpriseSim;

    #[test]
    fn gather_execution_matches_single_node() {
        let data = EnterpriseSim::builder()
            .hosts(10)
            .days(2)
            .seed(5)
            .events_per_host_per_day(200)
            .build()
            .generate();
        let seg = SegmentedStore::ingest(&data, 5).unwrap();
        let single =
            aiql_storage::EventStore::ingest(&data, aiql_storage::StoreConfig::monolithic())
                .unwrap();
        let ctx = compile(
            r#"
            (at "01/02/2017")
            agentid = 9
            proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
            proc p4["%sbblv.exe"] read file f1 as evt3
            with evt2 before evt3
            return distinct p3, f1, p4
            "#,
        )
        .unwrap();
        let gp = crate::normalize(run(&seg, &ctx, None).unwrap());
        let (pg, _) = crate::postgres::run(&single, &ctx, None).unwrap();
        assert_eq!(gp, crate::normalize(pg));
        assert_eq!(gp.len(), 1);
    }
}
