//! Anomaly query execution: sliding time windows, per-group aggregation,
//! history states, and moving averages (paper Sec. 4.3 / 5.1).
//!
//! The engine executes the (single) event pattern once, sorts the matches by
//! event time, then slides a window of `window_ns` by `step_ns`. In each
//! window it groups the covered matches by the `group by` fields, computes
//! the aggregates, appends them to each group's *history*, and evaluates the
//! `having` filter — which may reference history states (`freq[1]`) and
//! moving averages (`SMA`/`CMA`/`WMA`/`EWMA`). Groups whose history is
//! shallower than a referenced offset are skipped for that window (no alert
//! before enough history exists); a tracked group absent from a window
//! records zero aggregates, so spikes are measured against true quiet
//! periods.

use crate::error::EngineError;
use crate::exec::ExecPolicy;
use crate::layout::{resolve_field, START_COL};
use crate::pattern::{execute_pattern, Deadline, EngineStats};
use crate::result::{moving_average, Accum, EngineResult};
use crate::synth::ExtraCstr;
use aiql_core::ast::{AggFunc, CmpOp as AstCmp};
use aiql_core::{ArithCtx, HavingCtx, QueryContext, RetExprCtx};
use aiql_rdb::Value;
use aiql_storage::EventStore;
use std::collections::BTreeMap;

/// Executes an anomaly query.
pub fn run_anomaly(
    store: &EventStore,
    ctx: &QueryContext,
    exec: ExecPolicy,
    deadline: Deadline,
    stats: &mut EngineStats,
) -> Result<EngineResult, EngineError> {
    let slide = ctx.slide.expect("anomaly context has a slide spec");
    if ctx.patterns.len() != 1 {
        return Err(EngineError::Unsupported(
            "anomaly queries use a single event pattern".into(),
        ));
    }
    let p = &ctx.patterns[0];

    // Resolve return items to match-row positions.
    enum Item {
        Field(usize),
        Agg {
            func: AggFunc,
            distinct: bool,
            col: usize,
        },
    }
    let items: Vec<(Item, String)> = ctx
        .ret
        .items
        .iter()
        .map(|it| {
            let item = match &it.expr {
                RetExprCtx::Field(f) => Item::Field(resolve_field(f, p.object_kind)?),
                RetExprCtx::Agg {
                    func,
                    distinct,
                    arg,
                } => Item::Agg {
                    func: *func,
                    distinct: *distinct,
                    col: resolve_field(arg, p.object_kind)?,
                },
            };
            Ok((item, it.name.clone()))
        })
        .collect::<Result<Vec<_>, EngineError>>()?;

    // Execute the pattern and sort by time.
    let mut rows = execute_pattern(store, p, &ExtraCstr::default(), exec, deadline, stats)?;
    rows.sort_by_key(|r| r[START_COL].as_int().unwrap_or(0));
    let times: Vec<i64> = rows
        .iter()
        .map(|r| r[START_COL].as_int().unwrap_or(0))
        .collect();

    // Window span: the global window when present, else the data's extent.
    let (span_lo, span_hi) = match p.window {
        Some(w) => w,
        None => match (times.first(), times.last()) {
            (Some(&lo), Some(&hi)) => (lo, hi + 1),
            _ => {
                return Ok(EngineResult {
                    columns: items.into_iter().map(|(_, n)| n).collect(),
                    rows: Vec::new(),
                })
            }
        },
    };

    // Per-group state: history of per-item numeric values (group fields
    // recorded once).
    struct Group {
        fields: Vec<Value>,
        history: Vec<Vec<f64>>,
    }
    let mut groups: BTreeMap<Vec<Value>, Group> = BTreeMap::new();
    let mut out: Vec<Vec<Value>> = Vec::new();

    let mut window_start = span_lo;
    // Guard against degenerate zero-length spans.
    let max_windows = 1 + ((span_hi - span_lo).max(0) / slide.step_ns.max(1));
    let mut wi = 0i64;
    while window_start < span_hi && wi <= max_windows {
        deadline.check()?;
        wi += 1;
        let window_end = window_start + slide.window_ns;
        // Matches inside [window_start, window_end) via binary search.
        let lo_idx = times.partition_point(|&t| t < window_start);
        let hi_idx = times.partition_point(|&t| t < window_end);

        // Aggregate the window per group.
        let mut window_accums: BTreeMap<Vec<Value>, Vec<Accum>> = BTreeMap::new();
        let agg_count = items
            .iter()
            .filter(|(i, _)| matches!(i, Item::Agg { .. }))
            .count();
        for r in &rows[lo_idx..hi_idx] {
            let key: Vec<Value> = ctx
                .group_by
                .iter()
                .map(|&gi| match &items[gi].0 {
                    Item::Field(col) => r[*col].clone(),
                    Item::Agg { .. } => Value::Null,
                })
                .collect();
            let accums = window_accums
                .entry(key.clone())
                .or_insert_with(|| vec![Accum::default(); agg_count]);
            let mut slot = 0;
            for (item, _) in &items {
                if let Item::Agg { distinct, col, .. } = item {
                    accums[slot].update(&r[*col], *distinct);
                    slot += 1;
                }
            }
            // Register the group (fields snapshot) on first sight.
            groups.entry(key.clone()).or_insert_with(|| Group {
                fields: items
                    .iter()
                    .map(|(i, _)| match i {
                        Item::Field(col) => r[*col].clone(),
                        Item::Agg { .. } => Value::Null,
                    })
                    .collect(),
                history: Vec::new(),
            });
        }

        // Update every tracked group (absent ⇒ zero aggregates) and test.
        for (key, group) in groups.iter_mut() {
            let accums = window_accums.remove(key);
            let defaults = vec![Accum::default(); agg_count];
            let accums = accums.unwrap_or(defaults);
            // Current values per item (group fields + aggregates).
            let mut slot = 0;
            let values: Vec<Value> = items
                .iter()
                .enumerate()
                .map(|(k, (item, _))| match item {
                    Item::Field(_) => group.fields[k].clone(),
                    Item::Agg { func, distinct, .. } => {
                        let v = accums[slot].result(*func, *distinct);
                        slot += 1;
                        v
                    }
                })
                .collect();
            let numeric: Vec<f64> = values.iter().map(|v| v.as_f64().unwrap_or(0.0)).collect();
            group.history.push(numeric);

            let passes = match &ctx.having {
                Some(h) => eval_having(h, &values, &group.history),
                None => true,
            };
            if passes {
                out.push(values);
            }
        }

        window_start += slide.step_ns;
    }

    crate::result::finish(ctx, items.into_iter().map(|(_, n)| n).collect(), out)
}

/// Evaluates `having` with history access. `history` includes the current
/// window as its last entry. Returns false when a referenced history depth
/// is unavailable.
fn eval_having(h: &HavingCtx, values: &[Value], history: &[Vec<f64>]) -> bool {
    match h {
        HavingCtx::Cmp { op, left, right } => {
            let (Some(a), Some(b)) = (
                eval_arith(left, values, history),
                eval_arith(right, values, history),
            ) else {
                return false;
            };
            if a.is_nan() || b.is_nan() {
                return false;
            }
            match op {
                AstCmp::Eq => a == b,
                AstCmp::Ne => a != b,
                AstCmp::Lt => a < b,
                AstCmp::Le => a <= b,
                AstCmp::Gt => a > b,
                AstCmp::Ge => a >= b,
            }
        }
        HavingCtx::And(x, y) => eval_having(x, values, history) && eval_having(y, values, history),
        HavingCtx::Or(x, y) => eval_having(x, values, history) || eval_having(y, values, history),
        HavingCtx::Not(x) => !eval_having(x, values, history),
    }
}

fn eval_arith(a: &ArithCtx, values: &[Value], history: &[Vec<f64>]) -> Option<f64> {
    Some(match a {
        ArithCtx::Num(n) => *n,
        ArithCtx::Item(i) => values[*i].as_f64().unwrap_or(f64::NAN),
        ArithCtx::Hist { item, back } => {
            // history[len-1] is the current window.
            if history.len() <= *back {
                return None;
            }
            history[history.len() - 1 - back][*item]
        }
        ArithCtx::MovAvg { kind, item, param } => {
            let series: Vec<f64> = history.iter().map(|w| w[*item]).collect();
            moving_average(*kind, &series, *param)
        }
        ArithCtx::Add(x, y) => eval_arith(x, values, history)? + eval_arith(y, values, history)?,
        ArithCtx::Sub(x, y) => eval_arith(x, values, history)? - eval_arith(y, values, history)?,
        ArithCtx::Mul(x, y) => eval_arith(x, values, history)? * eval_arith(y, values, history)?,
        ArithCtx::Div(x, y) => eval_arith(x, values, history)? / eval_arith(y, values, history)?,
        ArithCtx::Neg(x) => -eval_arith(x, values, history)?,
    })
}

// Integration-style tests live in `lib.rs` (they need a full store); the
// pure helpers are tested here.
#[cfg(test)]
mod tests {
    use super::*;
    use aiql_core::ast::MaKind;

    #[test]
    fn hist_requires_depth() {
        let h = HavingCtx::Cmp {
            op: AstCmp::Gt,
            left: ArithCtx::Item(0),
            right: ArithCtx::Hist { item: 0, back: 2 },
        };
        let values = vec![Value::Float(10.0)];
        // Only 2 windows recorded: back=2 needs 3.
        assert!(!eval_having(&h, &values, &[vec![1.0], vec![10.0]]));
        // 3 windows: compare 10 > 1.
        assert!(eval_having(
            &h,
            &values,
            &[vec![1.0], vec![5.0], vec![10.0]]
        ));
    }

    #[test]
    fn ewma_in_having() {
        // (x - EWMA(x)) / EWMA(x) > 0.5 with flat history then a spike.
        let h = HavingCtx::Cmp {
            op: AstCmp::Gt,
            left: ArithCtx::Div(
                Box::new(ArithCtx::Sub(
                    Box::new(ArithCtx::Item(0)),
                    Box::new(ArithCtx::MovAvg {
                        kind: MaKind::Ewma,
                        item: 0,
                        param: 0.9,
                    }),
                )),
                Box::new(ArithCtx::MovAvg {
                    kind: MaKind::Ewma,
                    item: 0,
                    param: 0.9,
                }),
            ),
            right: ArithCtx::Num(0.5),
        };
        let flat: Vec<Vec<f64>> = (0..5).map(|_| vec![10.0]).collect();
        assert!(!eval_having(&h, &[Value::Float(10.0)], &flat));
        let mut spiked = flat.clone();
        spiked.push(vec![100.0]);
        assert!(eval_having(&h, &[Value::Float(100.0)], &spiked));
    }
}
