//! `compare A.json B.json`: A is the parent's result file, B the
//! change's. Every (workload, end-to-end metric) pair gets its own row
//! and verdict; nothing is averaged across workloads.

use crate::report::END_TO_END;
use cep::obs::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side's own rep-to-rep spread is wider than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

/// One side of a comparison: a metric's median and quartiles over its reps.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

pub fn judge(bound: f64, higher_is_better: bool, parent: Side, change: Side) -> Verdict {
    if parent.spread() > bound || change.spread() > bound {
        return Verdict::Unresolved;
    }
    // Share of the parent's median by which the change is worse.
    let worse_by = if higher_is_better {
        (parent.value - change.value) / parent.value
    } else {
        (change.value - parent.value) / parent.value
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn rows(file: &Json) -> Result<&[Json], String> {
    match file.get("rows") {
        Some(Json::Arr(rows)) => Ok(rows),
        _ => Err("result file has no rows".into()),
    }
}

fn side(row: &Json, metric: &str) -> Result<Side, String> {
    let m = row
        .get("end_to_end")
        .and_then(|e| e.get(metric))
        .ok_or_else(|| format!("row lacks {metric}"))?;
    let f = |k: &str| {
        m.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{metric} lacks {k}"))
    };
    Ok(Side {
        value: f("value")?,
        q1: f("q1")?,
        q3: f("q3")?,
    })
}

/// Prints one line per (workload, metric); `Ok(true)` when nothing got
/// worse and no error rate rose.
pub fn compare(parent: &Json, change: &Json) -> Result<bool, String> {
    let mut ok = true;
    for a in rows(parent)? {
        let name = a
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("row without a workload name")?;
        let Some(b) = rows(change)?
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(name))
        else {
            println!("{name}: missing from the second file");
            ok = false;
            continue;
        };
        for e in &END_TO_END {
            let (pa, ch) = (side(a, e.name)?, side(b, e.name)?);
            let bound = e.bound;
            let verdict = judge(bound, e.higher_is_better, pa, ch);
            ok &= verdict != Verdict::Worse;
            println!(
                "{name} {} {} -> {} {} ({:+.2}%, bound {:.0}%): {}",
                e.name,
                pa.value,
                ch.value,
                e.unit,
                (ch.value / pa.value - 1.0) * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Better => "better",
                    Verdict::Same => "same",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let rate = |r: &Json| r.get("error_rate").and_then(Json::as_f64).unwrap_or(1.0);
        let (ra, rb) = (rate(a), rate(b));
        let verdict = if rb > ra { "worse" } else { "same" };
        ok &= rb <= ra;
        println!("{name} error_rate {ra} -> {rb} ratio: {verdict}");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(value: f64) -> Side {
        Side {
            value,
            q1: value * 0.995,
            q3: value * 1.005,
        }
    }

    #[test]
    fn direction_and_bound_decide() {
        // throughput, higher is better, 5 % bound
        assert_eq!(judge(0.05, true, tight(100.0), tight(96.0)), Verdict::Same);
        assert_eq!(judge(0.05, true, tight(100.0), tight(94.0)), Verdict::Worse);
        assert_eq!(
            judge(0.05, true, tight(100.0), tight(106.0)),
            Verdict::Better
        );
        // latency, lower is better
        assert_eq!(judge(0.08, false, tight(10.0), tight(10.7)), Verdict::Same);
        assert_eq!(judge(0.08, false, tight(10.0), tight(10.9)), Verdict::Worse);
        assert_eq!(judge(0.08, false, tight(10.0), tight(9.0)), Verdict::Better);
    }

    #[test]
    fn a_noisy_side_is_unresolved_whatever_the_medians_say() {
        let noisy = Side {
            value: 100.0,
            q1: 95.0,
            q3: 102.0,
        };
        assert_eq!(judge(0.05, true, noisy, tight(80.0)), Verdict::Unresolved);
        assert_eq!(judge(0.05, true, tight(100.0), noisy), Verdict::Unresolved);
        assert_eq!(judge(0.08, true, noisy, tight(100.0)), Verdict::Same);
    }

    fn file(throughput: f64, error_rate: f64) -> Json {
        let metric = |v: f64| {
            Json::Obj(vec![
                ("value".into(), Json::Float(v)),
                ("q1".into(), Json::Float(v)),
                ("q3".into(), Json::Float(v)),
            ])
        };
        let end_to_end = END_TO_END
            .iter()
            .map(|e| {
                let v = if e.name == "throughput_eps" {
                    throughput
                } else {
                    1.0
                };
                (e.name.to_string(), metric(v))
            })
            .collect();
        Json::Obj(vec![(
            "rows".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("workload".into(), Json::Str("w".into())),
                ("error_rate".into(), Json::Float(error_rate)),
                ("end_to_end".into(), Json::Obj(end_to_end)),
            ])]),
        )])
    }

    #[test]
    fn files_compare_row_by_row() {
        assert_eq!(compare(&file(100.0, 0.0), &file(99.0, 0.0)), Ok(true));
        assert_eq!(compare(&file(100.0, 0.0), &file(50.0, 0.0)), Ok(false));
        assert_eq!(compare(&file(100.0, 0.0), &file(100.0, 0.01)), Ok(false));
    }
}
