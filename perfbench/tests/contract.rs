//! The benchmark's own contract: the metric names it prints are exactly
//! the ones `BENCHMARK.json` lists, and the counts it calls exact repeat
//! bit for bit.

use std::collections::BTreeMap;
use std::time::Duration;

use ipds_perfbench::campaign::{Attacks, Faults};
use ipds_perfbench::compile::Compile;
use ipds_perfbench::fleet::Fleet;
use ipds_perfbench::{
    run_end_to_end, run_traced, Report, Size, END_TO_END, EXACT, PER_LAYER, WORKLOADS,
};

/// Just enough JSON for `BENCHMARK.json`.
#[derive(Debug)]
enum Json {
    /// A number, `true`, `false` or `null`: never read by these tests.
    Scalar,
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = (text.as_bytes(), 0usize);
        let v = value(&mut p);
        skip_ws(&mut p);
        assert_eq!(p.1, p.0.len(), "trailing data");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => panic!("not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string"),
        }
    }
}

fn skip_ws(p: &mut (&[u8], usize)) {
    while p.1 < p.0.len() && p.0[p.1].is_ascii_whitespace() {
        p.1 += 1;
    }
}

fn value(p: &mut (&[u8], usize)) -> Json {
    skip_ws(p);
    let rest = &p.0[p.1..];
    match rest[0] {
        b'{' => {
            p.1 += 1;
            let mut m = BTreeMap::new();
            loop {
                skip_ws(p);
                if p.0[p.1] == b'}' {
                    p.1 += 1;
                    return Json::Obj(m);
                }
                let Json::Str(k) = value(p) else {
                    panic!("object key must be a string")
                };
                skip_ws(p);
                assert_eq!(p.0[p.1], b':');
                p.1 += 1;
                assert!(m.insert(k.clone(), value(p)).is_none(), "duplicate key {k}");
                skip_ws(p);
                if p.0[p.1] == b',' {
                    p.1 += 1;
                }
            }
        }
        b'[' => {
            p.1 += 1;
            let mut v = Vec::new();
            loop {
                skip_ws(p);
                if p.0[p.1] == b']' {
                    p.1 += 1;
                    return Json::Arr(v);
                }
                v.push(value(p));
                skip_ws(p);
                if p.0[p.1] == b',' {
                    p.1 += 1;
                }
            }
        }
        b'"' => {
            let end = rest[1..]
                .iter()
                .position(|&c| c == b'"')
                .expect("closed string")
                + 1;
            assert!(!rest[1..end].contains(&b'\\'), "escapes are not used");
            p.1 += end + 1;
            Json::Str(String::from_utf8(rest[1..end].to_vec()).expect("utf-8"))
        }
        _ => {
            let len = rest
                .iter()
                .position(|c| !c.is_ascii_alphanumeric() && !b"+-.".contains(c))
                .unwrap_or(rest.len());
            let token = std::str::from_utf8(&rest[..len]).expect("ascii");
            assert!(
                ["true", "false", "null"].contains(&token) || token.parse::<f64>().is_ok(),
                "bad token {token}"
            );
            p.1 += len;
            Json::Scalar
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn listed(json: &Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn declared(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn names(report: &Report) -> Vec<&str> {
    report.metrics.iter().map(|m| m.name).collect()
}

const TINY_BUDGET: Duration = Duration::from_millis(200);

#[test]
fn benchmark_json_lists_exactly_the_declared_metrics() {
    let json = benchmark_json();
    assert_eq!(listed(&json, "end_to_end"), declared(END_TO_END));
    assert_eq!(listed(&json, "per_layer"), declared(PER_LAYER));
    for w in json.get("workloads").arr() {
        let name = w.get("name").str();
        assert!(WORKLOADS.contains(&name), "unknown workload {name}");
    }
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
            "bad metric name {name}"
        );
    }
    for name in EXACT {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
    }
}

#[test]
fn every_run_prints_the_declared_set_and_checks_out() {
    let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    for report in [
        run_end_to_end::<Attacks>(7, TINY_BUDGET, Size::TINY),
        run_end_to_end::<Faults>(7, TINY_BUDGET, Size::TINY),
        run_end_to_end::<Compile>(7, TINY_BUDGET, Size::TINY),
        run_end_to_end::<Fleet>(7, TINY_BUDGET, Size::TINY),
    ] {
        assert_eq!(names(&report), expected);
        assert_eq!(report.tally.failed, 0, "{report:?}");
        assert!(report.tally.attempted > 0);
        assert!(report.metrics.iter().all(|m| m.value > 0.0), "{report:?}");
    }
    let (traced, tracer) = run_traced("fleet", 7, TINY_BUDGET, Size::TINY);
    let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names(&traced), expected);
    assert_eq!(traced.tally.failed, 0, "{traced:?}");
    assert!(!tracer.spans().is_empty());
}

#[test]
fn exact_counts_repeat_bit_for_bit() {
    let exact = |workload: &str| -> Vec<(&'static str, u64)> {
        let (report, _) = run_traced(workload, 11, TINY_BUDGET, Size::TINY);
        report
            .metrics
            .iter()
            .filter(|m| EXACT.contains(&m.name))
            .map(|m| (m.name, m.value.to_bits()))
            .collect()
    };
    // Every traced run measures all three workloads, so two runs cover the
    // exact counts of each.
    let first = exact("attacks");
    assert_eq!(first.len(), EXACT.len());
    assert_eq!(first, exact("compile"));
}
