//! The metric registry — every metric's name, unit, direction and bound —
//! and what is generated from it: `BENCHMARK.json`, the printed metric
//! lines, the driver's result line and the run provenance.

use crate::json::Json;
use crate::workloads::{DEFAULT_SECONDS, OPEN_RATES, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline median by which
    /// the metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: Some(bound),
    }
}

fn layer(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// The gating metrics: what a user of the pipeline sees. Every workload
/// reports every one (each runs the whole pipeline) and none is ever zero.
/// Timings on the shared two-core host this was defined on repeat within
/// 5–10 % in quiet minutes and drift by 10 % or more between them, so every
/// timing carries the widest bound the contract allows; outputs and memory
/// repeat exactly or within 2 % and are bounded tightly (README, "Noise
/// findings").
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        e2e("setup_s", "s", Lower, 0.25),
        e2e("fit_wall_s", "s", Lower, 0.25),
        e2e("iter_s", "s", Lower, 0.25),
        e2e("final_error", "abs", Lower, 0.05),
        e2e("test_rmse", "abs", Lower, 0.10),
        e2e("peak_tracked_mb", "MB", Lower, 0.05),
        e2e("peak_rss_mb", "MB", Lower, 0.10),
        e2e("point_qps", "entries/s", Higher, 0.25),
        e2e("topk_qps", "contexts/s", Higher, 0.25),
        e2e("mixed_p50_us", "us", Lower, 0.25),
    ]
}

/// Informational metrics of single layers (the workspace crates), from
/// the traced run. Zero where a layer does no work on a workload — which
/// is itself the prediction the README's table makes.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut defs = vec![
        layer("datagen.ingest_s", "s", Lower),
        layer("datagen.ingest_mb_per_s", "MB/s", Higher),
        layer("tensor.plan_build_s", "s", Lower),
        layer("tensor.plan_bytes", "bytes", Lower),
        layer("tensor.refill_s", "s", Lower),
        layer("tensor.refill_mb_per_s", "MB/s", Higher),
        layer("tensor.windows_per_sweep", "count", Lower),
        layer("memtrack.io_read_bytes", "bytes", Lower),
        layer("memtrack.io_write_bytes", "bytes", Lower),
        layer("memtrack.peak_spilled_bytes", "bytes", Lower),
        layer("memtrack.prefetch_engaged", "count", Higher),
        layer("core.fit_setup_s", "s", Lower),
        layer("core.mode_prepare_s", "s", Lower),
        layer("core.sweep_s", "s", Lower),
        layer("core.mode_post_s", "s", Lower),
        layer("core.iter_tail_s", "s", Lower),
        layer("core.error_pass_s", "s", Lower),
        layer("core.finish_s", "s", Lower),
        layer("core.sweep_entries_per_s", "entries/s", Higher),
        layer("core.sweep_share", "ratio", Higher),
        layer("core.sweep_gflops_computed", "Gflop/s", Higher),
        layer("core.core_nnz_final", "count", Lower),
        layer("core.model_store_s", "s", Lower),
        layer("core.model_load_s", "s", Lower),
        layer("core.model_bytes", "bytes", Lower),
        layer("core.span_gap_share", "ratio", Lower),
        layer("sched.iter_s_1t", "s", Lower),
        layer("sched.parallel_eff", "ratio", Higher),
        layer("linalg.qr_s", "s", Lower),
        layer("linalg.topk_select_us", "us", Lower),
        layer("shard.bytes_sent", "bytes", Lower),
        layer("shard.bytes_received", "bytes", Lower),
        layer("shard.startup_s", "s", Lower),
        layer("shard.worker_wall_max_s", "s", Lower),
        layer("shard.worker_nnz_imbalance", "ratio", Lower),
        layer("transport.frame_mb_per_s", "MB/s", Higher),
        layer("transport.frame_roundtrip_us", "us", Lower),
        layer("serve.start_s", "s", Lower),
        layer("serve.point_p50_us", "us", Lower),
        layer("serve.point_p90_us", "us", Lower),
        layer("serve.topk_p50_us", "us", Lower),
        layer("serve.topk_p90_us", "us", Lower),
        layer("serve.mixed_p90_us", "us", Lower),
        layer("serve.publish_mixed_qps", "req/s", Higher),
        layer("serve.publish_us", "us", Lower),
        layer("serve.open_rate_ok_rps", "req/s", Higher),
    ];
    for rate in OPEN_RATES {
        defs.push(layer(format!("serve.open_r{rate}_p50_us"), "us", Lower));
        defs.push(layer(format!("serve.open_r{rate}_p90_us"), "us", Lower));
    }
    defs.extend([
        layer("serve.open_late_max_us", "us", Lower),
        layer("serve.requests_ok", "count", Higher),
        layer("serve.requests_failed", "count", Lower),
        layer("serve.error_replies", "count", Lower),
        layer("serve.worker_panics", "count", Lower),
        layer("serve.bytes_per_request", "bytes", Lower),
        layer("serve.local_point_ns", "ns", Lower),
        layer("serve.local_topk_us", "us", Lower),
        layer("trace.fit_wall_s", "s", Lower),
        layer("trace.iter_s", "s", Lower),
        layer("trace.overhead_share", "ratio", Lower),
    ]);
    defs
}

/// Measured values by metric name, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, …}` for exactly `defs`, in their
    /// order; a metric never measured reads 0.
    pub fn json_for(&self, defs: &[MetricDef]) -> Json {
        Json::Obj(
            defs.iter()
                .map(|d| {
                    let v = self.get(&d.name).unwrap_or(0.0);
                    let entry = Json::obj([("value", Json::Num(v)), ("unit", Json::str(d.unit))]);
                    (d.name.clone(), entry)
                })
                .collect(),
        )
    }

    /// One `name value unit` line per metric of `defs`.
    pub fn print(&self, defs: &[MetricDef]) {
        for d in defs {
            let v = self.get(&d.name).unwrap_or(0.0);
            println!("{:<32} {:>16} {}", d.name, format_value(v), d.unit);
        }
    }
}

/// Six significant digits for reading; the JSON keeps every digit.
pub fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v}")
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.5e}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

/// The benchmark's directory, relative to the repository root.
const BENCH_DIR: &str = "e2e";

/// `BENCHMARK.json`, generated from the registry so the file and the
/// binary cannot disagree (a unit test compares them).
pub fn benchmark_manifest() -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let metric = |d: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::str(d.name.clone())),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.as_str())),
        ];
        if let Some(b) = d.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    let manifest = format!("{BENCH_DIR}/Cargo.toml");
    let sections = [
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                &manifest,
                "--",
            ]),
        ),
        ("paths", strs(&[BENCH_DIR])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(metric).collect()),
        ),
    ];
    // One entry per line: the file is read by people too.
    let mut out = String::from("{\n");
    for (i, (key, value)) in sections.iter().enumerate() {
        let comma = if i + 1 < sections.len() { "," } else { "" };
        match value {
            Json::Arr(items) if items.iter().all(|v| matches!(v, Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (k, item) in items.iter().enumerate() {
                    let sep = if k + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{sep}\n", item.render()));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            other => out.push_str(&format!("  \"{key}\": {}{comma}\n", other.render())),
        }
    }
    out.push_str("}\n");
    out
}

/// Where and on what a run was made.
pub fn provenance(seed: u64) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("git_commit", Json::str(git_commit())),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::str(cpu_model)),
        // The benchmark package enables no `simd` feature, so the kernels
        // are the chunked scalar tier whatever the CPU offers.
        ("simd_built", Json::str("scalar")),
        ("simd_detected", Json::str(simd_detected())),
    ])
}

fn simd_detected() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut tiers = Vec::new();
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            tiers.push("avx2+fma");
        }
        if is_x86_feature_detected!("avx512f") {
            tiers.push("avx512f");
        }
        if tiers.is_empty() {
            "none".into()
        } else {
            tiers.join(",")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "none".into()
    }
}

/// The checkout's commit, read from `.git` without running git; the
/// driver's checkout is not a repository, and says so.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "not-a-git-checkout".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn registry_meets_the_contract_limits() {
        let e = end_to_end();
        let l = per_layer();
        assert!((1..=16).contains(&e.len()));
        assert!((1..=128).contains(&l.len()));
        let mut names: Vec<&str> = e.iter().chain(&l).map(|d| d.name.as_str()).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for (i, n) in names.iter().enumerate() {
            assert!(valid_name(n), "bad name {n}");
            assert!(!names[..i].contains(n), "duplicate name {n}");
        }
        for d in e.iter().chain(&l) {
            assert!(valid_unit(d.unit), "bad unit {}", d.unit);
        }
        for d in &e {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = e
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s present");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            e.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(l.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_manifest(),
            "regenerate with `e2e manifest`"
        );
        let parsed = Json::parse(&committed).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.len() <= 64 << 10);
    }

    #[test]
    fn metrics_json_lists_exactly_the_requested_defs() {
        let mut m = Metrics::default();
        m.set("iter_s", 1.25);
        m.set("not_in_registry", 9.0);
        m.set("iter_s", 1.5);
        let json = m.json_for(&end_to_end());
        let obj = json.as_obj().unwrap();
        assert_eq!(obj.len(), end_to_end().len());
        assert_eq!(
            json.get("iter_s").unwrap().get("value").unwrap().as_f64(),
            Some(1.5)
        );
        assert_eq!(
            json.get("iter_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
        assert!(json.get("not_in_registry").is_none());
    }

    #[test]
    fn values_print_with_six_significant_digits() {
        assert_eq!(format_value(1.234_567_89), "1.23457");
        assert_eq!(format_value(123_456.789), "123457");
        assert_eq!(format_value(1296.0), "1296");
        assert_eq!(format_value(0.012_345_678), "0.0123457");
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(1.5e7 + 0.5), "1.50000e7");
    }
}
