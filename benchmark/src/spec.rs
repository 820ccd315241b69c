//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repo root is this table rendered by `bench_e2e spec`; a unit test keeps
//! the two identical.

use serde::Value;

pub const RUN_SECONDS: u64 = 15;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    DenseCb,
    ImFine,
    AlgebraMix,
    RoadHier,
    StoreServe,
}

pub const KINDS: [Kind; 5] = [
    Kind::DenseCb,
    Kind::ImFine,
    Kind::AlgebraMix,
    Kind::RoadHier,
    Kind::StoreServe,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::DenseCb => "dense_cb",
            Kind::ImFine => "im_fine",
            Kind::AlgebraMix => "algebra_mix",
            Kind::RoadHier => "road_hier",
            Kind::StoreServe => "store_serve",
        }
    }

    pub fn by_name(name: &str) -> Option<Kind> {
        KINDS.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload exists (one line, at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Kind::DenseCb => {
                "Paper's best solver (Collect/Broadcast) on an ER graph at q=16 with big blocks: the packed min-plus kernel and the side channel dominate; kernel gains show here."
            }
            Kind::ImFine => {
                "Same engine, opposite balance: In-Memory solver at q=32 with tiny blocks, so sparklet scheduling, shuffle and allocation dominate and the kernel idles; executor gains show here."
            }
            Kind::AlgebraMix => {
                "Tracked shortest paths + widest + reachability per rep: the argmin-tracking tier, the (max,min) twin and the bitset engine that a kernel-engine merge would rewrite."
            }
            Kind::RoadHier => {
                "Road grid through the un-hinted front door, which must route to SparseHierarchical: core::hierarchy, graph CSR and the lazy stitch dominate; the dense engine is bypassed."
            }
            Kind::StoreServe => {
                "Tracked solve saved to a closure store, queried warm through the store and served with half its blocks cached: cold reads under the cache lock meet warm hits under 2-way HTTP concurrency."
            }
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these from its untraced pass.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "solve_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_kqps",
        unit: "kq/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "http_qps",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
    },
    EndToEnd {
        name: "http_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "http_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every workload reports every one of these from its traced pass; a
/// layer the workload bypasses is probed on a small stand-in instance.
pub const PER_LAYER: &[PerLayer] = &[
    pl("graph.generate_s", "s", "lower"),
    pl("graph.to_dense_s", "s", "lower"),
    pl("graph.dijkstra_row_us", "us", "lower"),
    pl("blockmat.minplus_gflops_eq", "Gop/s", "higher"),
    pl("blockmat.fw_gflops_eq", "Gop/s", "higher"),
    pl("blockmat.tracked_gflops_eq", "Gop/s", "higher"),
    pl("blockmat.maxmin_gflops_eq", "Gop/s", "higher"),
    pl("blockmat.bitset_gops_eq", "Gop/s", "higher"),
    pl("blockmat.kernel_ops", "count", "lower"),
    pl("sparklet.tasks", "count", "lower"),
    pl("sparklet.stages", "count", "lower"),
    pl("sparklet.shuffles", "count", "lower"),
    pl("sparklet.shuffle_mb", "MB", "lower"),
    pl("sparklet.sidechannel_mb_written", "MB", "lower"),
    pl("sparklet.sidechannel_mb_read", "MB", "lower"),
    pl("sparklet.broadcast_mb", "MB", "lower"),
    pl("sparklet.collected_records", "count", "lower"),
    pl("sparklet.task_retries", "count", "lower"),
    pl("sparklet.stage_overhead_us", "us", "lower"),
    pl("sparklet.shuffle_mb_per_s", "MB/s", "higher"),
    pl("sparklet.sidechannel_put_get_us", "us", "lower"),
    pl("plan.front_door_us", "us", "lower"),
    pl("plan.ladder_ms", "ms", "lower"),
    pl("cluster.project_us", "us", "lower"),
    pl("engine.efficiency", "ratio", "higher"),
    pl("engine.round_s", "s", "lower"),
    pl("engine.warmup_ratio", "ratio", "lower"),
    pl("engine.cb_over_im", "ratio", "lower"),
    pl("engine.cb_over_mpi_dc", "ratio", "lower"),
    pl("engine.solve_tracked_s", "s", "lower"),
    pl("engine.solve_widest_s", "s", "lower"),
    pl("engine.solve_reach_s", "s", "lower"),
    pl("checkpoint.overhead_ratio", "ratio", "lower"),
    pl("checkpoint.mb_written", "MB", "lower"),
    pl("checkpoint.write_mb_per_s", "MB/s", "higher"),
    pl("hierarchy.parts", "count", "lower"),
    pl("hierarchy.boundary_vertices", "count", "lower"),
    pl("hierarchy.cut_edges", "count", "lower"),
    pl("hierarchy.dist_us_p50", "us", "lower"),
    pl("hierarchy.dist_us_p99", "us", "lower"),
    pl("hierarchy.row_ms", "ms", "lower"),
    pl("hierarchy.knearest_ms", "ms", "lower"),
    pl("hierarchy.row_over_dijkstra", "ratio", "lower"),
    pl("store.save_s", "s", "lower"),
    pl("store.save_mb_per_s", "MB/s", "higher"),
    pl("store.disk_mb", "MB", "lower"),
    pl("store.open_us", "us", "lower"),
    pl("store.cold_us_p50", "us", "lower"),
    pl("store.cold_us_p99", "us", "lower"),
    pl("store.path_us_p50", "us", "lower"),
    pl("store.inmem_mqps", "Mq/s", "higher"),
    pl("store.cache_hit_ratio", "ratio", "higher"),
    pl("store.blocks_read", "count", "lower"),
    pl("store.evictions", "count", "lower"),
    pl("serve.warm_qps", "1/s", "higher"),
    pl("serve.warm_p50_us", "us", "lower"),
    pl("serve.connect_us", "us", "lower"),
    pl("serve.inproc_answer_us", "us", "lower"),
    pl("serve.requests_served", "req", "higher"),
    pl("serve.job_overhead_ms", "ms", "lower"),
    pl("trace.overhead_ratio", "ratio", "lower"),
];

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// `BENCHMARK.json`, exactly the keys the benchmark contract names.
pub fn benchmark_json() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Value::Object(vec![
        (
            "command".into(),
            Value::Array(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths".into(), Value::Array(vec![s("benchmark")])),
        ("run_seconds".into(), Value::UInt(RUN_SECONDS)),
        (
            "workloads".into(),
            Value::Array(
                KINDS
                    .iter()
                    .map(|k| {
                        Value::Object(vec![
                            ("name".into(), s(k.name())),
                            ("why".into(), s(k.why())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::Object(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better)),
                            ("bound".into(), Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::Object(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let mut names: Vec<&str> = KINDS.iter().map(|k| k.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in END_TO_END {
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for m in PER_LAYER {
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for k in KINDS {
            assert!(
                k.why().len() <= 200 && !k.why().contains('\n'),
                "{}",
                k.name()
            );
            assert_eq!(Kind::by_name(k.name()), Some(k));
        }
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let committed = serde_json::from_str(&committed).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `bench_e2e spec`"
        );
    }
}
