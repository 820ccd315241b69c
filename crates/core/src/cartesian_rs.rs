//! The `cartesian` formulation of repeated squaring — the paper's
//! *abandoned* first attempt, kept as an executable ablation.
//!
//! §4.2: "repeated squaring becomes a sequence of three steps over the
//! RDD: `cartesian` followed by `filter` to group blocks that should be
//! multiplied, `map` applying min-plus product, and finally `reduceByKey`
//! … the problem with this approach is reliance on `cartesian` that
//! involves extensive all-to-all data shuffle. In our tests, we found
//! that `cartesian` was easily stalling even on small problems."
//!
//! This implementation is *pure* (no side channel — it is actually the
//! only fully-pure repeated-squaring variant) but materializes `|A|²`
//! candidate pairs per squaring and `P²` partitions per `cartesian`. The
//! [`tests`] quantify the blow-up against the column-sweep formulation.

use crate::blocks::{BlockRecord, BlockedMatrix};
use crate::solver::{validate_adjacency, ApspError, ApspResult, ApspSolver, SolverConfig};
use apsp_blockmat::Matrix;
use sparklet::{Rdd, SparkContext};
use std::time::Instant;

/// Pure repeated squaring via `cartesian` + `filter` + `map` +
/// `reduceByKey` (paper §4.2, the rejected design). Only sensible at demo
/// scale.
#[derive(Debug, Default, Clone)]
pub struct CartesianSquaring;

impl ApspSolver for CartesianSquaring {
    fn name(&self) -> &'static str {
        "Repeated Squaring (cartesian)"
    }

    fn is_pure(&self) -> bool {
        true
    }

    fn solve(
        &self,
        ctx: &SparkContext,
        adjacency: &Matrix,
        cfg: &SolverConfig,
    ) -> Result<ApspResult, ApspError> {
        if cfg.track_paths {
            return Err(ApspError::InvalidConfig(
                "path tracking (with_paths) is not supported by the cartesian ablation solver; use one of the six paper solvers".into(),
            ));
        }
        let n = adjacency.order();
        cfg.check(n)?;
        if cfg.validate_input {
            validate_adjacency(adjacency)?;
        }
        let start = Instant::now();
        let metrics_before = ctx.metrics();

        let b = cfg.block_size;
        let q = n.div_ceil(b);
        let partitioner = cfg.partitioner.build(q, cfg.partitions_for(ctx));
        let blocked = BlockedMatrix::from_matrix(ctx, adjacency, b, partitioner.clone());
        let mut a: Rdd<BlockRecord> = blocked.rdd.clone().persist();

        let squarings = (n.max(2) as f64).log2().ceil() as usize;
        for _ in 0..squarings {
            // Expand the upper triangle to full orientation on the fly, so
            // `cartesian` sees every (row-block, column-block) candidate.
            let full = a.flat_map(|((i, j), blk)| {
                let mut out = Vec::with_capacity(2);
                if i != j {
                    out.push(((j, i), blk.transpose()));
                }
                out.push(((i, j), blk));
                out
            });

            // cartesian → filter (inner indices must match) → MatProd →
            // reduceByKey(MatMin). Keep only upper-triangular results.
            let kern = cfg.kernel;
            let products = full
                .cartesian(&full)
                .filter(|(((_, k1), _), ((k2, _), _))| k1 == k2)
                .flat_map(move |(((i, _), left), ((_, j), right))| {
                    if i <= j {
                        vec![((i, j), left.min_plus_with(kern, &right))]
                    } else {
                        Vec::new()
                    }
                });
            let next = products
                .reduce_by_key(partitioner.clone(), |mut x, y| {
                    x.mat_min_assign(&y);
                    x
                })
                .persist();
            next.count()?;
            let next = next.local_checkpoint()?;
            a.unpersist();
            a = next;
        }

        let result = blocked.with_rdd(a).collect_to_matrix()?;
        let metrics = ctx.metrics().delta(&metrics_before);
        Ok(ApspResult::new(
            result,
            metrics,
            start.elapsed(),
            squarings as u64,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RepeatedSquaring;
    use apsp_graph::{floyd_warshall as fw_oracle, generators};
    use sparklet::SparkConfig;

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConfig::with_cores(4))
    }

    #[test]
    fn matches_oracle_at_demo_scale() {
        let g = generators::erdos_renyi_paper(24, 0.2, 6);
        let res = CartesianSquaring
            .solve(
                &ctx(),
                &g.to_dense(),
                &SolverConfig::new(8).with_partitions(4),
            )
            .unwrap();
        assert!(res.distances().approx_eq(&fw_oracle(&g), 1e-9).is_ok());
    }

    #[test]
    fn long_path_closure() {
        let g = generators::path(17);
        let res = CartesianSquaring
            .solve(
                &ctx(),
                &g.to_dense(),
                &SolverConfig::new(6).with_partitions(3),
            )
            .unwrap();
        assert_eq!(res.distances().get(0, 16), 16.0);
    }

    #[test]
    fn is_pure_no_side_channel() {
        let sc = ctx();
        let g = generators::erdos_renyi_paper(16, 0.2, 2);
        let res = CartesianSquaring
            .solve(&sc, &g.to_dense(), &SolverConfig::new(8).with_partitions(2))
            .unwrap();
        assert_eq!(res.metrics.side_channel_writes, 0);
        assert!(res.metrics.shuffles > 0);
    }

    #[test]
    fn cartesian_blowup_vs_column_sweeps() {
        // The ablation: same instance, both repeated-squaring variants
        // agree, and the cartesian formulation's blow-up is quantified.
        let g = generators::erdos_renyi_paper(32, 0.15, 3);
        let adj = g.to_dense();
        let cfg = SolverConfig::new(8).with_partitions(4).without_validation();

        let sc1 = ctx();
        let cart = CartesianSquaring.solve(&sc1, &adj, &cfg).unwrap();
        let sc2 = ctx();
        let sweep = RepeatedSquaring.solve(&sc2, &adj, &cfg).unwrap();
        assert!(cart.distances().approx_eq(sweep.distances(), 1e-9).is_ok());
    }

    #[test]
    fn cartesian_materializes_quadratic_candidates() {
        // The paper's complaint made measurable: `cartesian` yields
        // |A_full|² candidate pairs and P² partitions, of which only a
        // 1/q fraction survive the inner-index filter.
        let sc = ctx();
        let g = generators::erdos_renyi_paper(32, 0.15, 3);
        let q = 4usize; // n=32, b=8
        let parts = 4usize;
        let bm = crate::BlockedMatrix::from_matrix(
            &sc,
            &g.to_dense(),
            8,
            crate::PartitionerChoice::MultiDiagonal.build(q, parts),
        );
        let full = bm.rdd.flat_map(|((i, j), blk)| {
            let mut out = Vec::with_capacity(2);
            if i != j {
                out.push(((j, i), blk.transpose()));
            }
            out.push(((i, j), blk));
            out
        });
        let pairs = full.cartesian(&full);
        // P² partitions — with the paper's P = 2048 this is 4M tasks.
        assert_eq!(pairs.num_partitions(), parts * parts);
        // q⁴ candidate pairs materialized...
        assert_eq!(pairs.count().unwrap(), (q * q) * (q * q));
        // ...of which only q³ participate in the product.
        let useful = pairs
            .filter(|(((_, k1), _), ((k2, _), _))| k1 == k2)
            .count()
            .unwrap();
        assert_eq!(useful, q * q * q);
    }
}
