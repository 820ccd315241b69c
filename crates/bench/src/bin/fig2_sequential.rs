//! Figure 2: execution time of the sequential kernels vs block size.
//!
//! The paper's Fig. 2 shows `FloydWarshall` and `MatProd`+`MatMin`
//! (MinPlus) growing as O(b³), with a knee once blocks outgrow cache
//! (≈ b = 1810 for their Skylake L3). This harness measures the real
//! kernels on this machine across a block-size sweep and reports the
//! measured cubic exponent; `--quick` shrinks the sweep.

use apsp_bench::{fmt_duration, write_json, HarnessArgs, TextTable};
use apsp_blockmat::{kernels, Block};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Point {
    b: usize,
    fw_s: f64,
    minplus_s: f64,
}

fn dense_block(b: usize, seed: usize) -> Block {
    Block::from_fn(b, |i, j| {
        if i == j {
            0.0
        } else {
            1.0 + ((i * 31 + j * 17 + seed) % 97) as f64
        }
    })
}

fn main() {
    let args = HarnessArgs::parse();
    let sweep: Vec<usize> = if args.quick {
        vec![64, 128, 256, 384]
    } else {
        vec![64, 128, 256, 384, 512, 768, 1024, 1536]
    };

    let mut points = Vec::new();
    let mut table = TextTable::new(&["b", "FloydWarshall", "MinPlus", "fw ns/op", "mp ns/op"]);
    for &b in &sweep {
        let mut fw = dense_block(b, 1);
        let t0 = Instant::now();
        kernels::floyd_warshall_in_place(&mut fw);
        let fw_s = t0.elapsed().as_secs_f64();

        let a = dense_block(b, 2);
        let x = dense_block(b, 3);
        let mut c = Block::infinity(b);
        let t1 = Instant::now();
        kernels::min_plus_into(&a, &x, &mut c);
        c.mat_min_assign(&a);
        let mp_s = t1.elapsed().as_secs_f64();

        let ops = (b as f64).powi(3);
        table.row(vec![
            b.to_string(),
            fmt_duration(fw_s),
            fmt_duration(mp_s),
            format!("{:.2}", fw_s / ops * 1e9),
            format!("{:.2}", mp_s / ops * 1e9),
        ]);
        points.push(Point {
            b,
            fw_s,
            minplus_s: mp_s,
        });
    }

    println!("== Figure 2: sequential kernel time vs block size ==");
    println!("{}", table.render());

    // Trend check: fit the growth exponent between consecutive doublings
    // (paper: "runtime increases roughly as O(b^3)").
    let mut exps = Vec::new();
    for w in points.windows(2) {
        let ratio_b = w[1].b as f64 / w[0].b as f64;
        exps.push((w[1].fw_s / w[0].fw_s).ln() / ratio_b.ln());
    }
    let avg = exps.iter().sum::<f64>() / exps.len() as f64;
    println!("measured FloydWarshall growth exponent ≈ {avg:.2} (paper: ~3, pre-knee)");
    if !(2.0..=4.2).contains(&avg) {
        eprintln!("WARNING: growth exponent outside expected cubic band");
    }

    if let Ok(path) = write_json("fig2_sequential", &points) {
        println!("wrote {}", path.display());
    }
}
