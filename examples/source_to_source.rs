//! Source-to-source use, like the original PLuTo tool: affine C in,
//! OpenMP-parallel tiled C out.
//!
//! ```text
//! cargo run --release --example source_to_source
//! ```

use pluto::Optimizer;
use pluto_repro::pluto_schedule;

const SOURCE: &str = "
  // 2-d Gauss-Seidel-style sweep (the paper's Fig. 4 kernel shape).
  params N;
  array a[N][N];
  for (i = 1; i < N; i++)
    for (j = 1; j < N; j++)
      a[i][j] = a[i-1][j] + a[i][j-1];
";

fn main() {
    println!("----- input (affine C) -----\n{SOURCE}");
    let prog = pluto_frontend::parse(SOURCE).expect("valid affine source");

    let options = Optimizer::new().tile_size(32).wavefront_degrees(1);
    let out = pluto_schedule(&prog, None, &options, None).expect("transformable");
    println!("----- transformation -----");
    println!("{}", out.compiled.optimized.transform().display(&prog));

    println!("----- output (OpenMP C) -----");
    println!("{}", out.code);
    println!(
        "note the tile-space wavefront: the outer tile loop is sequential,\n\
         the inner tile loop carries `#pragma omp parallel for`, and the\n\
         barrier is implicit at the end of each wavefront (paper Fig. 4)."
    );
}
