//! End-to-end orchestration: dependence analysis → hyperplane search →
//! tiling → wavefront → vectorization reorder (the PLuTo tool-chain of
//! Fig. 5, minus the code generator which lives in `pluto-codegen`).

use crate::search::{find_transformation, PlutoError, PlutoOptions, SearchResult};
use crate::tiling::tile_band;
use crate::types::{Parallelism, RowKind};
use crate::wavefront::{reorder_for_vectorization, wavefront};
use pluto_ir::{analyze_dependences_with, DepAnalysisOptions, Dependence, Program};
use pluto_linalg::Int;

/// One-stop driver for the full transformation pipeline.
///
/// # Examples
/// ```no_run
/// use pluto::Optimizer;
/// # fn demo(prog: &pluto_ir::Program) -> Result<(), pluto::PlutoError> {
/// let opt = Optimizer::new().tile_size(32).wavefront_degrees(1);
/// let optimized = opt.optimize(prog)?;
/// println!("{}", optimized.result.transform.display(prog));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Optimizer {
    /// Search options (input deps, fusion policy).
    pub options: PlutoOptions,
    /// Tile permutable bands of width >= 2 (Algorithm 1).
    pub tile: bool,
    /// Tile size used on every dimension of every tiled band.
    pub tile_size: Int,
    /// Optional second tiling level: each L2 tile covers `factor` L1 tiles
    /// per dimension ("Tiling multiple times", Sec. 5.2).
    pub second_level_factor: Option<Int>,
    /// Extract coarse-grained parallelism (Algorithm 2 when needed).
    pub parallelize: bool,
    /// Degrees of pipelined parallelism `m` for the wavefront.
    pub wavefront_degrees: usize,
    /// Move an intra-tile parallel loop innermost (Sec. 5.4).
    pub vectorize: bool,
    /// Factor by which the tile size of the to-be-vectorized loop is
    /// increased (paper Sec. 7: "the tile size of the loop to be
    /// vectorized was increased").
    pub vector_tile_boost: Int,
    /// Run the uniform-distance candidate pre-tests in dependence
    /// analysis (output-invariant; `--no-solver-cache` turns them off).
    pub dep_pruning: bool,
    /// Worker-team width for dependence analysis; `1` (the default)
    /// analyzes serially on the calling thread.
    pub dep_threads: usize,
}

impl Default for Optimizer {
    fn default() -> Optimizer {
        Optimizer::new()
    }
}

impl Optimizer {
    /// Paper-default configuration: smart fusion, input deps on, one tile
    /// level of 32, one degree of pipelined parallelism, vectorization
    /// reorder on.
    pub fn new() -> Optimizer {
        Optimizer {
            options: PlutoOptions::default(),
            tile: true,
            tile_size: 32,
            second_level_factor: None,
            parallelize: true,
            wavefront_degrees: 1,
            vectorize: true,
            vector_tile_boost: 4,
            dep_pruning: true,
            dep_threads: 1,
        }
    }

    /// Sets the tile size.
    pub fn tile_size(mut self, s: Int) -> Optimizer {
        self.tile_size = s;
        self
    }

    /// Enables/disables tiling.
    pub fn tiling(mut self, on: bool) -> Optimizer {
        self.tile = on;
        self
    }

    /// Sets the wavefront degree `m`.
    pub fn wavefront_degrees(mut self, m: usize) -> Optimizer {
        self.wavefront_degrees = m;
        self
    }

    /// Enables/disables parallelization.
    pub fn parallel(mut self, on: bool) -> Optimizer {
        self.parallelize = on;
        self
    }

    /// Enables/disables the vectorization reorder.
    pub fn vectorization(mut self, on: bool) -> Optimizer {
        self.vectorize = on;
        self
    }

    /// Sets search options.
    pub fn search_options(mut self, o: PlutoOptions) -> Optimizer {
        self.options = o;
        self
    }

    /// Sets the second tiling level factor.
    pub fn second_level(mut self, factor: Int) -> Optimizer {
        self.second_level_factor = Some(factor);
        self
    }

    /// Enables/disables the dependence-candidate pre-tests.
    pub fn dep_pruning(mut self, on: bool) -> Optimizer {
        self.dep_pruning = on;
        self
    }

    /// Sets the worker-team width for dependence analysis.
    pub fn dep_threads(mut self, threads: usize) -> Optimizer {
        self.dep_threads = threads.max(1);
        self
    }

    /// Dependence analysis as configured (input deps, pruning, team
    /// width), under a `deps` span. A caller that acts on the dependences
    /// before the search — the daemon probes its schedule cache — calls
    /// this, then [`optimize_with_deps`](Optimizer::optimize_with_deps).
    pub fn dependences(&self, prog: &Program) -> Vec<Dependence> {
        let _s = pluto_obs::span("deps");
        let options = DepAnalysisOptions {
            include_input: self.options.use_input_deps,
            prune: self.dep_pruning,
            threads: self.dep_threads,
        };
        analyze_dependences_with(prog, &options)
    }

    /// Runs the full pipeline on a program.
    ///
    /// # Errors
    /// Propagates [`PlutoError`] from the search.
    pub fn optimize(&self, prog: &Program) -> Result<Optimized, PlutoError> {
        self.optimize_with_deps(prog, None)
    }

    /// [`optimize`](Optimizer::optimize) on the caller's dependences —
    /// from [`dependences`](Optimizer::dependences) or a replayed cache;
    /// `None` analyses them here, inside the `optimize` span.
    ///
    /// # Errors
    /// Propagates [`PlutoError`] from the search.
    pub fn optimize_with_deps(
        &self,
        prog: &Program,
        deps: Option<Vec<Dependence>>,
    ) -> Result<Optimized, PlutoError> {
        let _span = pluto_obs::span("optimize");
        let deps = deps.unwrap_or_else(|| self.dependences(prog));
        let res = {
            let _s = pluto_obs::span("search");
            find_transformation(prog, &deps, &self.options)?
        };
        Ok(self.apply(prog, deps, res))
    }

    /// Applies the post-search pipeline stages (tiling → wavefront →
    /// vectorization reorder) to an existing search result.
    ///
    /// Lets callers run the (expensive) hyperplane search once and derive
    /// several differently-configured transformations from it — the
    /// differential test oracle does exactly this; [`optimize`] is
    /// `find_transformation` + this.
    ///
    /// [`optimize`]: Optimizer::optimize
    pub fn apply(&self, prog: &Program, deps: Vec<Dependence>, mut res: SearchResult) -> Optimized {
        if self.tile {
            let _s = pluto_obs::span("tiling");
            // Tile every point-level band of width >= 2, innermost-index
            // first is unnecessary — indices shift as bands are inserted,
            // so walk by index and skip bands we created.
            let mut bi = 0;
            while bi < res.transform.bands.len() {
                let b = res.transform.bands[bi];
                let is_point = res.transform.rows[b.start].tile_level == 0;
                if !is_point || b.width < 2 {
                    bi += 1;
                    continue;
                }
                let mut sizes = vec![self.tile_size; b.width];
                if self.vectorize {
                    // The Sec. 5.4 reorder will move the band's last
                    // parallel point row innermost; give that loop a
                    // longer tile for stride-1 vector runs (paper Sec. 7).
                    if let Some(j) = b
                        .rows()
                        .rev()
                        .find(|&r| res.transform.rows[r].par == Parallelism::Parallel)
                    {
                        sizes[j - b.start] = self.tile_size * self.vector_tile_boost.max(1);
                    }
                }
                tile_band(&mut res, prog, &deps, bi, &sizes);
                if let Some(f) = self.second_level_factor {
                    let l2 = vec![f; b.width];
                    tile_band(&mut res, prog, &deps, bi, &l2);
                }
                // Skip the band(s) we just inserted plus the point band.
                bi += 1 + if self.second_level_factor.is_some() {
                    2
                } else {
                    1
                };
            }
        }

        if self.parallelize {
            let _s = pluto_obs::span("wavefront");
            // Pipelined parallelism on the outermost tiled band whose
            // leading row still carries dependences.
            if let Some(&band) = res
                .transform
                .bands
                .iter()
                .find(|b| res.transform.rows[b.start].kind == RowKind::Loop)
            {
                let first_par = res.transform.rows[band.start].par;
                let tiled = res.transform.rows[band.start].tile_level > 0;
                if first_par == Parallelism::Sequential && tiled && band.width >= 2 {
                    let m = self.wavefront_degrees.min(band.width - 1).max(1);
                    wavefront(&mut res.transform, band, m);
                }
            }
        }

        if self.vectorize {
            let _s = pluto_obs::span("vectorize");
            // Reorder the innermost point band (largest start).
            if let Some(&band) = res
                .transform
                .bands
                .iter()
                .filter(|b| res.transform.rows[b.start].tile_level == 0)
                .max_by_key(|b| b.start)
            {
                if let Some((from, to)) = reorder_for_vectorization(&mut res.transform, band) {
                    // The reorder shifts rows (from..=to) — remap the
                    // satisfaction map to the final row coordinates.
                    if from != to {
                        for e in res.satisfied_at.iter_mut().flatten() {
                            if *e == from {
                                *e = to;
                            } else if *e > from && *e <= to {
                                *e -= 1;
                            }
                        }
                    }
                }
            }
        }

        Optimized { deps, result: res }
    }
}

/// Output of [`Optimizer::optimize`].
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The dependences computed for the program.
    pub deps: Vec<Dependence>,
    /// Search result carrying the final transformation.
    pub result: SearchResult,
}

impl Optimized {
    /// Convenience accessor for the transformation.
    pub fn transform(&self) -> &crate::types::Transformation {
        &self.result.transform
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Parallelism, RowKind};
    use pluto_ir::{Expr, ProgramBuilder, StatementSpec};

    /// `for i in 1..N { for j in 1..N { a[i][j] = a[i-1][j] + a[i][j-1] } }`
    fn sor() -> Program {
        let mut b = ProgramBuilder::new("sor", &["N"]);
        b.add_context_ineq(vec![1, -4]);
        b.add_array("a", 2);
        b.add_statement(StatementSpec {
            name: "S1".into(),
            iters: vec!["i".into(), "j".into()],
            domain_ineqs: vec![
                vec![1, 0, 0, -1],
                vec![-1, 0, 1, -1],
                vec![0, 1, 0, -1],
                vec![0, -1, 1, -1],
            ],
            beta: vec![0, 0, 0],
            write: ("a".into(), vec![vec![1, 0, 0, 0], vec![0, 1, 0, 0]]),
            reads: vec![
                ("a".into(), vec![vec![1, 0, 0, -1], vec![0, 1, 0, 0]]),
                ("a".into(), vec![vec![1, 0, 0, 0], vec![0, 1, 0, -1]]),
            ],
            body: Expr::Read(0) + Expr::Read(1),
        });
        b.build()
    }

    #[test]
    fn default_pipeline_tiles_and_wavefronts() {
        let prog = sor();
        let o = Optimizer::new().tile_size(16).optimize(&prog).unwrap();
        let t = &o.result.transform;
        // 2 tile rows + 2 point rows; the tile band was wavefronted:
        // row 0 sequential, row 1 parallel.
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.rows[0].par, Parallelism::Sequential);
        assert_eq!(t.rows[1].par, Parallelism::Parallel);
        assert_eq!(t.rows[0].tile_level, 1);
        assert_eq!(t.rows[2].tile_level, 0);
        // The wavefront row sums the two tile rows: iT + jT.
        let r0 = &t.stmts[0].rows[0];
        assert_eq!(&r0[..2], &[1, 1]);
    }

    #[test]
    fn tiling_disabled_leaves_point_rows() {
        let prog = sor();
        let o = Optimizer::new().tiling(false).optimize(&prog).unwrap();
        let t = &o.result.transform;
        assert_eq!(t.num_rows(), 2);
        assert!(t.rows.iter().all(|r| r.tile_level == 0));
    }

    #[test]
    fn second_level_adds_band() {
        let prog = sor();
        let o = Optimizer::new()
            .tile_size(8)
            .second_level(4)
            .parallel(false)
            .optimize(&prog)
            .unwrap();
        let t = &o.result.transform;
        assert_eq!(t.num_rows(), 6); // L2 + L1 + point
        assert_eq!(t.rows[0].tile_level, 2);
        assert_eq!(t.rows[2].tile_level, 1);
        assert_eq!(t.rows[4].tile_level, 0);
        assert_eq!(t.bands.len(), 3);
    }

    #[test]
    fn sor_has_no_vectorizable_intra_row() {
        // Both of SOR's point rows carry a dependence: the Sec. 5.4
        // reorder must leave the band untouched (no Vector row).
        let prog = sor();
        let o = Optimizer::new().tile_size(16).optimize(&prog).unwrap();
        let t = &o.result.transform;
        assert!(t.rows.iter().all(|r| r.par != Parallelism::Vector));
    }

    /// `C[i][j] += A[i][k] * B[k][j]` — two parallel space loops.
    fn matmul() -> Program {
        let mut b = ProgramBuilder::new("mm", &["N"]);
        b.add_context_ineq(vec![1, -2]);
        b.add_array("C", 2);
        b.add_array("A", 2);
        b.add_array("B", 2);
        b.add_statement(StatementSpec {
            name: "S1".into(),
            iters: vec!["i".into(), "j".into(), "k".into()],
            domain_ineqs: vec![
                vec![1, 0, 0, 0, 0],
                vec![-1, 0, 0, 1, -1],
                vec![0, 1, 0, 0, 0],
                vec![0, -1, 0, 1, -1],
                vec![0, 0, 1, 0, 0],
                vec![0, 0, -1, 1, -1],
            ],
            beta: vec![0, 0, 0, 0],
            write: ("C".into(), vec![vec![1, 0, 0, 0, 0], vec![0, 1, 0, 0, 0]]),
            reads: vec![
                ("C".into(), vec![vec![1, 0, 0, 0, 0], vec![0, 1, 0, 0, 0]]),
                ("A".into(), vec![vec![1, 0, 0, 0, 0], vec![0, 0, 1, 0, 0]]),
                ("B".into(), vec![vec![0, 0, 1, 0, 0], vec![0, 1, 0, 0, 0]]),
            ],
            body: Expr::Read(0) + Expr::Read(1) * Expr::Read(2),
        });
        b.build()
    }

    #[test]
    fn vectorization_moves_parallel_innermost() {
        let prog = matmul();
        let o = Optimizer::new().tile_size(16).optimize(&prog).unwrap();
        let t = &o.result.transform;
        // Point band rows 3..6; the last is the vector row (a parallel
        // space loop moved innermost, Sec. 5.4).
        let last = t.num_rows() - 1;
        assert_eq!(t.rows[last].par, Parallelism::Vector);
        assert_eq!(t.rows[last].kind, RowKind::Loop);
        // The reduction row k stays sequential inside the band.
        assert!(t.rows[3..last]
            .iter()
            .any(|r| r.par == Parallelism::Sequential));
    }

    #[test]
    fn optimized_accessors() {
        let prog = sor();
        let o = Optimizer::new().optimize(&prog).unwrap();
        assert!(!o.deps.is_empty());
        assert_eq!(o.transform().num_rows(), o.result.transform.num_rows());
    }
}
