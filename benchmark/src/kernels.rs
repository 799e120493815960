//! The benchmark's fixed kernels: the 13 mini-C files under
//! `benchmark/kernels/`, their closed-form instance counts, and — for the
//! five kernels the paper evaluates — the problem sizes of the execution
//! workload and a hand-written native reference.
//!
//! The references below are written from the C text in the kernel files,
//! loop for loop, with the same association of every floating-point
//! expression. They share no code with the compiler, so a digest they
//! produce is an independent expected output at any seed.

use crate::rng::splitmix64;

pub struct Kernel {
    pub name: &'static str,
    /// Statement instances at the given parameter values.
    pub instances: fn(&[i64]) -> i64,
    /// Small parameter values for the set-up check of the closed form.
    pub check_params: &'static [i64],
}

/// The five kernels of the paper's evaluation, as run by `kernel_exec`.
pub struct ExecKernel {
    pub name: &'static str,
    /// Timed size: arrays exceed the per-core L2 where the kernel's
    /// complexity allows it within the time budget (lu leaves L1 only).
    pub bench_params: &'static [i64],
    /// All arrays together fit a 48 KiB L1.
    pub l1_params: &'static [i64],
    /// Size for the cache simulator (arrays exceed its 256 KiB L2).
    pub sim_params: &'static [i64],
    /// Runs the original program natively on `arrays` (declaration order,
    /// row-major).
    pub reference: fn(&[i64], &mut [Vec<f64>]),
}

fn tri(n: i64) -> i64 {
    n * (n - 1) / 2
}

fn sum_squares_below(n: i64) -> i64 {
    (n - 1) * n * (2 * n - 1) / 6
}

pub const ALL: [Kernel; 13] = [
    Kernel {
        name: "jacobi-1d-imper",
        instances: |p| 2 * p[0] * (p[1] - 3),
        check_params: &[3, 11],
    },
    Kernel {
        name: "fdtd-2d",
        instances: |p| p[0] * (p[2] + (p[1] - 1) * p[2] + p[1] * (p[2] - 1) + p[1] * p[2]),
        check_params: &[2, 5, 6],
    },
    Kernel {
        name: "lu",
        instances: |p| tri(p[0]) + sum_squares_below(p[0]),
        check_params: &[7],
    },
    Kernel {
        name: "mvt",
        instances: |p| 2 * p[0] * p[0],
        check_params: &[6],
    },
    Kernel {
        name: "seidel-2d",
        instances: |p| p[0] * (p[1] - 2) * (p[1] - 2),
        check_params: &[3, 7],
    },
    Kernel {
        name: "matmul",
        instances: |p| p[0] * p[0] * p[0],
        check_params: &[5],
    },
    Kernel {
        name: "sor-2d",
        instances: |p| (p[0] - 1) * (p[0] - 1),
        check_params: &[7],
    },
    Kernel {
        name: "jacobi-2d-imper",
        instances: |p| 2 * p[0] * (p[1] - 2) * (p[1] - 2),
        check_params: &[2, 6],
    },
    Kernel {
        name: "gemver",
        instances: |p| 3 * p[0] * p[0] + p[0],
        check_params: &[5],
    },
    Kernel {
        name: "trmm",
        instances: |p| p[0] * tri(p[0]),
        check_params: &[6],
    },
    Kernel {
        name: "syrk",
        instances: |p| p[0] * p[0] * p[0],
        check_params: &[5],
    },
    Kernel {
        name: "trisolv",
        instances: |p| 2 * p[0] + tri(p[0]),
        check_params: &[7],
    },
    Kernel {
        name: "doitgen",
        instances: |p| {
            let n = p[0];
            2 * n * n * n + n * n * n * n
        },
        check_params: &[4],
    },
];

pub const EXEC: [ExecKernel; 5] = [
    ExecKernel {
        name: "jacobi-1d-imper",
        bench_params: &[8, 200_000],
        l1_params: &[400, 2000],
        sim_params: &[4, 40_000],
        reference: jacobi_1d,
    },
    ExecKernel {
        name: "fdtd-2d",
        bench_params: &[4, 400, 400],
        l1_params: &[300, 40, 40],
        sim_params: &[2, 160, 160],
        reference: fdtd_2d,
    },
    ExecKernel {
        name: "lu",
        bench_params: &[200],
        l1_params: &[72],
        sim_params: &[192],
        reference: lu,
    },
    ExecKernel {
        name: "mvt",
        bench_params: &[1200],
        l1_params: &[64],
        sim_params: &[300],
        reference: mvt,
    },
    ExecKernel {
        name: "seidel-2d",
        bench_params: &[5, 640],
        l1_params: &[300, 70],
        sim_params: &[3, 256],
        reference: seidel_2d,
    },
];

pub fn path(name: &str) -> String {
    format!("benchmark/kernels/{name}.c")
}

pub fn by_name(name: &str) -> &'static Kernel {
    ALL.iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("unknown kernel `{name}`"))
}

/// Initial value of cell `offset` of array `array`: a hash of the seed
/// mapped into [0.5, 1.5). `lu` gets a dominant diagonal so that
/// elimination without pivoting stays finite at every size.
pub fn init_value(
    seed: u64,
    kernel: &str,
    extents: &[Vec<usize>],
    array: usize,
    offset: usize,
) -> f64 {
    let mut state = seed
        ^ (array as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)
        ^ (offset as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB);
    let v = 0.5 + (splitmix64(&mut state) % 1_000_000) as f64 / 1_000_000.0;
    if kernel == "lu" {
        let n = extents[0][1];
        if offset / n == offset % n {
            return v + n as f64;
        }
    }
    v
}

// ---- native references --------------------------------------------------------

fn jacobi_1d(p: &[i64], arrays: &mut [Vec<f64>]) {
    let (t_steps, n) = (p[0] as usize, p[1] as usize);
    let [a, b] = arrays else {
        panic!("jacobi-1d-imper has two arrays")
    };
    for _ in 0..t_steps {
        for i in 2..=n - 2 {
            b[i] = 0.333 * (a[i - 1] + a[i] + a[i + 1]);
        }
        a[2..=n - 2].copy_from_slice(&b[2..=n - 2]);
    }
}

fn fdtd_2d(p: &[i64], arrays: &mut [Vec<f64>]) {
    let (tmax, nx, ny) = (p[0] as usize, p[1] as usize, p[2] as usize);
    let [ex, ey, hz] = arrays else {
        panic!("fdtd-2d has three arrays")
    };
    // ex[nx][ny+1], ey[nx+1][ny], hz[nx][ny]
    let (exw, eyw, hzw) = (ny + 1, ny, ny);
    for t in 0..tmax {
        ey[..ny].fill(1.0 / (t as f64 + 2.0));
        for i in 1..nx {
            for j in 0..ny {
                ey[i * eyw + j] -= 0.5 * (hz[i * hzw + j] - hz[(i - 1) * hzw + j]);
            }
        }
        for i in 0..nx {
            for j in 1..ny {
                ex[i * exw + j] -= 0.5 * (hz[i * hzw + j] - hz[i * hzw + j - 1]);
            }
        }
        for i in 0..nx {
            for j in 0..ny {
                hz[i * hzw + j] -= 0.7
                    * (ex[i * exw + j + 1] - ex[i * exw + j] + ey[(i + 1) * eyw + j]
                        - ey[i * eyw + j]);
            }
        }
    }
}

fn lu(p: &[i64], arrays: &mut [Vec<f64>]) {
    let n = p[0] as usize;
    let a = &mut arrays[0];
    for k in 0..n {
        for j in k + 1..n {
            a[k * n + j] /= a[k * n + k];
        }
        for i in k + 1..n {
            for j in k + 1..n {
                a[i * n + j] -= a[i * n + k] * a[k * n + j];
            }
        }
    }
}

fn mvt(p: &[i64], arrays: &mut [Vec<f64>]) {
    let n = p[0] as usize;
    let [a, x1, x2, y1, y2] = arrays else {
        panic!("mvt has five arrays")
    };
    for i in 0..n {
        for j in 0..n {
            x1[i] += a[i * n + j] * y1[j];
        }
    }
    for i in 0..n {
        for j in 0..n {
            x2[i] += a[j * n + i] * y2[j];
        }
    }
}

fn seidel_2d(p: &[i64], arrays: &mut [Vec<f64>]) {
    let (t_steps, n) = (p[0] as usize, p[1] as usize);
    let a = &mut arrays[0];
    for _ in 0..t_steps {
        for i in 1..=n - 2 {
            for j in 1..=n - 2 {
                a[i * n + j] = 0.2
                    * (a[(i - 1) * n + j]
                        + a[i * n + j - 1]
                        + a[i * n + j]
                        + a[i * n + j + 1]
                        + a[(i + 1) * n + j]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms_match_brute_force_counts() {
        // lu at N=7: sum over k of (N-1-k) + (N-1-k)^2.
        let brute: i64 = (0..7).map(|k| (6 - k) + (6 - k) * (6 - k)).sum();
        assert_eq!((by_name("lu").instances)(&[7]), brute);
        // trmm at N=6: N * sum_{i=1}^{N-1} i.
        assert_eq!((by_name("trmm").instances)(&[6]), 6 * (1 + 2 + 3 + 4 + 5));
        // trisolv at N=7: N + N + sum_{i<N} i.
        assert_eq!((by_name("trisolv").instances)(&[7]), 14 + 21);
        assert_eq!((by_name("jacobi-1d-imper").instances)(&[3, 11]), 2 * 3 * 8);
    }

    #[test]
    fn init_values_are_in_range_seeded_and_lu_is_diagonally_dominant() {
        let ext = vec![vec![8, 8]];
        for off in 0..64 {
            let v = init_value(1, "mvt", &ext, 0, off);
            assert!((0.5..1.5).contains(&v));
            assert_eq!(v, init_value(1, "mvt", &ext, 0, off));
        }
        assert_ne!(
            init_value(1, "mvt", &ext, 0, 3),
            init_value(2, "mvt", &ext, 0, 3)
        );
        assert!(init_value(1, "lu", &ext, 0, 9) >= 8.5);
        assert!(init_value(1, "lu", &ext, 0, 10) < 1.5);
    }

    #[test]
    fn references_compute_the_textbook_result_on_tiny_inputs() {
        // mvt, N=2: x1 = a*y1, x2 = a^T*y2 added to zero vectors.
        let mut arrays = vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![0.0, 0.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 0.0],
        ];
        mvt(&[2], &mut arrays);
        assert_eq!(arrays[1], vec![3.0, 7.0]);
        assert_eq!(arrays[2], vec![1.0, 2.0]);

        // lu, N=2: [[4, 2], [2, 3]] -> [[4, 0.5], [2, 2]].
        let mut arrays = vec![vec![4.0, 2.0, 2.0, 3.0]];
        lu(&[2], &mut arrays);
        assert_eq!(arrays[0], vec![4.0, 0.5, 2.0, 2.0]);
    }
}
