//! Euclidean gamma matrices in the DeGrand–Rossi (chiral) basis.
//!
//! Each Euclidean γ_μ has exactly one non-zero entry per row, with value
//! ±1 or ±i, so we store it as a permutation-plus-phase table. That sparse
//! structure is also what makes the Wilson spin projection trick work (see
//! [`crate::spinor`]): `(1 ∓ γ_μ) ψ` has only two independent spin
//! components, halving both the flops and the nearest-neighbour
//! communication volume.

use crate::complex::C64;

const I: C64 = C64 { re: 0.0, im: 1.0 };
const NEG_I: C64 = C64 { re: 0.0, im: -1.0 };
const ONE: C64 = C64 { re: 1.0, im: 0.0 };
const NEG_ONE: C64 = C64 { re: -1.0, im: 0.0 };

/// A gamma matrix as a row table: row `r` has its single non-zero entry in
/// column `col[r]` with value `phase[r]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    /// Column of the non-zero entry in each row.
    pub col: [usize; 4],
    /// Value of that entry.
    pub phase: [C64; 4],
}

/// γ_0 … γ_3 (x, y, z, t) in the DeGrand–Rossi basis.
pub const GAMMA: [Gamma; 4] = [
    // γ_x
    Gamma {
        col: [3, 2, 1, 0],
        phase: [I, I, NEG_I, NEG_I],
    },
    // γ_y
    Gamma {
        col: [3, 2, 1, 0],
        phase: [NEG_ONE, ONE, ONE, NEG_ONE],
    },
    // γ_z
    Gamma {
        col: [2, 3, 0, 1],
        phase: [I, NEG_I, NEG_I, I],
    },
    // γ_t
    Gamma {
        col: [2, 3, 0, 1],
        phase: [ONE, ONE, ONE, ONE],
    },
];

/// γ_5 = γ_x γ_y γ_z γ_t — diagonal (+1, +1, −1, −1) in this basis.
pub const GAMMA5: Gamma = Gamma {
    col: [0, 1, 2, 3],
    phase: [ONE, ONE, NEG_ONE, NEG_ONE],
};

impl Gamma {
    /// Dense 4×4 form.
    pub fn dense(&self) -> [[C64; 4]; 4] {
        let mut m = [[C64::ZERO; 4]; 4];
        for r in 0..4 {
            m[r][self.col[r]] = self.phase[r];
        }
        m
    }
}

/// Dense 4×4 complex matrix product (test helper exposed for the clover
/// construction of σ_μν).
fn matmul4(a: &[[C64; 4]; 4], b: &[[C64; 4]; 4]) -> [[C64; 4]; 4] {
    let mut out = [[C64::ZERO; 4]; 4];
    for r in 0..4 {
        for c in 0..4 {
            let mut acc = C64::ZERO;
            for k in 0..4 {
                acc = acc.madd(a[r][k], b[k][c]);
            }
            out[r][c] = acc;
        }
    }
    out
}

/// σ_μν = (i/2)[γ_μ, γ_ν] as a dense matrix — used by the clover term.
pub fn sigma(mu: usize, nu: usize) -> [[C64; 4]; 4] {
    let gm = GAMMA[mu].dense();
    let gn = GAMMA[nu].dense();
    let mn = matmul4(&gm, &gn);
    let nm = matmul4(&gn, &gm);
    let mut out = [[C64::ZERO; 4]; 4];
    for r in 0..4 {
        for c in 0..4 {
            out[r][c] = (mn[r][c] - nm[r][c]).mul_i() * 0.5;
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    fn dense_eq(a: &[[C64; 4]; 4], b: &[[C64; 4]; 4], tol: f64) -> bool {
        for r in 0..4 {
            for c in 0..4 {
                if (a[r][c] - b[r][c]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    fn identity() -> [[C64; 4]; 4] {
        let mut m = [[C64::ZERO; 4]; 4];
        for r in 0..4 {
            m[r][r] = C64::ONE;
        }
        m
    }

    fn scaled(m: &[[C64; 4]; 4], s: f64) -> [[C64; 4]; 4] {
        let mut out = *m;
        for r in 0..4 {
            for c in 0..4 {
                out[r][c] = m[r][c] * s;
            }
        }
        out
    }

    fn add(a: &[[C64; 4]; 4], b: &[[C64; 4]; 4]) -> [[C64; 4]; 4] {
        let mut out = [[C64::ZERO; 4]; 4];
        for r in 0..4 {
            for c in 0..4 {
                out[r][c] = a[r][c] + b[r][c];
            }
        }
        out
    }

    #[test]
    fn clifford_algebra() {
        // {γ_μ, γ_ν} = 2 δ_μν.
        for mu in 0..4 {
            for nu in 0..4 {
                let gm = GAMMA[mu].dense();
                let gn = GAMMA[nu].dense();
                let anti = add(&matmul4(&gm, &gn), &matmul4(&gn, &gm));
                let expect = if mu == nu {
                    scaled(&identity(), 2.0)
                } else {
                    [[C64::ZERO; 4]; 4]
                };
                assert!(dense_eq(&anti, &expect, 1e-14), "mu={mu} nu={nu}");
            }
        }
    }

    #[test]
    fn gammas_are_hermitian() {
        for (mu, g) in GAMMA.iter().enumerate() {
            let d = g.dense();
            for r in 0..4 {
                for c in 0..4 {
                    assert!((d[r][c] - d[c][r].conj()).abs() < 1e-15, "gamma_{mu}");
                }
            }
        }
    }

    #[test]
    fn gamma5_is_product_of_gammas() {
        let p = matmul4(
            &matmul4(&GAMMA[0].dense(), &GAMMA[1].dense()),
            &matmul4(&GAMMA[2].dense(), &GAMMA[3].dense()),
        );
        assert!(dense_eq(&p, &GAMMA5.dense(), 1e-14));
    }

    #[test]
    fn gamma5_anticommutes_with_each_gamma() {
        let g5 = GAMMA5.dense();
        for g in &GAMMA {
            let d = g.dense();
            let anti = add(&matmul4(&g5, &d), &matmul4(&d, &g5));
            assert!(dense_eq(&anti, &[[C64::ZERO; 4]; 4], 1e-14));
        }
    }

    #[test]
    fn permutation_involution() {
        // γ_μ² = 1 in table form: col[col[r]] == r and phase products are 1.
        for g in &GAMMA {
            for r in 0..4 {
                assert_eq!(g.col[g.col[r]], r);
                assert!((g.phase[r] * g.phase[g.col[r]] - C64::ONE).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn sigma_is_hermitian_and_traceless() {
        for mu in 0..4 {
            for nu in 0..4 {
                if mu == nu {
                    continue;
                }
                let s = sigma(mu, nu);
                let mut trace = C64::ZERO;
                for r in 0..4 {
                    trace += s[r][r];
                    for c in 0..4 {
                        assert!((s[r][c] - s[c][r].conj()).abs() < 1e-14);
                    }
                }
                assert!(trace.abs() < 1e-14);
            }
        }
    }

    #[test]
    fn sigma_antisymmetric_in_indices() {
        let a = sigma(0, 1);
        let b = sigma(1, 0);
        for r in 0..4 {
            for c in 0..4 {
                assert!((a[r][c] + b[r][c]).abs() < 1e-14);
            }
        }
    }
}
