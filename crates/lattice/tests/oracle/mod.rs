//! The reference oracle for the Wilson kernels: the phase-table spin
//! projection and the three-sweep `γ₅ M γ₅` (with its temporary field)
//! that `Spinor::project`/`reconstruct` and the single-pass `WilsonDirac`
//! replaced. It lives in the test tree only; `tests/properties.rs` and the
//! kernels bench (`crates/bench/benches/kernels.rs`, by `#[path]`) hold the
//! production kernels to its raw words.

use qcdoc_lattice::complex::{Complex, C64};
use qcdoc_lattice::field::{FermionField, GaugeField, NeighbourTable};
use qcdoc_lattice::gamma::GAMMA;
use qcdoc_lattice::real::Real;
use qcdoc_lattice::solver::DiracOperator;
use qcdoc_lattice::spinor::{HalfSpinor, ProjSign, Spinor};

fn table_project<T: Real>(psi: &Spinor<T>, mu: usize, sign: ProjSign) -> HalfSpinor<T> {
    let g = &GAMMA[mu];
    let mut h = HalfSpinor::default();
    for s in 0..2 {
        let gpart = psi.0[g.col[s]].scale(Complex::from_c64(g.phase[s]));
        h.0[s] = match sign {
            ProjSign::Minus => psi.0[s] - gpart,
            ProjSign::Plus => psi.0[s] + gpart,
        };
    }
    h
}

fn table_reconstruct<T: Real>(h: &HalfSpinor<T>, mu: usize, sign: ProjSign) -> Spinor<T> {
    let g = &GAMMA[mu];
    let mut out = Spinor::ZERO;
    out.0[0] = h.0[0];
    out.0[1] = h.0[1];
    for r in 2..4 {
        let src = h.0[g.col[r]].scale(Complex::from_c64(g.phase[r]));
        out.0[r] = match sign {
            ProjSign::Minus => -src,
            ProjSign::Plus => src,
        };
    }
    out
}

/// The Wilson operator as it stood before the specialisation.
pub struct TableWilson<'a, T: Real> {
    gauge: &'a GaugeField<T>,
    kappa: f64,
    hops: NeighbourTable,
}

impl<'a, T: Real> TableWilson<'a, T> {
    pub fn new(gauge: &'a GaugeField<T>, kappa: f64) -> Self {
        let hops = NeighbourTable::new(gauge.lattice());
        TableWilson { gauge, kappa, hops }
    }

    pub fn dslash(&self, out: &mut FermionField<T>, inp: &FermionField<T>) {
        for x in inp.lattice().sites() {
            let mut acc = Spinor::ZERO;
            for mu in 0..4 {
                let xf = self.hops.fwd(x, mu);
                let hf = table_project(inp.site(xf), mu, ProjSign::Minus)
                    .mul_su3(self.gauge.link(x, mu));
                acc += table_reconstruct(&hf, mu, ProjSign::Minus);
                let xb = self.hops.bwd(x, mu);
                let hb = table_project(inp.site(xb), mu, ProjSign::Plus)
                    .adj_mul_su3(self.gauge.link(xb, mu));
                acc += table_reconstruct(&hb, mu, ProjSign::Plus);
            }
            *out.site_mut(x) = acc;
        }
    }
}

impl<T: Real> DiracOperator for TableWilson<'_, T> {
    type Field = FermionField<T>;

    fn apply(&self, out: &mut FermionField<T>, inp: &FermionField<T>) {
        self.dslash(out, inp);
        let mk = Complex::from_c64(C64::real(-self.kappa));
        for x in inp.lattice().sites() {
            *out.site_mut(x) = inp.site(x).axpy(mk, out.site(x));
        }
    }

    fn apply_dagger(&self, out: &mut FermionField<T>, inp: &FermionField<T>) {
        let lat = inp.lattice();
        let mut tmp = FermionField::zero(lat);
        for x in lat.sites() {
            *tmp.site_mut(x) = inp.site(x).apply_gamma5();
        }
        self.apply(out, &tmp);
        for x in lat.sites() {
            let g = out.site(x).apply_gamma5();
            *out.site_mut(x) = g;
        }
    }

    fn name(&self) -> &'static str {
        "wilson"
    }
}
