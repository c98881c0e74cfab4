//! # placer-numeric
//!
//! Numerical substrate for analytical placement: a radix-2 [FFT](mod@fft),
//! a spectral [`PoissonSolver`] (the electrostatic density engine of ePlace),
//! a [`NesterovState`] accelerated gradient solver with Lipschitz step
//! estimation, and a nonlinear conjugate gradient routine
//! ([`minimize_cg`]) for NTUplace3-style baselines.
//!
//! Everything is implemented from scratch on `std` only.
//!
//! # Examples
//!
//! ```
//! use placer_numeric::{Grid, PoissonSolver};
//!
//! let solver = PoissonSolver::new(32, 32, 1.0, 1.0);
//! let mut density = Grid::new(32, 32);
//! density.add(16, 16, 4.0);
//! let potential = solver.solve(&density);
//! let (ex, ey) = solver.field(&potential);
//! // Charge at the center pushes a probe on its right further right.
//! assert!(ex.get(20, 16) > 0.0);
//! # let _ = ey;
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cg;
mod complex;
pub mod dct;
pub mod fft;
mod grid;
mod nesterov;
mod poisson;
mod proptests;

pub use cg::{minimize_cg, CgObjective, CgOptions, CgResult};
pub use complex::Complex;
pub use dct::{dct_ii_naive, dct_iii_naive, DctPlan};
pub use fft::{dft_naive, fft, fft2, ifft, ifft2, is_power_of_two, Fft2Plan, FftPlan};
pub use grid::Grid;
pub use nesterov::{NesterovSnapshot, NesterovState};
pub use poisson::PoissonSolver;
