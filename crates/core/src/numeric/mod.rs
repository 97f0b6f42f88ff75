//! Small numerical toolbox: adaptive quadrature on finite and semi-infinite
//! intervals, a bracketed root finder, and the Gamma function.
//!
//! These back the *generic* code paths: every delay-utility family in the
//! paper has closed forms for its transforms (Table 1), and the numeric
//! routines here both (a) support arbitrary user-supplied utilities and
//! (b) cross-validate the closed forms in tests.

mod gamma;
mod quadrature;
mod roots;
pub mod tolerances;

pub use gamma::gamma;
pub use quadrature::{integrate, integrate_semi_infinite_singular, QuadratureError};
pub use roots::{brent, brent_between, BracketError};
