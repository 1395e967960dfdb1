(** Special functions needed by the probability substrate.

    Everything the paper delegated to Mathematica — the complementary error
    function for the lognormal CDF, gamma functions for the gamma/Weibull
    families and the Kolmogorov distribution, and their inverses for
    quantiles — implemented from standard series/continued-fraction
    expansions and, for erf/erfc, W. J. Cody's rational Chebyshev
    approximations.  Accuracy targets are stated per function and enforced by the
    test suite against published reference values. *)

val erf : float -> float
(** Error function, within a few ulp on the real line; near 0 it is
    [x · P(x²)/Q(x²)], never [1 - erfc x], so [erf 1e-10] keeps full
    relative precision. *)

val erfc : float -> float
(** Complementary error function [1 - erf x], computed without cancellation
    for large [x]: relative error below 1e-15 (a few ulp) up to
    [x = 26.543], where it underflows and returns 0.  [erfc (-.x)] is
    [2. -. erfc x] up to rounding. *)

val erf_inv : float -> float
(** Inverse of {!erf} on (-1, 1).  Raises [Invalid_argument] outside. *)

val erfc_inv : float -> float
(** Inverse of {!erfc} on (0, 2). *)

val log_gamma : float -> float
(** Natural log of the gamma function for positive arguments (Lanczos). *)

val gamma : float -> float
(** Gamma function for positive arguments. *)

val gamma_p : float -> float -> float
(** [gamma_p a x] is the regularized lower incomplete gamma function
    P(a, x) = γ(a, x) / Γ(a), for [a > 0], [x >= 0]. *)

val gamma_q : float -> float -> float
(** [gamma_q a x = 1. -. gamma_p a x], computed directly for large [x]. *)

val beta_inc : float -> float -> float -> float
(** [beta_inc a b x] is the regularized incomplete beta function
    I_x(a, b), for [a, b > 0] and [x] in [0, 1]. *)

val digamma : float -> float
(** Digamma (psi) function for positive arguments. *)

val norm_cdf : float -> float
(** Standard normal CDF, Φ(x) = erfc(-x/√2) / 2. *)

val norm_quantile : float -> float
(** Inverse standard normal CDF on (0, 1): Acklam's approximation refined by
    one Halley step, giving full double accuracy. *)
