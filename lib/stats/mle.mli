(** Parameter estimation for the candidate runtime laws.

    The estimators follow the paper's own recipes where it states them
    (Section 6): shifted exponential takes [x0 = min(sample)] and
    [λ = 1/(mean - x0)]; lognormal takes the MLE of log-data; shifted
    variants subtract a shift strictly below the minimum first so that
    [log (x - x0)] is defined on every observation. *)

val exponential : float array -> Distribution.t
(** [λ = 1 / mean]. *)

val exponential_censored :
  observed:float array -> censored:float array -> Distribution.t
(** Type-I right-censoring MLE for the exponential:
    [λ = n_observed / (Σ observed + Σ censored)].  Use when some runs were
    cut off at a budget (their runtimes are known only to exceed the
    censoring values) — dropping them, as the naive estimator must, biases
    [λ] upward and the predicted speed-up with it. *)

val shifted_exponential : ?bias_correct:bool -> float array -> Distribution.t
(** The paper's AI 700 recipe, [x0 = min], [λ = 1/(mean - x0)], with a bias
    correction on by default: the sample minimum of [n] exponential draws
    overshoots the true shift by [1/(nλ)], so
    [x0 = max 0 (min - (mean - min)/(n-1))].  This automates the paper's
    case distinction — data with a genuine shift keeps it (AI 700), data
    whose minimum is pure sampling noise collapses to [x0 = 0] and a plain
    exponential (Costas 21).  Pass [~bias_correct:false] for the paper's
    literal estimator.  Falls back to plain exponential when the sample is
    degenerate. *)

val normal : float array -> Distribution.t
(** Sample mean and (unbiased) standard deviation. *)

val lognormal : float array -> Distribution.t
(** MLE on logs: [μ = mean (log x)], [σ = std (log x)].  All observations
    must be positive. *)

val shifted_lognormal : ?shift_fraction:float -> float array -> Distribution.t
(** Shift [x0] chosen by maximizing the KS p-value of the lognormal MLE of
    [log (x - x0)] over [x0 = 0] and a 48-point grid on [(0, min)], dense
    toward [min] (the paper estimated MS 200's [x0 = 6210 = min] with
    Mathematica; searching the shift reproduces that choice on the paper's
    data and generalizes it).  The sample is ranked once and each grid
    shift is scored in reused buffers; only the winner becomes a
    [Distribution.t].  [shift_fraction] caps the search at
    [shift_fraction · min] (default 1.0, i.e. the whole admissible range). *)

val weibull : ?tol:float -> ?max_iter:int -> float array -> Distribution.t
(** MLE by Newton iteration on the shape equation. *)

val gamma : float array -> Distribution.t
(** MLE by Newton on [log k - ψ(k) = log(mean) - mean(log)], started from the
    Minka/method-of-moments seed. *)

val levy : float array -> Distribution.t
(** Matches the median: [c = 2·(erfc⁻¹(1/2))²·median]. *)
