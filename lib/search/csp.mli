(** Problem interface for constraint-based local search on permutations.

    All three of the paper's benchmarks (ALL-INTERVAL, MAGIC-SQUARE, COSTAS
    ARRAY) are modelled — as in the reference Adaptive Search library — as
    permutation problems: a configuration is a permutation of [0 .. n-1]
    (interpreted problem-specifically) and the only move is swapping two
    positions.  A problem implementation maintains incremental state so that
    the solver's inner loop ([cost_after_swap] over all candidate partners)
    stays cheap. *)

module type PROBLEM = sig
  type t
  (** Mutable instance state: the configuration plus whatever incremental
      bookkeeping the cost function needs. *)

  val name : string

  val size : t -> int
  (** Number of decision variables (positions of the permutation). *)

  val set_config : t -> int array -> unit
  (** Install a configuration (a permutation of [0 .. size-1]) and rebuild
      all incremental state.  The array is copied. *)

  val config : t -> int array
  (** The current configuration.  Callers must not mutate it. *)

  val cost : t -> int
  (** Global cost of the current configuration; [0] iff it is a solution. *)

  val var_error : t -> int -> int
  (** Projected error of variable [i] ≥ 0: the solver repairs the variable
      with the largest error (Adaptive Search's "culprit" selection).  Called
      for every variable each iteration; must not allocate. *)

  val cost_after_swap : t -> int -> int -> int
  (** Total cost the configuration would have after swapping positions [i]
      and [j].  Must not change observable state.  The solver calls it for
      every candidate partner, n - 1 times per iteration, so it must not
      allocate: no closures, refs captured by closures, tuples or boxed
      numbers on this path. *)

  val do_swap : t -> int -> int -> unit
  (** Swap positions [i] and [j] and update incremental state.  Called once
      per iteration that moves; like {!cost_after_swap} it must not
      allocate. *)

  val is_solution : t -> bool
  (** Independent full check of the current configuration — deliberately
      not derived from [cost] so tests can cross-validate the incremental
      bookkeeping. *)
end

(** A problem packaged with an instance, hiding the concrete type — what the
    multi-walk layer and the CLI pass around. *)
type packed = Packed : (module PROBLEM with type t = 'a) * 'a -> packed

val packed_name : packed -> string
val packed_size : packed -> int
