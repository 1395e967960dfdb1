(** Test-only fault injection for exercising the campaign retry and
    checkpoint/resume paths.

    Off by default (zero overhead beyond one read of a value computed at
    module initialisation).  Setting the environment variable
    [LVP_FAULT_RATE] to a probability in [0,1] makes {!maybe_inject}
    raise {!Injected} with that probability on each call;
    [LVP_FAULT_SEED] (default [0x5eed]) seeds the decision stream.  The
    campaign runner calls {!maybe_inject} at the start of every run
    {e attempt}, so with retries enabled a faulted run is retried and —
    thanks to deterministic per-run seeding — converges to the exact
    observation a fault-free campaign produces.  CI uses this to prove the
    faulted and clean datasets are byte-identical. *)

exception Injected of int
(** The fault, carrying a process-wide injection sequence number. *)

val enabled : unit -> bool
(** True when [LVP_FAULT_RATE] is set to a positive rate. *)

val maybe_inject : unit -> unit
(** Raise {!Injected} with probability [LVP_FAULT_RATE]; no-op when unset.
    Safe from any domain (the decision stream is mutex-shared).  Raises
    [Invalid_argument] if the environment variables are malformed. *)
