(** Shared work-stealing executor over OCaml 5 domains.

    One fixed-size pool of worker domains serves every parallel phase of
    the pipeline — campaign runs, multi-walk races, candidate fits,
    per-core-count quadratures — instead of each layer spawning its own
    domains (the seed spawned one domain {e per walker}, so a 256-walker
    race meant 256 domains on an 8-core box).  Each worker owns a
    {!Deque}: it pushes and pops its own work LIFO and steals FIFO from
    the others when it runs dry.

    Every library entry point that takes [?pool] defaults to {!serial}:
    no pool given means the work runs on the calling domain.  Parallelism
    is opted into by passing a pool from {!create} or {!with_pool}.

    {2 Sizing}

    {!create}'s default size is [Domain.recommended_domain_count ()]: one
    worker per core the runtime recommends.  An explicit [domains] may
    exceed it (stress tests deliberately oversubscribe, e.g. the CI job
    running the race regressions with [--pool-domains 8] on a 4-core
    runner); it is hard-capped at 126 so a misconfigured flag cannot hit
    the runtime's domain limit.  {!serial} has no worker domains; its
    [size] is 1, the calling domain.

    {2 Determinism}

    [parallel_map] writes result [i] into slot [i] regardless of which
    worker executed it and in which order, so outputs are byte-identical
    for any pool size — the property the campaign/fit/predict layers rely
    on (same seed ⇒ same dataset ⇒ same figures, pool of 1 or 16).

    {2 Exceptions}

    A raising task does not kill its worker or leak domains: the first
    exception (with its backtrace) is captured, remaining unstarted tasks
    of that call are skipped, every in-flight task is waited for — the
    barrier always joins — and the exception is re-raised in the caller.

    {2 Thread model}

    On a pool from {!create}, callers never execute tasks themselves;
    work runs only on the pool's domains.  The exception is re-entrancy:
    a task that itself calls [parallel_map] on its own pool helps execute
    queued tasks instead of blocking, so nested parallelism cannot
    deadlock, even on a pool of one.  A pool may be shared by several
    calling domains; each call's barrier is independent.  On {!serial},
    every task runs on the calling domain, in index order.

    [shutdown] must not race in-flight calls: finish (or cancel) your
    jobs, then shut down — {!with_pool} scopes this for you. *)

type t

val create : ?telemetry:Lv_telemetry.Sink.t -> ?domains:int -> unit -> t
(** Spawn the worker domains eagerly.  [domains] defaults to
    [Domain.recommended_domain_count ()]; explicit values are clamped to
    [1..126].  [telemetry] (default: the null sink) receives the pool
    counters when the pool shuts down — see {!shutdown} for the event
    paths. *)

val with_pool :
  ?telemetry:Lv_telemetry.Sink.t -> ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] = create, run [f], always {!shutdown} (also on raise). *)

val serial : t
(** The pool with no worker domains: {!parallel_map} runs every task on
    the calling domain, in index order, with the same result slotting,
    cancellation and exception semantics as a real pool.  It spawns
    nothing and holds no mutable state, so one value serves every caller,
    including tasks of another pool.  {!shutdown} does nothing and
    {!stats} reports zero tasks. *)

val size : t -> int
(** Number of domains that execute the pool's tasks: its worker count, or
    1 for {!serial}. *)

val worker_index : t -> int option
(** [Some w] when the calling domain executes tasks of [pool] as its
    worker [w] ([0 <= w < size pool]); [None] on any other domain.  On
    {!serial}, whose one worker is the caller, always [Some 0].  Lets
    tasks keep cheap worker-local state (e.g. one solver instance per
    worker), looked up per pool so nested pools never share a slot. *)

val parallel_map :
  ?cancel:Cancel.t -> ?skipped:'b -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f xs] evaluates [f] on every element, in parallel,
    preserving input order in the result.

    [cancel] makes the call cancellable.  Once the token is set, tasks
    that have not started are not run: their slots receive [skipped]
    when it is provided.  Without [skipped] the cancellation is purely
    cooperative — [f] still runs for every element and is expected to
    consult the token itself and return quickly.  Tasks already running
    are never interrupted (cooperative model); the barrier waits for
    them.  Raises [Invalid_argument] on a shut-down pool. *)

type stats = {
  domains : int;
  tasks : int;  (** tasks executed in total *)
  steals : int;  (** tasks a worker took from another worker's deque *)
  queue_high_water : int;  (** deepest any single deque ever got *)
  busy_seconds : float array;  (** per-worker time spent inside tasks *)
  worker_tasks : int array;  (** per-worker executed-task counts *)
}

val stats : t -> stats
(** Counters so far.  Exact once the pool is quiescent (all barriers
    passed); a snapshot while tasks run may lag the in-flight ones. *)

val shutdown : t -> unit
(** Stop the workers (they drain their deques first), join every domain,
    then flush the counters to the pool's telemetry sink under fixed
    paths: ["pool.tasks"], ["pool.steals"], ["pool.queue_hwm"] as counts
    and one ["pool.worker"] span per worker whose duration is that
    worker's busy seconds (fields: [worker], [tasks]).  Idempotent. *)
