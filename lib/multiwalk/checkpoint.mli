(** Durable campaign run-log: crash-safe checkpoint/resume for
    {!Campaign.run}.

    The format is JSON Lines, one completed run per line, appended and
    flushed as soon as the run finishes:

    {v
    {"run":0,"seed":100,"iterations":5213,"seconds":0.0071,"solved":true}
    {"run":1,"seed":101,"iterations":812,"seconds":0.0012,"solved":false}
    v}

    [seed] is the run's own derived seed ([campaign seed + run index]) and
    doubles as a consistency check on resume: a checkpoint written by a
    different campaign (different seed) is rejected rather than silently
    mixed in.  Floats are written with round-trip precision, so a resumed
    campaign reconstructs restored observations {e exactly} — the resumed
    dataset is byte-identical to an uninterrupted one (iteration values
    are deterministic per seed; seconds of restored runs are the genuinely
    measured ones from the interrupted campaign).

    Lines follow completion order, not run order: runs finish in any order
    on a pool, and a resume appends after what is already there.  Nothing
    compares the log's bytes; only its entries matter.

    Crash model: the process may be killed at any point, any number of
    times in a row.  Each append writes its line and then its newline in
    one flush to the OS, so completed runs survive, and a line is in the
    log once its newline is.  A crash mid-append leaves at most a torn
    tail without a newline: {!load} ignores it, and {!with_writer} cuts it
    off before appending, so a resumed log is again a clean one.  A
    malformed line that does end in a newline is not a crash artifact and
    makes {!load} fail.  (Surviving power loss would additionally need an
    fsync per run; that cost is deliberately not paid.) *)

type entry = {
  run : int;         (** run index within the campaign, [0 <= run < runs] *)
  seed : int;        (** the run's derived seed ([campaign seed + run]) *)
  iterations : int;
  seconds : float;
  solved : bool;     (** [false] ⇒ censored at [iterations] *)
}

val entry_of_observation : run:int -> seed:int -> Run.observation -> entry
val observation_of_entry : entry -> Run.observation

val load : string -> entry list
(** Entries in file order.  A missing file is an empty checkpoint.  A
    final line without its newline (torn write) is ignored, even if it
    parses; a malformed newline-terminated line raises [Failure] with the
    path and line number.  Blank lines are skipped. *)

type writer
(** An append handle; serialized internally, safe from any domain. *)

val with_writer : string -> (writer -> 'a) -> 'a
(** Open (creating if needed) for append, run, always close.  A torn last
    line (the file does not end in a newline) is cut off first. *)

val append : writer -> entry -> unit
(** Serialize, write one line, flush.  Safe from any domain. *)
