exception Injected of int

(* Both variables are read once, at module initialisation, not lazily:
   in OCaml 5 two domains forcing the same lazy value at once raise
   [CamlinternalLazy.Undefined], and the first [maybe_inject] calls come
   from concurrent pool workers.  A malformed value is kept as an error
   and raised at first use. *)
let rate =
  match Sys.getenv_opt "LVP_FAULT_RATE" with
  | None | Some "" -> Ok 0.
  | Some s -> (
    match float_of_string_opt s with
    | Some r when r >= 0. && r <= 1. -> Ok r
    | _ ->
      Error
        (Printf.sprintf
           "LVP_FAULT_RATE: expected a probability in [0,1], got %S" s))

(* One process-wide stream of fault decisions, mutex-shared across worker
   domains: each run *attempt* draws independently, so a faulted run can
   succeed on retry — the transient-fault model the retry policy targets. *)
let rng =
  match Sys.getenv_opt "LVP_FAULT_SEED" with
  | None | Some "" -> Ok (Lv_stats.Rng.create ~seed:0x5eed)
  | Some s -> (
    match int_of_string_opt s with
    | Some i -> Ok (Lv_stats.Rng.create ~seed:i)
    | None ->
      Error (Printf.sprintf "LVP_FAULT_SEED: expected an integer, got %S" s))

let get = function Ok v -> v | Error msg -> invalid_arg msg
let lock = Mutex.create ()
let injected = Atomic.make 0

let enabled () = get rate > 0.

let maybe_inject () =
  let r = get rate in
  if r > 0. then begin
    let rng = get rng in
    Mutex.lock lock;
    let u = Lv_stats.Rng.uniform rng in
    Mutex.unlock lock;
    if u < r then raise (Injected (Atomic.fetch_and_add injected 1))
  end
