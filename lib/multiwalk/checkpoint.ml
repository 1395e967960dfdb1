type entry = {
  run : int;
  seed : int;
  iterations : int;
  seconds : float;
  solved : bool;
}

let entry_of_observation ~run ~seed (o : Run.observation) =
  {
    run;
    seed;
    iterations = o.Run.iterations;
    seconds = o.Run.seconds;
    solved = o.Run.solved;
  }

let observation_of_entry e =
  { Run.seconds = e.seconds; iterations = e.iterations; solved = e.solved }

let to_json e =
  Lv_telemetry.Json.Obj
    [
      ("run", Lv_telemetry.Json.Int e.run);
      ("seed", Lv_telemetry.Json.Int e.seed);
      ("iterations", Lv_telemetry.Json.Int e.iterations);
      ("seconds", Lv_telemetry.Json.Float e.seconds);
      ("solved", Lv_telemetry.Json.Bool e.solved);
    ]

let of_json j =
  let open Lv_telemetry in
  let get name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> v
    | None -> raise (Json.Parse_error (Printf.sprintf "checkpoint entry: bad or missing field %S" name))
  in
  {
    run = get "run" Json.to_int;
    seed = get "seed" Json.to_int;
    iterations = get "iterations" Json.to_int;
    seconds = get "seconds" Json.to_float;
    solved = get "solved" Json.to_bool;
  }

let of_line line = of_json (Lv_telemetry.Json.of_string line)

(* A line is in the log once its newline is written: [append] writes the
   newline last, in the same flush, so the only thing a crash can leave is
   an unterminated tail.  [load] ignores that tail and [with_writer] cuts
   it off; a bad line that did get its newline is corruption, wherever it
   is in the file. *)
let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> []
  | contents ->
    let lines = String.split_on_char '\n' contents in
    let n = List.length lines in
    List.concat
      (List.mapi
         (fun i line ->
           if i = n - 1 || String.trim line = "" then []
           else
             match of_line line with
             | e -> [ e ]
             | exception Lv_telemetry.Json.Parse_error msg ->
               failwith
                 (Printf.sprintf "Checkpoint.load: %s:%d: %s" path (i + 1) msg))
         lines)

type writer = { oc : out_channel; wlock : Mutex.t }

(* Appending after a torn tail would glue the next entry onto it and turn
   it into mid-file corruption: cut the file back to its last newline. *)
let drop_torn_tail path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> ()
  | contents ->
    let keep =
      match String.rindex_opt contents '\n' with Some i -> i + 1 | None -> 0
    in
    if keep < String.length contents then Unix.truncate path keep

let with_writer path f =
  drop_torn_tail path;
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  let w = { oc; wlock = Mutex.create () } in
  Fun.protect ~finally:(fun () -> close_out w.oc) (fun () -> f w)

let append w e =
  let line = Lv_telemetry.Json.to_string (to_json e) in
  Mutex.lock w.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.wlock)
    (fun () ->
      output_string w.oc line;
      output_char w.oc '\n';
      (* Flush per entry: the OS keeps flushed data if the process is
         killed, which is the crash model here (power loss would need
         fsync — deliberately not paid per run). *)
      flush w.oc)
