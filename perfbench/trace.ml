(* In-memory span recorder for the benchmark's traced run.

   Spans are recorded by the benchmark's own code around each call it makes
   into the libraries, on the main domain only (worker domains run inside
   those calls, so main-domain nesting is the whole call tree the benchmark
   can see).  Every boundary snapshots [Gc.quick_stat] — process-wide, unlike
   [Gc.minor_words ()], which only counts the calling domain — and
   [Pool.stats] of the benchmark's pool, so each span carries the
   allocation, collections and pool work done while it was open.
   [Gc.quick_stat] sees each domain's allocation as of that domain's last
   minor collection, so a span's word count is exact only to within one
   minor heap per domain; no collection is forced here, as that would
   change what is measured.

   Library telemetry that the programs already emit (engine stages, the
   validate phases) can be adopted as child spans of the open span, so that
   self time splits across the layers below a single public call.  Spans
   stay in memory until {!write}. *)

module Clock = Lv_telemetry.Clock
module Pool = Lv_exec.Pool
module Json = Lv_telemetry.Json

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  layer : string;
  start : float;  (** seconds on {!Clock.elapsed} *)
  stop : float;
  adopted : bool;  (** copied from library telemetry: no GC/pool deltas *)
  minor_words : float;
  minor_collections : int;
  major_collections : int;
  busy : float array;  (** per-worker busy seconds spent inside the span *)
  tasks : int;
  steals : int;
}

type snapshot = {
  t : float;
  words : float;
  minors : int;
  majors : int;
  s_busy : float array;
  s_tasks : int;
  s_steals : int;
}

let enabled = ref false
let pool : Pool.t option ref = ref None
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let snapshot () =
  let g = Gc.quick_stat () in
  let s_busy, s_tasks, s_steals =
    match !pool with
    | Some p ->
      let s = Pool.stats p in
      (Array.copy s.Pool.busy_seconds, s.Pool.tasks, s.Pool.steals)
    | None -> ([||], 0, 0)
  in
  {
    t = Clock.elapsed ();
    words = g.Gc.minor_words;
    minors = g.Gc.minor_collections;
    majors = g.Gc.major_collections;
    s_busy;
    s_tasks;
    s_steals;
  }

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let current () = match !stack with p :: _ -> p | [] -> -1

(* [span ~layer name f] runs [f ()], recording a span when tracing is on;
   with tracing off it is exactly [f ()]. *)
let span ~layer name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () and parent = current () in
    stack := id :: !stack;
    let s0 = snapshot () in
    let finish () =
      stack := List.tl !stack;
      let s1 = snapshot () in
      let busy =
        if Array.length s1.s_busy = Array.length s0.s_busy then
          Array.mapi (fun i b -> b -. s0.s_busy.(i)) s1.s_busy
        else [||]
      in
      recorded :=
        {
          id;
          parent;
          name;
          layer;
          start = s0.t;
          stop = s1.t;
          adopted = false;
          minor_words = s1.words -. s0.words;
          minor_collections = s1.minors - s0.minors;
          major_collections = s1.majors - s0.majors;
          busy;
          tasks = s1.s_tasks - s0.s_tasks;
          steals = s1.s_steals - s0.s_steals;
        }
        :: !recorded
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Adopt the spans of a library telemetry sink as children of the open
   span: [classify event] names the layer and span name of each event to
   keep.  Library events carry their end time and duration. *)
let adopt sink ~classify =
  if !enabled then
    let parent = current () in
    List.iter
      (fun (ev : Lv_telemetry.Event.t) ->
        match (Lv_telemetry.Event.duration ev, classify ev) with
        | Some dur, Some (layer, name) ->
          recorded :=
            {
              id = fresh_id ();
              parent;
              name;
              layer;
              start = ev.Lv_telemetry.Event.ts -. dur;
              stop = ev.Lv_telemetry.Event.ts;
              adopted = true;
              minor_words = 0.;
              minor_collections = 0;
              major_collections = 0;
              busy = [||];
              tasks = 0;
              steals = 0;
            }
            :: !recorded
        | _ -> ())
      (Lv_telemetry.Sink.events sink)

let spans () = List.rev !recorded
let duration s = s.stop -. s.start

(* Self time: a span's duration minus the part its children cover.
   Children of one parent run one after another on the main domain, so
   their durations add up without overlap. *)
let self_times all =
  let child_sum = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_sum s.parent
          (duration s
          +. Option.value (Hashtbl.find_opt child_sum s.parent) ~default:0.))
    all;
  List.map
    (fun s ->
      ( s,
        duration s
        -. Option.value (Hashtbl.find_opt child_sum s.id) ~default:0. ))
    all

let by_layer all =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.layer
        (self +. Option.value (Hashtbl.find_opt tbl s.layer) ~default:0.))
    (self_times all);
  List.sort
    (fun (_, a) (_, b) -> Float.compare b a)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let to_json (s, self) =
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("parent", Json.Int s.parent);
      ("name", Json.String s.name);
      ("layer", Json.String s.layer);
      ("start", Json.Float s.start);
      ("end", Json.Float s.stop);
      ("self", Json.Float self);
      ("adopted", Json.Bool s.adopted);
      ("gc_minor_words", Json.Float s.minor_words);
      ("gc_minor_collections", Json.Int s.minor_collections);
      ("gc_major_collections", Json.Int s.major_collections);
      ( "pool_busy_s",
        Json.List (Array.to_list (Array.map (fun b -> Json.Float b) s.busy)) );
      ("pool_tasks", Json.Int s.tasks);
      ("pool_steals", Json.Int s.steals);
    ]

(* One JSON object per span, in the order spans were recorded. *)
let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e ->
          output_string oc (Json.to_string (to_json e));
          output_char oc '\n')
        (self_times (spans ())))
