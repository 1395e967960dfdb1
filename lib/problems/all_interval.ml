type t = {
  n : int;
  x : int array;
  counts : int array;  (* counts.(d) = occurrences of difference d, d in 1..n-1 *)
  mutable cost : int;  (* sum over d of max(0, counts.(d) - 1) *)
  (* Per-instance scratch (instances run on parallel domains, so no module-
     level mutable state). *)
  scratch_idx : int array;
  scratch_old : int array;
  scratch_new : int array;
}

let name = "all-interval"
let size t = t.n
let config t = t.x
let cost t = t.cost

let rebuild t =
  Array.fill t.counts 0 t.n 0;
  t.cost <- 0;
  for i = 0 to t.n - 2 do
    let d = abs (t.x.(i) - t.x.(i + 1)) in
    t.counts.(d) <- t.counts.(d) + 1;
    if t.counts.(d) > 1 then t.cost <- t.cost + 1
  done

let set_config t cfg =
  if Array.length cfg <> t.n then invalid_arg "All_interval.set_config: size mismatch";
  Array.blit cfg 0 t.x 0 t.n;
  rebuild t

let create n =
  if n < 3 then invalid_arg "All_interval.create: n must be >= 3";
  let t =
    {
      n;
      x = Array.init n (fun i -> i);
      counts = Array.make n 0;
      cost = 0;
      scratch_idx = Array.make 4 0;
      scratch_old = Array.make 4 0;
      scratch_new = Array.make 4 0;
    }
  in
  rebuild t;
  t

let surplus t d =
  let c = t.counts.(d) in
  if c > 1 then c - 1 else 0

let var_error t i =
  let e = ref 0 in
  if i > 0 then e := !e + surplus t (abs (t.x.(i - 1) - t.x.(i)));
  if i < t.n - 1 then e := !e + surplus t (abs (t.x.(i) - t.x.(i + 1)));
  !e

(* Append difference index [k] to the first [m] entries of the scratch
   unless it is out of range or already there; returns the new count. *)
let add_affected t m k =
  let buf = t.scratch_idx in
  if k < 0 || k > t.n - 2 then m
  else begin
    let dup = ref false in
    for s = 0 to m - 1 do
      if buf.(s) = k then dup := true
    done;
    if !dup then m
    else begin
      buf.(m) <- k;
      m + 1
    end
  end

(* The (at most four) difference indices whose value changes when positions
   [i] and [j] are swapped; writes them into the scratch and returns how
   many. *)
let affected t i j =
  let m = add_affected t 0 (i - 1) in
  let m = add_affected t m i in
  let m = add_affected t m (j - 1) in
  add_affected t m j

(* Value at position [k] once positions [i] and [j] are swapped. *)
let value_after_swap t i j k =
  if k = i then t.x.(j) else if k = j then t.x.(i) else t.x.(k)

(* Shared simulate/commit: walk the affected differences, remove the old
   values from [counts] and add the new ones, tracking the cost delta.  When
   not committing, the count updates are rolled back before returning.
   Called n - 1 times per solver iteration, so it allocates nothing. *)
let eval_swap t i j ~commit =
  let m = affected t i j in
  for s = 0 to m - 1 do
    let k = t.scratch_idx.(s) in
    t.scratch_old.(s) <- abs (t.x.(k) - t.x.(k + 1));
    t.scratch_new.(s) <- abs (value_after_swap t i j k - value_after_swap t i j (k + 1))
  done;
  let delta = ref 0 in
  for s = 0 to m - 1 do
    let d = t.scratch_old.(s) in
    if t.counts.(d) > 1 then decr delta;
    t.counts.(d) <- t.counts.(d) - 1
  done;
  for s = 0 to m - 1 do
    let d = t.scratch_new.(s) in
    if t.counts.(d) >= 1 then incr delta;
    t.counts.(d) <- t.counts.(d) + 1
  done;
  let new_cost = t.cost + !delta in
  if commit then begin
    t.cost <- new_cost;
    let tmp = t.x.(i) in
    t.x.(i) <- t.x.(j);
    t.x.(j) <- tmp
  end
  else begin
    for s = 0 to m - 1 do
      let d = t.scratch_new.(s) in
      t.counts.(d) <- t.counts.(d) - 1
    done;
    for s = 0 to m - 1 do
      let d = t.scratch_old.(s) in
      t.counts.(d) <- t.counts.(d) + 1
    done
  end;
  new_cost

let cost_after_swap t i j = eval_swap t i j ~commit:false
let do_swap t i j = ignore (eval_swap t i j ~commit:true)

let check x =
  let n = Array.length x in
  n >= 3
  && begin
       let seen_val = Array.make n false and seen_d = Array.make n false in
       let ok = ref true in
       Array.iter
         (fun v ->
           if v < 0 || v >= n || seen_val.(v) then ok := false else seen_val.(v) <- true)
         x;
       if !ok then
         for i = 0 to n - 2 do
           let d = abs (x.(i) - x.(i + 1)) in
           if d = 0 || seen_d.(d) then ok := false else seen_d.(d) <- true
         done;
       !ok
     end

let is_solution t = check t.x

let pack n =
  Lv_search.Csp.Packed
    ( (module struct
        type nonrec t = t

        let name = name
        let size = size
        let set_config = set_config
        let config = config
        let cost = cost
        let var_error = var_error
        let cost_after_swap = cost_after_swap
        let do_swap = do_swap
        let is_solution = is_solution
      end),
      create n )
