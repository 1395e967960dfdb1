type t = {
  n : int;
  x : int array;          (* permutation of 0 .. n-1 *)
  counts : int array;     (* counts.((d-1) * width + v + n - 1): occurrences
                             of difference value v in triangle row d *)
  width : int;            (* 2n - 1 possible difference values per row *)
  mutable cost : int;
  err : int array;        (* per-variable projected error, kept up to date *)
  (* Scratch for eval_swap (per instance: domains run in parallel). *)
  pair_a : int array;     (* left endpoints of affected pairs *)
  pair_d : int array;     (* triangle row of affected pairs *)
  old_v : int array;
  new_v : int array;
}

let name = "costas-array"
let size t = t.n
let config t = t.x
let cost t = t.cost

let idx t d v = ((d - 1) * t.width) + v + t.n - 1

let rebuild_errors t =
  Array.fill t.err 0 t.n 0;
  for d = 1 to t.n - 1 do
    for a = 0 to t.n - 1 - d do
      let v = t.x.(a + d) - t.x.(a) in
      let c = t.counts.(idx t d v) in
      if c > 1 then begin
        (* Both endpoints of a duplicated difference carry its surplus. *)
        t.err.(a) <- t.err.(a) + (c - 1);
        t.err.(a + d) <- t.err.(a + d) + (c - 1)
      end
    done
  done

let rebuild t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.cost <- 0;
  for d = 1 to t.n - 1 do
    for a = 0 to t.n - 1 - d do
      let v = t.x.(a + d) - t.x.(a) in
      let k = idx t d v in
      t.counts.(k) <- t.counts.(k) + 1;
      if t.counts.(k) > 1 then t.cost <- t.cost + 1
    done
  done;
  rebuild_errors t

let set_config t cfg =
  if Array.length cfg <> t.n then invalid_arg "Costas.set_config: size mismatch";
  Array.blit cfg 0 t.x 0 t.n;
  rebuild t

let create n =
  if n < 3 then invalid_arg "Costas.create: n must be >= 3";
  let width = (2 * n) - 1 in
  let max_pairs = 4 * (n - 1) in
  let t =
    {
      n;
      x = Array.init n (fun i -> i);
      counts = Array.make ((n - 1) * width) 0;
      width;
      cost = 0;
      err = Array.make n 0;
      pair_a = Array.make max_pairs 0;
      pair_d = Array.make max_pairs 0;
      old_v = Array.make max_pairs 0;
      new_v = Array.make max_pairs 0;
    }
  in
  rebuild t;
  t

let var_error t i = t.err.(i)

(* Append pair (a, a + d) to the first [m] scratch entries unless it falls
   outside the array or is already there; returns the new count.  The four
   candidates of a row can collide (e.g. j = i + d), and the ones already
   added for this [d] are the last entries, so only those are checked. *)
let add_pair t m d a =
  if a < 0 || a + d >= t.n then m
  else begin
    let dup = ref false in
    let s = ref (m - 1) in
    while (not !dup) && !s >= 0 && t.pair_d.(!s) = d do
      if t.pair_a.(!s) = a then dup := true;
      decr s
    done;
    if !dup then m
    else begin
      t.pair_a.(m) <- a;
      t.pair_d.(m) <- d;
      m + 1
    end
  end

(* Collect the difference-triangle entries that change when positions [i]
   and [j] swap: for each row [d], the pairs with a left endpoint in
   {i-d, i, j-d, j} that are valid and involve i or j.  Returns the number
   of distinct pairs collected into the scratch arrays. *)
let collect_affected t i j =
  let m = ref 0 in
  for d = 1 to t.n - 1 do
    m := add_pair t !m d (i - d);
    m := add_pair t !m d i;
    m := add_pair t !m d (j - d);
    m := add_pair t !m d j
  done;
  !m

(* Value at position [k] once positions [i] and [j] are swapped. *)
let value_after_swap t i j k =
  if k = i then t.x.(j) else if k = j then t.x.(i) else t.x.(k)

(* Called n - 1 times per solver iteration, so it allocates nothing. *)
let eval_swap t i j ~commit =
  let m = collect_affected t i j in
  for s = 0 to m - 1 do
    let a = t.pair_a.(s) and d = t.pair_d.(s) in
    t.old_v.(s) <- t.x.(a + d) - t.x.(a);
    t.new_v.(s) <- value_after_swap t i j (a + d) - value_after_swap t i j a
  done;
  let delta = ref 0 in
  for s = 0 to m - 1 do
    let k = idx t t.pair_d.(s) t.old_v.(s) in
    if t.counts.(k) > 1 then decr delta;
    t.counts.(k) <- t.counts.(k) - 1
  done;
  for s = 0 to m - 1 do
    let k = idx t t.pair_d.(s) t.new_v.(s) in
    if t.counts.(k) >= 1 then incr delta;
    t.counts.(k) <- t.counts.(k) + 1
  done;
  let new_cost = t.cost + !delta in
  if commit then begin
    t.cost <- new_cost;
    let tmp = t.x.(i) in
    t.x.(i) <- t.x.(j);
    t.x.(j) <- tmp;
    rebuild_errors t
  end
  else begin
    for s = 0 to m - 1 do
      let k = idx t t.pair_d.(s) t.new_v.(s) in
      t.counts.(k) <- t.counts.(k) - 1
    done;
    for s = 0 to m - 1 do
      let k = idx t t.pair_d.(s) t.old_v.(s) in
      t.counts.(k) <- t.counts.(k) + 1
    done
  end;
  new_cost

let cost_after_swap t i j = if i = j then t.cost else eval_swap t i j ~commit:false
let do_swap t i j = if i <> j then ignore (eval_swap t i j ~commit:true)

let check x =
  let n = Array.length x in
  n >= 3
  && begin
       let seen = Array.make n false in
       let ok = ref true in
       Array.iter
         (fun v ->
           if v < 0 || v >= n || seen.(v) then ok := false else seen.(v) <- true)
         x;
       if !ok then begin
         let width = (2 * n) - 1 in
         let seen_d = Array.make width false in
         for d = 1 to n - 1 do
           Array.fill seen_d 0 width false;
           for a = 0 to n - 1 - d do
             let v = x.(a + d) - x.(a) + n - 1 in
             if seen_d.(v) then ok := false else seen_d.(v) <- true
           done
         done
       end;
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
