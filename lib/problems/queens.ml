type t = {
  n : int;
  x : int array;
  up : int array;    (* up.(x_i + i): queens on each / diagonal *)
  down : int array;  (* down.(x_i - i + n - 1): queens on each \ diagonal *)
  mutable cost : int;
}

let name = "n-queens"
let size t = t.n
let config t = t.x
let cost t = t.cost

let surplus c = if c > 1 then c - 1 else 0

let rebuild t =
  Array.fill t.up 0 (Array.length t.up) 0;
  Array.fill t.down 0 (Array.length t.down) 0;
  t.cost <- 0;
  for i = 0 to t.n - 1 do
    let u = t.x.(i) + i and d = t.x.(i) - i + t.n - 1 in
    t.up.(u) <- t.up.(u) + 1;
    if t.up.(u) > 1 then t.cost <- t.cost + 1;
    t.down.(d) <- t.down.(d) + 1;
    if t.down.(d) > 1 then t.cost <- t.cost + 1
  done

let set_config t cfg =
  if Array.length cfg <> t.n then invalid_arg "Queens.set_config: size mismatch";
  Array.blit cfg 0 t.x 0 t.n;
  rebuild t

let create n =
  if n < 4 then invalid_arg "Queens.create: n must be >= 4";
  let t =
    {
      n;
      x = Array.init n (fun i -> i);
      up = Array.make ((2 * n) - 1) 0;
      down = Array.make ((2 * n) - 1) 0;
      cost = 0;
    }
  in
  rebuild t;
  t

let var_error t i =
  let u = t.x.(i) + i and d = t.x.(i) - i + t.n - 1 in
  surplus t.up.(u) + surplus t.down.(d)

(* Take one queen off diagonal counter [a.(k)] / put one on; each returns
   the change in cost. *)
let remove a k =
  let c = a.(k) in
  a.(k) <- c - 1;
  if c > 1 then -1 else 0

let add a k =
  let c = a.(k) in
  a.(k) <- c + 1;
  if c >= 1 then 1 else 0

(* Remove both queens' diagonals, add them back swapped, track the cost
   change.  Called n - 1 times per solver iteration, so it allocates
   nothing. *)
let eval_swap t i j ~commit =
  let ui = t.x.(i) + i and di = t.x.(i) - i + t.n - 1 in
  let uj = t.x.(j) + j and dj = t.x.(j) - j + t.n - 1 in
  let ui' = t.x.(j) + i and di' = t.x.(j) - i + t.n - 1 in
  let uj' = t.x.(i) + j and dj' = t.x.(i) - j + t.n - 1 in
  let r1 = remove t.up ui in
  let r2 = remove t.up uj in
  let r3 = remove t.down di in
  let r4 = remove t.down dj in
  let a1 = add t.up ui' in
  let a2 = add t.up uj' in
  let a3 = add t.down di' in
  let a4 = add t.down dj' in
  let new_cost = t.cost + r1 + r2 + r3 + r4 + a1 + a2 + a3 + a4 in
  if commit then begin
    t.cost <- new_cost;
    let tmp = t.x.(i) in
    t.x.(i) <- t.x.(j);
    t.x.(j) <- tmp
  end
  else begin
    (* Roll the counts back; the cost changes are not needed. *)
    ignore (remove t.up ui');
    ignore (remove t.up uj');
    ignore (remove t.down di');
    ignore (remove t.down dj');
    ignore (add t.up ui);
    ignore (add t.up uj);
    ignore (add t.down di);
    ignore (add t.down dj)
  end;
  new_cost

let cost_after_swap t i j = if i = j then t.cost else eval_swap t i j ~commit:false
let do_swap t i j = if i <> j then ignore (eval_swap t i j ~commit:true)

let check x =
  let n = Array.length x in
  n >= 4
  && begin
       let seen = Array.make n false in
       let up = Array.make ((2 * n) - 1) 0 and down = Array.make ((2 * n) - 1) 0 in
       let ok = ref true in
       Array.iteri
         (fun i v ->
           if v < 0 || v >= n || seen.(v) then ok := false
           else begin
             seen.(v) <- true;
             let u = v + i and d = v - i + n - 1 in
             if up.(u) > 0 || down.(d) > 0 then ok := false;
             up.(u) <- up.(u) + 1;
             down.(d) <- down.(d) + 1
           end)
         x;
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
