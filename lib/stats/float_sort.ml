let ascending ~what (a : float array) =
  let sorted = ref true in
  for i = 0 to Array.length a - 1 do
    let x = a.(i) in
    if Float.is_nan x then invalid_arg (what ^ ": NaN observation");
    if i > 0 && a.(i - 1) > x then sorted := false
  done;
  !sorted

(* Stdlib's [Array.sort]: a ternary heap sort whose sift-down first
   bubbles the hole to a leaf, then trickles the element back up.  With NaN
   excluded, [<] and [>] on floats agree with [Float.compare]. *)
let heap_sort (a : float array) =
  (* The largest child of [i] in a heap of [l] elements; -1 at a leaf. *)
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if a.(i31) < a.(i31 + 1) then i31 + 1 else i31 in
      if a.(x) < a.(i31 + 2) then i31 + 2 else x
    end
    else if i31 + 1 < l && a.(i31) < a.(i31 + 1) then i31 + 1
    else if i31 < l then i31
    else -1
  in
  let l = Array.length a in
  (* Heapify: trickle each inner node's element down. *)
  for i = ((l + 1) / 3) - 1 downto 0 do
    let e = a.(i) in
    let i = ref i and placed = ref false in
    while not !placed do
      let j = maxson l !i in
      if j >= 0 && a.(j) > e then begin
        a.(!i) <- a.(j);
        i := j
      end
      else begin
        a.(!i) <- e;
        placed := true
      end
    done
  done;
  for last = l - 1 downto 2 do
    let e = a.(last) in
    a.(last) <- a.(0);
    (* Bubble the hole at the root down to a leaf... *)
    let i = ref 0 and j = ref (maxson last 0) in
    while !j >= 0 do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson last !j
    done;
    (* ...then trickle [e] up from there. *)
    let i = ref !i and placed = ref false in
    while not !placed do
      let father = (!i - 1) / 3 in
      if a.(father) < e then begin
        a.(!i) <- a.(father);
        if father > 0 then i := father
        else begin
          a.(0) <- e;
          placed := true
        end
      end
      else begin
        a.(!i) <- e;
        placed := true
      end
    done
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

let sort ~what a = if not (ascending ~what a) then heap_sort a
