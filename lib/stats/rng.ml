(* xoshiro256** by Blackman & Vigna, seeded with splitmix64.  Both are
   public-domain reference algorithms; this is a direct transcription.  The
   four state words live in a 32-byte [Bytes.t] rather than in mutable
   [int64] record fields, so a draw reads and writes them unboxed: the
   solver draws in its inner loop and must not allocate there. *)

type t = Bytes.t

let[@inline] get t k = Bytes.get_int64_le t (8 * k)
let[@inline] set t k v = Bytes.set_int64_le t (8 * k) v

let[@inline] ( <<< ) x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let splitmix64_next state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed =
  let st = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for k = 0 to 3 do
    set t k (splitmix64_next st)
  done;
  (* xoshiro must not start in the all-zero state; splitmix64 output makes
     this essentially impossible, but guard anyway. *)
  if Int64.logor (Int64.logor (get t 0) (get t 1)) (Int64.logor (get t 2) (get t 3)) = 0L
  then for k = 0 to 3 do set t k (Int64.of_int (k + 1)) done;
  t

(* The one step of the generator.  Inlined into every draw below, so the
   output word stays in a register and is never boxed. *)
let[@inline] next t =
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = Int64.mul ((Int64.mul s1 5L) <<< 7) 9L in
  let x = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 1 (Int64.logxor s1 s2);
  set t 0 (Int64.logxor s0 s3);
  set t 2 (Int64.logxor s2 x);
  set t 3 (s3 <<< 45);
  result

let bits64 t = next t

(* Rejection sampling on the top bits to avoid modulo bias. *)
let rec draw_below t bound =
  let b = Int64.of_int bound in
  let r = Int64.shift_right_logical (next t) 1 in
  let v = Int64.rem r b in
  if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int b) 1L then draw_below t bound
  else Int64.to_int v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw_below t bound

let uniform t =
  (* 53 random bits scaled to [0,1). *)
  let r = Int64.shift_right_logical (next t) 11 in
  Int64.to_float r *. 0x1.0p-53

let rec uniform_pos t =
  let u = uniform t in
  if u > 0. then u else uniform_pos t

let float t bound = uniform t *. bound

let rec normal t =
  let u = (2. *. uniform t) -. 1. in
  let v = (2. *. uniform t) -. 1. in
  let s = (u *. u) +. (v *. v) in
  if s >= 1. || s = 0. then normal t
  else u *. sqrt (-2. *. log s /. s)

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  -.log (uniform_pos t) /. rate

let lognormal t ~mu ~sigma = exp (mu +. (sigma *. normal t))

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place t a;
  a
