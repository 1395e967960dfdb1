(* Tests for the Adaptive Search solver: parameter validation, determinism,
   solution correctness across problems, the stop hook, restart/reset
   bookkeeping, and Las Vegas variability. *)

open Lv_search

let default_with f = f Params.default

let solve_queens ?params ~seed n =
  let rng = Lv_stats.Rng.create ~seed in
  Adaptive_search.solve_packed ?params ~rng (Lv_problems.Queens.pack n)

(* ------------------------------------------------------------------ *)
(* Params                                                              *)
(* ------------------------------------------------------------------ *)

let test_params_validate_defaults () =
  let p = Params.validate ~n_vars:100 Params.default in
  Alcotest.(check int) "reset limit resolved" 10 p.Params.reset_limit;
  let p = Params.validate ~n_vars:5 Params.default in
  Alcotest.(check int) "reset limit floor" 2 p.Params.reset_limit

let test_params_validate_rejects () =
  let expect_invalid name p =
    match Params.validate ~n_vars:10 p with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "negative tenure" (default_with (fun d -> { d with Params.tabu_tenure = -1 }));
  expect_invalid "zero reset fraction"
    (default_with (fun d -> { d with Params.reset_fraction = 0. }));
  expect_invalid "reset fraction > 1"
    (default_with (fun d -> { d with Params.reset_fraction = 1.5 }));
  expect_invalid "walk prob > 1"
    (default_with (fun d -> { d with Params.prob_select_loc_min = 1.5 }));
  expect_invalid "zero restart"
    (default_with (fun d -> { d with Params.restart_limit = 0 }));
  expect_invalid "zero max iterations"
    (default_with (fun d -> { d with Params.max_iterations = 0 }));
  (match Params.validate ~n_vars:1 Params.default with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n_vars=1 accepted")

let test_params_explicit_reset_limit_kept () =
  let p =
    Params.validate ~n_vars:100
      (default_with (fun d -> { d with Params.reset_limit = 33 }))
  in
  Alcotest.(check int) "explicit kept" 33 p.Params.reset_limit

(* ------------------------------------------------------------------ *)
(* Solver                                                              *)
(* ------------------------------------------------------------------ *)

let test_solves_queens () =
  let r = solve_queens ~seed:1 30 in
  Alcotest.(check bool) "solved" true (Adaptive_search.solved r);
  match r.Adaptive_search.outcome with
  | Adaptive_search.Solved cfg ->
    Alcotest.(check bool) "valid solution" true (Lv_problems.Queens.check cfg)
  | Adaptive_search.Exhausted _ -> Alcotest.fail "not solved"

let test_deterministic_given_seed () =
  let r1 = solve_queens ~seed:42 20 and r2 = solve_queens ~seed:42 20 in
  Alcotest.(check int) "same iterations"
    (Adaptive_search.iterations r1)
    (Adaptive_search.iterations r2);
  match (r1.Adaptive_search.outcome, r2.Adaptive_search.outcome) with
  | Adaptive_search.Solved a, Adaptive_search.Solved b ->
    Alcotest.(check (array int)) "same solution" a b
  | _ -> Alcotest.fail "both should solve"

let test_seeds_vary_runtime () =
  (* Las Vegas: different seeds should give many distinct iteration counts. *)
  let iters =
    List.init 20 (fun s -> Adaptive_search.iterations (solve_queens ~seed:s 30))
  in
  let distinct = List.sort_uniq compare iters in
  Alcotest.(check bool) "runtimes vary" true (List.length distinct > 5)

let test_max_iterations_respected () =
  let params = default_with (fun d -> { d with Params.max_iterations = 3 }) in
  (* All-interval 40 cannot be solved in 3 iterations. *)
  let rng = Lv_stats.Rng.create ~seed:5 in
  let r = Adaptive_search.solve_packed ~params ~rng (Lv_problems.All_interval.pack 40) in
  Alcotest.(check bool) "not solved" false (Adaptive_search.solved r);
  Alcotest.(check bool) "stopped at budget" true (Adaptive_search.iterations r <= 3);
  match r.Adaptive_search.outcome with
  | Adaptive_search.Exhausted best -> Alcotest.(check bool) "best cost positive" true (best > 0)
  | Adaptive_search.Solved _ -> Alcotest.fail "impossible solve"

let test_stop_hook () =
  (* A stop that fires immediately must end the run at the first poll
     (iteration 1024 at the latest). *)
  let rng = Lv_stats.Rng.create ~seed:3 in
  let r =
    Adaptive_search.solve_packed
      ~stop:(fun () -> true)
      ~rng
      (Lv_problems.All_interval.pack 60)
  in
  Alcotest.(check bool) "aborted early" true (Adaptive_search.iterations r <= 2048)

let test_restart_counted () =
  let params =
    default_with (fun d ->
        { d with Params.restart_limit = 50; max_iterations = 2_000 })
  in
  let rng = Lv_stats.Rng.create ~seed:7 in
  let r = Adaptive_search.solve_packed ~params ~rng (Lv_problems.All_interval.pack 40) in
  Alcotest.(check bool) "restarts happened" true
    (r.Adaptive_search.stats.Adaptive_search.restarts > 0
    || Adaptive_search.solved r)

let test_stats_consistency () =
  let r = solve_queens ~seed:11 40 in
  let s = r.Adaptive_search.stats in
  Alcotest.(check bool) "swaps <= iterations" true
    (s.Adaptive_search.swaps <= s.Adaptive_search.iterations);
  Alcotest.(check bool) "plateau <= swaps" true
    (s.Adaptive_search.plateau_moves <= s.Adaptive_search.swaps);
  Alcotest.(check bool) "nonnegative" true
    (s.Adaptive_search.resets >= 0 && s.Adaptive_search.restarts >= 0
   && s.Adaptive_search.local_minima >= 0)

let test_solves_every_problem () =
  List.iter
    (fun (name, pack) ->
      let params = Lv_problems.Defaults.params name 0 in
      let rng = Lv_stats.Rng.create ~seed:17 in
      let packed = pack () in
      let r = Adaptive_search.solve_packed ~params ~rng packed in
      Alcotest.(check bool) (name ^ " solved") true (Adaptive_search.solved r);
      let (Csp.Packed ((module P), inst)) = packed in
      Alcotest.(check bool) (name ^ " checker agrees") true (P.is_solution inst))
    [
      ("all-interval", fun () -> Lv_problems.All_interval.pack 12);
      ("magic-square", fun () -> Lv_problems.Magic_square.pack 5);
      ("costas-array", fun () -> Lv_problems.Costas.pack 10);
      ("n-queens", fun () -> Lv_problems.Queens.pack 25);
      ("number-partitioning", fun () -> Lv_problems.Partition.pack 24);
    ]

(* The inner loop ([var_error], [cost_after_swap], [do_swap], the RNG
   draws) must not allocate: a campaign is millions of iterations, and in
   OCaml 5 every minor collection stops all domains.  What remains per
   iteration is restarts, resets and the result, amortised over the run.
   Bytecode boxes every int64 and float, so only native code is held to
   this. *)
let test_inner_loop_allocation () =
  if Sys.backend_type = Sys.Native then
    List.iter
      (fun (name, pack) ->
        let size =
          List.assoc name
            [
              ("all-interval", 13);
              ("magic-square", 10);
              ("costas-array", 12);
              ("n-queens", 30);
              ("number-partitioning", 24);
            ]
        in
        let params =
          { (Lv_problems.Defaults.params name size) with Params.max_iterations = 200_000 }
        in
        let words = ref 0. and iters = ref 0 in
        for seed = 1 to 3 do
          let packed = pack size in
          let rng = Lv_stats.Rng.create ~seed in
          let w0 = Gc.minor_words () in
          let r = Adaptive_search.solve_packed ~params ~rng packed in
          words := !words +. (Gc.minor_words () -. w0);
          iters := !iters + Adaptive_search.iterations r
        done;
        let per_iter = !words /. float_of_int !iters in
        if per_iter > 32. then
          Alcotest.failf "%s %d: %.1f minor words per iteration (%d iterations), limit 32"
            name size per_iter !iters)
      Lv_problems.Registry.all

let test_final_instance_state_matches_outcome () =
  (* After a Solved outcome the instance must hold that configuration. *)
  let packed = Lv_problems.Costas.pack 10 in
  let rng = Lv_stats.Rng.create ~seed:23 in
  let r = Adaptive_search.solve_packed ~rng packed in
  match r.Adaptive_search.outcome with
  | Adaptive_search.Solved cfg ->
    let (Csp.Packed ((module P), inst)) = packed in
    Alcotest.(check (array int)) "config preserved" cfg (P.config inst);
    Alcotest.(check int) "cost zero" 0 (P.cost inst)
  | Adaptive_search.Exhausted _ -> Alcotest.fail "costas 10 should solve"

let test_functor_and_packed_agree () =
  let module S = Adaptive_search.Make (Lv_problems.Queens) in
  let inst = Lv_problems.Queens.create 20 in
  let r1 = S.solve ~rng:(Lv_stats.Rng.create ~seed:31) inst in
  let r2 =
    Adaptive_search.solve_packed
      ~rng:(Lv_stats.Rng.create ~seed:31)
      (Lv_problems.Queens.pack 20)
  in
  Alcotest.(check int) "same trajectory"
    (Adaptive_search.iterations r1)
    (Adaptive_search.iterations r2)

(* ------------------------------------------------------------------ *)
(* Defaults registry                                                   *)
(* ------------------------------------------------------------------ *)

let test_defaults_known_problems () =
  List.iter
    (fun name ->
      let p = Lv_problems.Defaults.params name 10 in
      ignore (Params.validate ~n_vars:10 p))
    Lv_problems.Registry.names;
  let p = Lv_problems.Defaults.params "magic-square" 10 in
  Alcotest.(check (float 1e-12)) "ms walk" 0.8 p.Params.prob_select_loc_min;
  let p = Lv_problems.Defaults.params "unknown-problem" 10 in
  Alcotest.(check (float 1e-12)) "fallback walk" 0.5 p.Params.prob_select_loc_min

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"queens solutions are always valid" ~count:15
      (int_range 0 10_000)
      (fun seed ->
        let r = solve_queens ~seed 15 in
        match r.Adaptive_search.outcome with
        | Adaptive_search.Solved cfg -> Lv_problems.Queens.check cfg
        | Adaptive_search.Exhausted _ -> false);
    Test.make ~name:"iteration budget is an upper bound" ~count:15
      (pair (int_range 0 1000) (int_range 1 500))
      (fun (seed, budget) ->
        let params =
          default_with (fun d -> { d with Params.max_iterations = budget })
        in
        let rng = Lv_stats.Rng.create ~seed in
        let r =
          Adaptive_search.solve_packed ~params ~rng (Lv_problems.All_interval.pack 30)
        in
        Adaptive_search.iterations r <= budget);
  ]

let () =
  Alcotest.run "lv_search"
    [
      ( "params",
        [
          Alcotest.test_case "validate defaults" `Quick test_params_validate_defaults;
          Alcotest.test_case "validate rejects" `Quick test_params_validate_rejects;
          Alcotest.test_case "explicit reset limit" `Quick test_params_explicit_reset_limit_kept;
        ] );
      ( "solver",
        [
          Alcotest.test_case "solves queens" `Quick test_solves_queens;
          Alcotest.test_case "deterministic per seed" `Quick test_deterministic_given_seed;
          Alcotest.test_case "Las Vegas variability" `Quick test_seeds_vary_runtime;
          Alcotest.test_case "max iterations" `Quick test_max_iterations_respected;
          Alcotest.test_case "stop hook" `Quick test_stop_hook;
          Alcotest.test_case "restart bookkeeping" `Quick test_restart_counted;
          Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
          Alcotest.test_case "solves every problem" `Quick test_solves_every_problem;
          Alcotest.test_case "final state matches outcome" `Quick test_final_instance_state_matches_outcome;
          Alcotest.test_case "inner loop allocation" `Quick test_inner_loop_allocation;
          Alcotest.test_case "functor = packed" `Quick test_functor_and_packed_agree;
        ] );
      ( "defaults",
        [ Alcotest.test_case "per-problem params" `Quick test_defaults_known_problems ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
