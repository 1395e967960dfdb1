(* Concurrent first use of Lv_multiwalk.Fault.  Campaign pool workers are
   the first callers of [Fault.maybe_inject], several domains at once; the
   fault configuration must already be initialised by then (a lazy value
   forced by two domains at once raises [CamlinternalLazy.Undefined] in
   OCaml 5).  This is its own executable so that these calls really are
   the process's first use of [Fault]. *)

module Fault = Lv_multiwalk.Fault

let domains = 4
let calls = 1000

let test_concurrent_first_use () =
  let ready = Atomic.make 0 in
  let worker () =
    (* Start together, to make the first calls overlap. *)
    Atomic.incr ready;
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    let enabled = Fault.enabled () in
    for _ = 1 to calls do
      (* An injected fault is the configured behaviour when LVP_FAULT_RATE
         is set in the environment; any other exception is the bug. *)
      try Fault.maybe_inject () with Fault.Injected _ -> ()
    done;
    enabled
  in
  let answers =
    List.map Domain.join (List.init domains (fun _ -> Domain.spawn worker))
  in
  Alcotest.(check bool)
    "every domain sees the same setting" true
    (List.for_all (( = ) (List.hd answers)) answers)

let () =
  Alcotest.run "lv_fault"
    [
      ( "fault",
        [
          Alcotest.test_case "concurrent first use" `Quick
            test_concurrent_first_use;
        ] );
    ]
