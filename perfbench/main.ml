(** Benchmark entry point:
    [main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]].

    With [--trace 0] the workload runs untraced and reports its
    end-to-end metrics; with [--trace 1] it runs the traced variant and
    reports per-layer metrics, writing its spans to [--spans]. Human
    lines go to stdout first; the last line is the JSON result. A failed
    correctness gate prints the result with ["correct": false] and exits
    with status 1. *)

let workloads =
  [
    ("attest-full", (Attest_full.run, Attest_full.run_traced));
    ("attest-resume", (Attest_resume.run, Attest_resume.run_traced));
    ("wasm-exec", (Wasm_exec.run, Wasm_exec.run_traced));
    ("ra-genann", (Ra_genann.run, Ra_genann.run_traced));
  ]

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else raise (Common.Gate (Printf.sprintf "metric value %f is not finite" x))

let print_result ~correct (o : Common.outcome) =
  let metrics =
    List.map
      (fun (x : Common.metric) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.Common.name (json_float x.Common.value)
          x.Common.unit_)
      o.Common.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    o.Common.attempted o.Common.failed (String.concat ", " metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spans = ref "perfbench-spans.tsv" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
      ("--spans", Arg.Set_string spans, "FILE where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some (run, run_traced) -> (
    let seed = !seed and seconds = !seconds in
    Common.start_sampler ();
    match
      Fun.protect ~finally:Common.stop_sampler (fun () ->
          if !trace = 0 then run ~seed ~seconds else run_traced ~seed ~seconds ~spans:!spans)
    with
    | o -> print_result ~correct:true o
    | exception Common.Gate msg ->
      prerr_endline ("correctness gate failed: " ^ msg);
      print_result ~correct:false { Common.attempted = 1; failed = 1; metrics = [] };
      exit 1)
