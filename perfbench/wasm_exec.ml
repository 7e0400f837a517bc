(** wasm-exec: the secure-world Wasm engine alone.

    The eight fast-ablation programs (five PolyBench kernels and three
    Speedtest experiments) are loaded cold with [Runtime.default_config]
    and invoked repeatedly; each pass invokes every program once, in an
    order drawn from the seed, checks every checksum bit for bit against
    the native OCaml one, and then loads a 2 MB [Bigapp] cold (Fig. 4).
    Only [Runtime.load]/[invoke]/[cache_clear]/[default_config] are
    called, never a tier by name. *)

open Common
module Runtime = Watz.Runtime
module PB = Watz_workloads.Polybench
module ST = Watz_workloads.Speedtest

let name = "wasm-exec"

type program = { label : string; bytes : string; native : float; native_fn : unit -> float }

(* The 2 MB module's code has to fit the TA heap. *)
let bigapp_config = { Runtime.default_config with Runtime.heap_bytes = 8 * 1024 * 1024 }

let setup () =
  let polybench =
    List.map
      (fun k ->
        let k = PB.find k in
        (k.PB.name, k.PB.program, k.PB.native))
      [ "gemm"; "atax"; "trisolv"; "jacobi-1d"; "durbin" ]
  in
  let speedtest =
    List.filter_map
      (fun e ->
        if List.mem e.ST.id [ 100; 160; 500 ] then
          Some (Printf.sprintf "st-%d" e.ST.id, e.ST.program, e.ST.native)
        else None)
      ST.all
  in
  let programs =
    List.map
      (fun (label, program, native) ->
        { label; bytes = Watz_wasmc.Minic.compile_to_bytes program; native = native (); native_fn = native })
      (polybench @ speedtest)
  in
  (programs, Watz_workloads.Bigapp.generate ~mb:2)

let board () =
  let soc = Watz_tz.Soc.manufacture ~seed:"perfbench-wasm" () in
  (match Watz_tz.Soc.boot soc with Ok _ -> () | Error _ -> failwith "wasm board: boot failed");
  soc

(* Fisher-Yates over the program list, from the run's seed. *)
let order ~seed programs =
  let a = Array.of_list programs in
  let rng = Watz_util.Prng.create (derive seed 6) in
  for i = Array.length a - 1 downto 1 do
    let j = Watz_util.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

type loaded = { p : program; app : Runtime.app }

let load_all soc programs =
  Runtime.cache_clear ();
  List.map (fun p -> { p; app = Runtime.load ~entry:None soc p.bytes }) programs

let invoke_checked l =
  match Runtime.invoke l.app "run" [] with
  | [ Watz_wasm.Ast.VF64 x ] ->
    gate
      (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float l.p.native))
      "%s: %s returned %h, native %h" name l.p.label x l.p.native
  | _ -> gate false "%s: %s returned a non-f64 result" name l.p.label

let cold_bigapp soc bigapp =
  Runtime.cache_clear ();
  let app = Runtime.load ~config:bigapp_config soc bigapp in
  Runtime.unload app;
  app

(** One pass: every program once, then one cold Bigapp load. Returns
    each invoke's wall seconds, the load's, and the loaded app. *)
let pass ?(w = bare) soc loaded bigapp =
  let times =
    List.map (fun l -> fst (timed (fun () -> w.wrap l.p.label (fun () -> invoke_checked l)))) loaded
  in
  let load_s, app = timed (fun () -> w.wrap "runtime.load" (fun () -> cold_bigapp soc bigapp)) in
  (times, load_s, app)

let run ~seed ~seconds =
  let setup_s, raw_setup_s, (programs, bigapp) = setup_median ~reps:5 setup in
  let soc = board () in
  let loaded = order ~seed (load_all soc programs) in
  (* First pass: warm-up, and every checksum checked once before timing. *)
  ignore (pass soc loaded bigapp);
  let kernels = List.map (fun l -> (l, samples ())) loaded in
  let cpu_ms = samples () and loads = samples () and per_words = ref [] in
  let w =
    repeat ~seconds ~min_reps:5 (fun _ scale ->
        let w0 = words () and c0 = cpu () and t0 = wall () in
        let times, load_s, _ = pass soc loaded bigapp in
        let t1 = wall () and c1 = cpu () and w1 = words () in
        let scale = scale () in
        List.iter2 (fun (_, s) t -> add s ~scale (t *. 1e3)) kernels times;
        add cpu_ms ~scale ((c1 -. c0) *. 1e3);
        add loads ~scale (load_s *. 1e3);
        per_words := (w1 -. w0) :: !per_words;
        t1 -. t0)
  in
  let geo f = geomean (List.map (fun (_, s) -> median (f s)) kernels) in
  List.iter (fun (l, s) -> say name ("invoke_ms." ^ l.p.label ^ " (measured)") (median s.raw) "ms") kernels;
  say name "kernel_ms_geomean (measured)" (geo (fun s -> s.raw)) "ms";
  say name "load_ms (measured)" (median loads.raw) "ms";
  say name "minor_words_per_pass" (median !per_words) "words";
  say name "setup_s (measured)" raw_setup_s "s";
  say name "probe" w.probe_us "us";
  Printf.printf "%s: %d passes of %d programs + one cold 2 MB load\n" name w.reps (List.length loaded);
  {
    attempted = w.reps * (List.length loaded + 1);
    failed = 0;
    metrics =
      [
        m "wall_ms_per_op" "ms" (geo (fun s -> s.scaled));
        m "cpu_ms_per_op" "ms" (median cpu_ms.scaled);
        m "minor_words_per_op" "words" (median !per_words);
        m "completion_ratio" "ratio" 1.0;
        m "heap_peak_mb" "MB" w.heap_mb;
        m "setup_s" "s" setup_s;
      ];
  }

let run_traced ~seed ~seconds ~spans =
  let programs, bigapp = setup () in
  let soc = board () in
  let loaded = order ~seed (load_all soc programs) in
  ignore (pass soc loaded bigapp);
  let sp = Span.create () in
  let ids = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace ids l.p.label (Span.id sp ("runtime.invoke." ^ l.p.label))) loaded;
  Hashtbl.replace ids "runtime.load" (Span.id sp "runtime.load");
  let w = { wrap = (fun label f -> Span.record sp (Hashtbl.find ids label) f) } in
  let untraced_k = ref 0.0 and traced_k = ref 0.0 and traced_s = ref 0.0 and startups = ref [] in
  let { reps; probe_us; _ } =
    repeat ~seconds ~min_reps:2 (fun rep _ ->
        let untraced () = timed_scaled (fun () -> pass soc loaded bigapp) in
        let traced () = timed_scaled (fun () -> pass ~w soc loaded bigapp) in
        (* Alternate which of the pair runs first, so the overhead
           estimate does not inherit an order effect. *)
        let (ut, uk, _), (tt, tk, (_, _, app)) =
          if rep mod 2 = 0 then
            let u = untraced () in
            (u, traced ())
          else
            let t = traced () in
            (untraced (), t)
        in
        untraced_k := !untraced_k +. uk;
        traced_k := !traced_k +. tk;
        traced_s := !traced_s +. tt;
        startups := app.Runtime.startup :: !startups;
        ut +. tt)
  in
  let cached_s, _ =
    timed (fun () -> Runtime.unload (Runtime.load ~config:bigapp_config soc bigapp))
  in
  let decode_s, validate_s = Deep.decode_validate_s bigapp in
  let invoke_ms l =
    let t = Span.totals sp ("runtime.invoke." ^ l.p.label) in
    t.Span.total_s *. 1e3 /. float_of_int (max 1 t.Span.count)
  in
  let native_ms l = median (List.init 3 (fun _ -> fst (timed l.p.native_fn))) *. 1e3 in
  let vs_native = geomean (List.map (fun l -> invoke_ms l /. native_ms l) loaded) in
  let phase f = median (List.map f !startups) /. 1e6 in
  Span.dump sp spans;
  let per_pass = float_of_int reps in
  {
    attempted = 2 * reps * (List.length loaded + 1);
    failed = 0;
    metrics =
      List.map (fun l -> m ("runtime.invoke_ms." ^ l.p.label) "ms" (invoke_ms l)) loaded
      @ [
          m "runtime.load.alloc_ms" "ms" (phase (fun s -> s.Runtime.alloc_ns));
          m "runtime.load.hash_ms" "ms" (phase (fun s -> s.Runtime.hash_ns));
          m "runtime.load.init_ms" "ms" (phase (fun s -> s.Runtime.runtime_init_ns));
          m "runtime.load.prepare_ms" "ms" (phase (fun s -> s.Runtime.load_ns));
          m "runtime.load.instantiate_ms" "ms" (phase (fun s -> s.Runtime.instantiate_ns));
          m "load_ms" "ms" ((Span.totals sp "runtime.load").Span.total_s *. 1e3 /. per_pass);
          m "runtime.load_cached_ms" "ms" (cached_s *. 1e3);
          m "wasm.decode_ms" "ms" (decode_s *. 1e3);
          m "wasm.validate_ms" "ms" (validate_s *. 1e3);
          m "wasm.vs_native_x" "x" vs_native;
          m "ref.probe_us" "us" probe_us;
          m "trace.unattributed_pct" "%" (100.0 *. (!traced_s -. Span.top_level_s sp) /. !traced_s);
          m "trace.overhead_pct" "%" (100.0 *. (!traced_k -. !untraced_k) /. !untraced_k);
        ];
  }
