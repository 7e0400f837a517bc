(** ra-genann: the Table IV + Fig. 8 pipeline.

    A Genann app with the WASI-RA imports runs in the secure world. Each
    pass it attests to a co-located [Verifier_app] (driven through
    [Runtime.config.pump]), receives the 1 MB replicated Iris dataset as
    the msg3 secret, and trains one epoch from the seed's initial
    weights. Gates: the bytes in linear memory are the bytes the
    verifier sent, and the trained weights equal native OCaml Genann on
    the same data and initial weights, bit for bit. *)

open Common
module P = Watz_attest.Protocol
module Runtime = Watz.Runtime
module Soc = Watz_tz.Soc
module GW = Watz_workloads.Genann_wasm
module Iris = Watz_workloads.Iris

let name = "ra-genann"
let dataset_bytes = 1_048_576
let rate = 0.7
let port = 4433

(* Fixed addresses in the app's linear memory, below the dataset. *)
let key_at = 34000
let ctx_at = 34200
let quote_at = 34204
let len_at = 34208
let anchor_at = 34100

(** The Genann module plus one export per WASI-RA step. *)
let app_program ~verifier_key ~mem_pages =
  let base = GW.program ~mem_pages () in
  let open Watz_wasmc.Minic in
  let open Watz_wasmc.Minic.Dsl in
  let steps =
    [
      fn "ra_handshake" [] (Some I32)
        [ ret (calle "net_handshake" [ i port; i key_at; i ctx_at; i anchor_at ]) ];
      fn "ra_collect" [] (Some I32) [ ret (calle "collect_quote" [ i anchor_at; i 32; i quote_at ]) ];
      fn "ra_send" [] (Some I32)
        [ ret (calle "net_send_quote" [ LoadE (I32, i ctx_at); LoadE (I32, i quote_at) ]) ];
      fn "ra_receive" [] (Some I32)
        [
          ret
            (calle "net_receive_data"
               [ LoadE (I32, i ctx_at); i GW.dataset_base; i 16_000_000; i len_at ]);
        ];
      fn "ra_dispose" [] (Some I32)
        [
          DeclS ("q", I32, Some (calle "dispose_quote" [ LoadE (I32, i quote_at) ]));
          ret (v "q" + calle "net_dispose" [ LoadE (I32, i ctx_at) ]);
        ];
      fn "blob_len" [] (Some I32) [ ret (LoadE (I32, i len_at)) ];
    ]
  in
  {
    base with
    p_imports = Watz_wasi.Wasi_ra.minic_imports @ base.p_imports;
    p_funs = base.p_funs @ steps;
    p_data = (key_at, verifier_key) :: base.p_data;
  }

type rig = {
  soc : Soc.t;
  app : Runtime.app;
  server : Watz.Verifier_app.t;
  pump : (unit -> unit) ref; (* what the app's pump runs: the verifier's step *)
  dataset : string;
  initial : float array;
  expected : float array; (* native Genann after one epoch *)
}

let native_weights ~dataset ~initial =
  let records = Iris.of_bytes dataset in
  let net =
    Watz_workloads.Genann.create ~inputs:4 ~hidden_layers:1 ~hidden:4 ~outputs:3
      ~rng:(Watz_util.Prng.create 0L)
  in
  Array.blit initial 0 net.Watz_workloads.Genann.weights 0 (Array.length initial);
  Array.iter
    (fun { Iris.features; cls } ->
      let desired = Array.init 3 (fun j -> if j = cls then 1.0 else 0.0) in
      Watz_workloads.Genann.train net features desired ~rate)
    records;
  net.Watz_workloads.Genann.weights

let setup ~seed =
  let dataset = Iris.replicated_bytes ~seed:(derive seed 9) ~target_bytes:dataset_bytes in
  let rng = Watz_util.Prng.create (derive seed 10) in
  let initial = Array.init GW.n_weights (fun _ -> Watz_util.Prng.float rng 1.0 -. 0.5) in
  let expected = native_weights ~dataset ~initial in
  let soc = Soc.manufacture ~seed:"perfbench-ra" () in
  (match Soc.boot soc with Ok _ -> () | Error _ -> failwith "ra board: boot failed");
  let service = Watz_attest.Service.install (Soc.optee soc) in
  let policy =
    P.Verifier.make_policy ~identity_seed:"relying-party"
      ~endorsed_keys:[ Watz_attest.Service.public_key service ]
      ~reference_claims:[] ~secret_blob:dataset ()
  in
  let verifier_key = Watz_crypto.P256.encode policy.P.Verifier.identity_pub in
  let bytes =
    Watz_wasmc.Minic.compile_to_bytes
      (app_program ~verifier_key ~mem_pages:(GW.pages_for_dataset dataset_bytes))
  in
  let policy = { policy with P.Verifier.reference_claims = [ Runtime.measure bytes ] } in
  let server = Watz.Verifier_app.start soc ~port ~policy in
  let pump = ref (fun () -> Watz.Verifier_app.step server) in
  let config =
    { Runtime.default_config with Runtime.heap_bytes = 17 * 1024 * 1024; pump = (fun () -> !pump ()) }
  in
  let app = Runtime.load ~config ~entry:None soc bytes in
  { soc; app; server; pump; dataset; initial; expected }

let invoke_rc rig step =
  match Runtime.invoke rig.app step [] with
  | [ Watz_wasm.Ast.VI32 rc ] -> Int32.to_int rc
  | _ -> gate false "%s: %s returned a non-i32 result" name step; -1

(** One pass, handshake through training. [wrap] brackets each step.
    Returns wall and simulated seconds of the pass (gates excluded). *)
let pass ?(w = bare) rig =
  let invoke step args = Runtime.invoke rig.app step args in
  let t0 = wall () and s0 = Soc.now_ns rig.soc in
  List.iter
    (fun step ->
      let rc = w.wrap step (fun () -> invoke_rc rig step) in
      gate (rc = 0) "%s: %s failed with errno %d" name step rc)
    [ "ra_handshake"; "ra_collect"; "ra_send"; "ra_receive" ];
  let n_records = String.length rig.dataset / Iris.record_bytes in
  w.wrap "genann.seed" (fun () -> GW.seed_weights ~invoke rig.initial);
  w.wrap "genann.train" (fun () -> GW.train ~invoke ~n_records ~epochs:1 ~rate);
  let t1 = wall () and s1 = Soc.now_ns rig.soc in
  gate (invoke_rc rig "blob_len" = String.length rig.dataset) "%s: received blob has the wrong length" name;
  let mem = Option.get (Runtime.export_memory rig.app) in
  gate
    (String.equal (Deep.read_memory mem ~off:GW.dataset_base ~len:(String.length rig.dataset)) rig.dataset)
    "%s: the received dataset differs from the one sent" name;
  let trained = GW.read_weights ~invoke in
  Array.iteri
    (fun k w ->
      gate
        (Int64.equal (Int64.bits_of_float w) (Int64.bits_of_float rig.expected.(k)))
        "%s: trained weight %d is %h, native Genann %h" name k w rig.expected.(k))
    trained;
  gate (invoke_rc rig "ra_dispose" = 0) "%s: disposing the attestation context failed" name;
  (t1 -. t0, Int64.to_float (Int64.sub s1 s0) /. 1e9)

let run ~seed ~seconds =
  let setup_s, raw_setup_s, rig = setup_median ~reps:7 (fun () -> setup ~seed) in
  let _, sim_s = pass rig in
  let totals = samples () and cpu_ms = samples () and per_words = ref [] in
  let w =
    repeat ~seconds ~min_reps:5 (fun _ scale ->
        let w0 = words () and c0 = cpu () and t0 = wall () in
        let total, _ = pass rig in
        let t1 = wall () and c1 = cpu () and w1 = words () in
        let scale = scale () in
        add totals ~scale (total *. 1e3);
        add cpu_ms ~scale ((c1 -. c0) *. 1e3);
        per_words := (w1 -. w0) :: !per_words;
        t1 -. t0)
  in
  say name "total_ms (measured)" (median totals.raw) "ms";
  say name "sim_total_ms" (sim_s *. 1e3) "ms";
  say name "minor_words_per_pass" (median !per_words) "words";
  say name "setup_s (measured)" raw_setup_s "s";
  say name "probe" w.probe_us "us";
  Printf.printf "%s: %d passes over a %d-byte dataset\n" name w.reps dataset_bytes;
  {
    attempted = w.reps;
    failed = 0;
    metrics =
      [
        m "wall_ms_per_op" "ms" (median totals.scaled);
        m "cpu_ms_per_op" "ms" (median cpu_ms.scaled);
        m "minor_words_per_op" "words" (median !per_words);
        m "completion_ratio" "ratio" 1.0;
        m "heap_peak_mb" "MB" w.heap_mb;
        m "setup_s" "s" setup_s;
      ];
  }

let run_traced ~seed ~seconds ~spans =
  let rig = setup ~seed in
  let _, sim_s = pass rig in
  let sp = Span.create () in
  let steps =
    [ "ra_handshake"; "ra_collect"; "ra_send"; "ra_receive"; "genann.seed"; "genann.train" ]
  in
  let ids = List.map (fun s -> (s, Span.id sp s)) steps in
  let w = { wrap = (fun label f -> Span.record sp (List.assoc label ids) f) } in
  let step_id = Span.id sp "verifier_app.step" in
  let untraced_k = ref 0.0 and traced_k = ref 0.0 and traced_s = ref 0.0 in
  let scaled_pass ?w () =
    probes := [];
    let dt, _ = pass ?w rig in
    (dt, dt *. take_scale ())
  in
  let { reps; probe_us; _ } =
    repeat ~seconds ~min_reps:2 (fun rep _ ->
        let untraced () =
          rig.pump := (fun () -> Watz.Verifier_app.step rig.server);
          scaled_pass ()
        in
        let traced () =
          rig.pump := (fun () -> Span.record sp step_id (fun () -> Watz.Verifier_app.step rig.server));
          scaled_pass ~w ()
        in
        (* Alternate which of the pair runs first, so the overhead
           estimate does not inherit an order effect. *)
        let (ut, uk), (tt, tk) =
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
        ut +. tt)
  in
  let per = float_of_int reps in
  let ms label = (Span.totals sp label).Span.total_s *. 1e3 /. per in
  let enc_s, dec_s = Deep.gcm_costs rig.dataset in
  let mb = float_of_int dataset_bytes /. 1048576.0 in
  Span.dump sp spans;
  {
    attempted = 2 * reps;
    failed = 0;
    metrics =
      [
        m "wasi_ra.handshake_ms" "ms" (ms "ra_handshake");
        m "wasi_ra.collect_ms" "ms" (ms "ra_collect");
        m "wasi_ra.send_ms" "ms" (ms "ra_send");
        m "wasi_ra.receive_ms" "ms" (ms "ra_receive");
        m "genann.train_ms" "ms" (ms "genann.train");
        m "verifier_app.step_us" "us"
          ((Span.totals sp "verifier_app.step").Span.self_s *. 1e6 /. per);
        m "verifier_app.step_words" "words" ((Span.totals sp "verifier_app.step").Span.self_words /. per);
        m "crypto.gcm_encrypt_mb_s" "MB/s" (mb /. enc_s);
        m "crypto.gcm_decrypt_mb_s" "MB/s" (mb /. dec_s);
        m "sim_total_ms" "ms" (sim_s *. 1e3);
        m "ref.probe_us" "us" probe_us;
        m "trace.unattributed_pct" "%" (100.0 *. (!traced_s -. Span.top_level_s sp) /. !traced_s);
        m "trace.overhead_pct" "%" (100.0 *. (!traced_k -. !untraced_k) /. !untraced_k);
      ];
  }
