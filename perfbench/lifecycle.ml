(* The full-crypto lifecycle: EA setup streamed into in-memory devices,
   an election served from those segments with one silent collector
   (fv = 1: voters' d-patient retries and the recover path of Vote Set
   Consensus), trustees through to the published tally, then repeated
   assemble + audit passes over the published boards. The devices are
   wrapped so every append, sync and read is counted and timed from
   outside the program. *)

module Types = Ddemos.Types
module Ea = Ddemos.Ea
module Election = Ddemos.Election
module Election_store = Ddemos.Election_store
module Auditor = Ddemos.Auditor
module Ballot_store = Ddemos.Ballot_store
module Device = Dd_store.Device
module Segment = Dd_segment.Segment
module Drbg = Dd_crypto.Drbg

type io = {
  mutable append_bytes : int;
  mutable syncs : int;
  mutable write_s : float;
  mutable read_bytes : int;
  mutable read_s : float;
}

let fresh_io () = { append_bytes = 0; syncs = 0; write_s = 0.; read_bytes = 0; read_s = 0. }

(* Every call through the wrapped closures lands in whichever counter
   [cur] points at, so one device family is accounted per phase. *)
let wrap (cur : io ref) (d : Device.t) : Device.t =
  let write name f =
    let t0 = Measure.now () in
    let v = Spans.span name f in
    (!cur).write_s <- (!cur).write_s +. (Measure.now () -. t0);
    v
  in
  let read size f =
    let t0 = Measure.now () in
    let v = Spans.span "device.read" f in
    (!cur).read_s <- (!cur).read_s +. (Measure.now () -. t0);
    (!cur).read_bytes <- (!cur).read_bytes + size v;
    v
  in
  { Device.log_append =
      (fun s ->
         (!cur).append_bytes <- (!cur).append_bytes + String.length s;
         write "device.append" (fun () -> d.Device.log_append s));
    log_sync =
      (fun () ->
         (!cur).syncs <- (!cur).syncs + 1;
         write "device.sync" d.Device.log_sync);
    log_contents = (fun () -> read String.length d.Device.log_contents);
    log_size = d.Device.log_size;
    log_read =
      (fun ~pos ~len -> read String.length (fun () -> d.Device.log_read ~pos ~len));
    log_reset = (fun s -> write "device.reset" (fun () -> d.Device.log_reset s));
    snap_store = (fun s -> write "device.snapshot" (fun () -> d.Device.snap_store s));
    snap_load =
      (fun () ->
         read (function Some s -> String.length s | None -> 0) d.Device.snap_load) }

(* A fresh in-memory device per segment name. *)
let family cur =
  let tbl = Hashtbl.create 16 in
  fun name ->
    let b =
      match Hashtbl.find_opt tbl name with
      | Some b -> b
      | None ->
        let b = Device.Mem.create () in
        Hashtbl.add tbl name b;
        b
    in
    wrap cur (Device.Mem.device b)

type round = {
  setup_s : float;
  setup_io : io;
  election_io : io;
  tally_s : float;
  election_cpu : float;
  result : Election.result;
  gc : Measure.gc_delta;
  pass_ms : float list;
  assemble_ms : float list;
  audit_wall : float;
  audit_cpu : float;
  view : Auditor.view option;
  audits_ok : int;
  devs : string -> Device.t;
  layout : Election_store.layout;
  cfg : Types.config;
  gate : (string * bool) list;
}

let round ~seed ~passes ~r =
  let n = Params.lifecycle_voters in
  let cfg =
    { Types.default_config with
      Types.n_voters = n; m_options = 3;
      election_id = Printf.sprintf "perfbench-lifecycle-%s-%d" seed r }
  in
  let seed = Printf.sprintf "perfbench|lifecycle|%s|%d" seed r in
  (* --- EA setup streamed into the wrapped devices ------------------- *)
  let setup_io = fresh_io () in
  let cur = ref setup_io in
  let devs = family cur in
  let t0 = Measure.now () in
  let layout = Spans.span "setup" (fun () -> Election_store.write_setup devs cfg ~seed) in
  let setup_s = Measure.now () -. t0 in
  Gc.compact ();
  (* --- the election, served from the segments ----------------------- *)
  let rng = Drbg.create ~seed:("perfbench-voters|" ^ seed) in
  let votes =
    List.init n (fun i ->
        { Election.vi_serial = i; vi_choice = Drbg.int rng cfg.Types.m_options })
  in
  let silent = Drbg.int rng cfg.Types.nv in
  let p =
    Election.default_params
      ~fidelity:(Election.Stored { Election.sd_devices = devs; sd_layout = layout })
      cfg ~votes
  in
  let p = { p with Election.seed; byzantine_vc = [ (silent, Election.Silent) ] } in
  let election_io = fresh_io () in
  cur := election_io;
  let cpu0 = Measure.cpu () in
  let t0 = Measure.now () in
  let result, gc =
    Measure.gc_span (fun () -> Spans.span "election.run" (fun () -> Election.run p))
  in
  let tally_s = Measure.now () -. t0 in
  let election_cpu = Measure.cpu () -. cpu0 in
  cur := fresh_io ();
  (* --- audit passes; pass 0 builds the auditor's lazily computed state
     and is checked but not timed ----------------------------------- *)
  let gctx = layout.Election_store.l_static.Ea.st_gctx in
  let pass_ms = ref [] and assemble_ms = ref [] and audits_ok = ref 0 in
  let view = ref None in
  let cpu_a = ref 0. and t_a = ref 0. in
  for pass = 0 to passes do
    if pass = 1 then begin
      cpu_a := Measure.cpu ();
      t_a := Measure.now ()
    end;
    let t0 = Measure.now () in
    let v =
      Spans.span "auditor.assemble" (fun () ->
          Auditor.assemble ~cfg ~gctx result.Election.bb_nodes)
    in
    let t1 = Measure.now () in
    (match v with
     | None -> ()
     | Some v ->
       if Auditor.all_ok (Spans.span "auditor.audit" (fun () -> Auditor.audit v)) then
         incr audits_ok;
       view := Some v);
    let t2 = Measure.now () in
    if pass > 0 then begin
      pass_ms := (t2 -. t0) *. 1e3 :: !pass_ms;
      assemble_ms := (t1 -. t0) *. 1e3 :: !assemble_ms
    end
  done;
  let expected = Election.expected_tally cfg votes in
  { setup_s; setup_io; election_io; tally_s; election_cpu; result; gc;
    pass_ms = !pass_ms; assemble_ms = !assemble_ms;
    audit_wall = Measure.now () -. !t_a; audit_cpu = Measure.cpu () -. !cpu_a;
    view = !view; audits_ok = !audits_ok; devs; layout; cfg;
    gate =
      [ ("every voter receipted",
         result.Election.receipts_ok = n && not result.Election.timed_out);
        ("tally = expected",
         result.Election.tally = Some expected && result.Election.expected_tally = expected);
        ("no UCERT conflicts", result.Election.ucert_conflicts = []);
        ("every audit pass PASS", !audits_ok = passes + 1) ] }

(* Auditor phases and kernel probes on one round's published election
   (traced run only). *)
let traced_extras rd =
  match rd.view with
  | None -> (false, [])
  | Some v ->
    let check_ms name f =
      let runs =
        List.init 3 (fun _ ->
            let t0 = Measure.now () in
            let c = Spans.span name (fun () -> f v) in
            ((Measure.now () -. t0) *. 1e3, c.Auditor.ok))
      in
      (Measure.median (List.map fst runs), List.for_all snd runs)
    in
    let zk, zk_ok = check_ms "auditor.check_zk" (fun v -> Auditor.check_zk v) in
    let openings, openings_ok =
      check_ms "auditor.check_openings" (fun v -> Auditor.check_openings v)
    in
    let layout = rd.layout and cfg = rd.cfg in
    let st = layout.Election_store.l_static in
    let ballots =
      match
        Segment.read_all (rd.devs Election_store.ballots_segment)
          layout.Election_store.l_ballots
      with
      | Some recs -> Array.map Election_store.decode_voter_ballot recs
      | None -> [||]
    in
    let receipt serial code =
      if serial < 0 || serial >= Array.length ballots then None
      else
        Option.bind ballots.(serial) (fun b ->
            List.find_map
              (fun part ->
                 Array.find_map
                   (fun (l : Types.ballot_line) ->
                      if l.Types.vote_code = code then Some l.Types.receipt else None)
                   (Types.ballot_part b part).Types.lines)
              [ Types.A; Types.B ])
    in
    let cast =
      List.filter_map
        (fun (serial, code) -> Option.map (fun rc -> (serial, code, rc)) (receipt serial code))
        rd.result.Election.successes
      |> Array.of_list
    in
    let probes_ok, probes =
      if Array.length cast = 0 then (false, [])
      else
        Probes.run
          { Probes.keys = st.Ea.st_vc_keys; cfg; votes = cast;
            store_for =
              (fun node ->
                 Ballot_store.segmented ~gctx:st.Ea.st_gctx ~cfg
                   ~msk_share:st.Ea.st_msk_shares.(node)
                   (rd.devs (Election_store.vc_segment node))
                   layout.Election_store.l_vc.(node));
            batch = cfg.Types.nv - cfg.Types.fv }
    in
    ( probes_ok && zk_ok && openings_ok,
      [ ("auditor.zk_ms", zk); ("auditor.openings_ms", openings) ] @ probes )

let run ~seed ~seconds =
  let traced = !Spans.enabled in
  let rounds = Params.lifecycle_rounds in
  let passes =
    max 1
      (int_of_float
         (Float.round (seconds /. float_of_int rounds *. Params.audit_passes_per_s)))
  in
  let t_begin = Measure.now () in
  let rs = List.init rounds (fun r -> round ~seed ~passes ~r) in
  let t_end = Measure.now () in
  let last = List.nth rs (rounds - 1) in
  let extra_ok, extras = if traced then traced_extras last else (true, []) in
  let gate = List.concat_map (fun rd -> rd.gate) rs @ [ ("traced checks and probes", extra_ok) ] in
  (* a missing receipt and a failed audit pass count one each *)
  let n = Params.lifecycle_voters in
  let failed =
    List.fold_left
      (fun acc rd ->
         acc + (n - rd.result.Election.receipts_ok) + (passes + 1 - rd.audits_ok)
         + List.length
             (List.filter (fun (_, b) -> not b)
                (List.filter (fun (name, _) ->
                     name <> "every voter receipted" && name <> "every audit pass PASS")
                    rd.gate)))
      (if extra_ok then 0 else 1) rs
  in
  let med f = Measure.median (List.map f rs) in
  let fsum f = List.fold_left (fun acc rd -> acc +. f rd) 0. rs in
  let isum f = float_of_int (List.fold_left (fun acc rd -> acc + f rd) 0 rs) in
  let n_passes = float_of_int (rounds * passes) in
  let receipts = isum (fun rd -> rd.result.Election.receipts_ok) in
  let passes_ms = List.concat_map (fun rd -> rd.pass_ms) rs in
  let e2e =
    [ ("setup_s", med (fun rd -> rd.setup_s));
      ("op_p50_ms", Measure.percentile 50. passes_ms);
      (Params.tail_name, Measure.percentile Params.tail_pct passes_ms);
      ("ops_per_s", n_passes /. fsum (fun rd -> rd.audit_wall));
      ("cpu_ms_per_op", fsum (fun rd -> rd.audit_cpu) *. 1e3 /. n_passes);
      ("close_s", med (fun rd -> rd.tally_s)) ]
  in
  let layers =
    if not traced then []
    else
      [ ("device.append_bytes", isum (fun rd -> rd.setup_io.append_bytes));
        ("device.syncs", isum (fun rd -> rd.setup_io.syncs));
        ("device.write_ms", fsum (fun rd -> rd.setup_io.write_s) *. 1e3);
        ("device.read_bytes", isum (fun rd -> rd.election_io.read_bytes));
        ("device.read_ms", fsum (fun rd -> rd.election_io.read_s) *. 1e3);
        ("ea.gen_ms",
         med (fun rd -> (rd.setup_s -. rd.setup_io.write_s -. rd.setup_io.read_s) *. 1e3));
        ("election.messages", isum (fun rd -> rd.result.Election.messages));
        ("election.bytes", isum (fun rd -> rd.result.Election.bytes));
        ("auditor.assemble_ms", med (fun rd -> Measure.median rd.assemble_ms));
        ("gc.minor_words_per_receipt", fsum (fun rd -> rd.gc.Measure.minor_words) /. receipts);
        ("gc.promoted_words_per_receipt",
         fsum (fun rd -> rd.gc.Measure.promoted_words) /. receipts);
        ("gc.major_collections", isum (fun rd -> rd.gc.Measure.major_collections));
        ("trace.uncovered_share",
         1. -. (Spans.covered ~t0:t_begin ~t1:t_end /. (t_end -. t_begin)));
        ("op.samples", n_passes) ]
      @ extras
  in
  let human =
    [ ("rounds", float_of_int rounds);
      ("voters_per_round", float_of_int Params.lifecycle_voters);
      ("receipts", receipts);
      ("tally_s", med (fun rd -> rd.tally_s));
      ("election_cpu_ms_per_receipt", fsum (fun rd -> rd.election_cpu) *. 1e3 /. receipts);
      ("audit_s", Measure.percentile 50. passes_ms /. 1e3);
      ("audit_passes_per_round", float_of_int passes) ]
    @ List.concat
        (List.mapi
           (fun r rd ->
              [ (Printf.sprintf "round%d.setup_s" r, rd.setup_s);
                (Printf.sprintf "round%d.tally_s" r, rd.tally_s);
                (Printf.sprintf "round%d.audit_ms" r, Measure.percentile 50. rd.pass_ms) ])
           rs)
  in
  { Measure.attempted = (rounds * (n + passes + 3)) + 1; failed;
    checks = gate; e2e; layers; human }
