(* The serving workloads: logical voters multiplexed as Mux channels
   over one in-process client pipe per VC node, with the driver
   advancing [Runtime.step] itself on this one thread (pool [None]).

   cast-open: Poisson arrivals at a fixed offered rate; latency runs
   from each vote's due time, so a stall also delays the votes queued
   behind it. When a tick does no work the driver sleeps until the
   next arrival instead of spinning.

   cast-closed: [clients] logical voters, each sending its next vote
   the moment its receipt lands; latency runs from the send. The work
   is a pure function of the seed, so every counter repeats exactly.

   A run is [Params.cast_rounds] independent elections (rounds), each set
   up, voted and closed by Vote Set Consensus over the same pipes. The
   randomized consensus and the arrival clumps make one election's
   close time and latency tail vary by seed, so the run reports the
   median over its rounds. *)

module Types = Ddemos.Types
module Voter = Ddemos.Voter
module Auth = Ddemos.Auth
module Vc_node = Ddemos.Vc_node
module Ballot_gen = Ddemos.Ballot_gen
module Runtime = Dd_serve.Runtime
module Transport = Dd_serve.Transport
module Frame = Dd_serve.Frame
module Mux = Dd_serve.Mux
module Batcher = Dd_serve.Batcher
module Drbg = Dd_crypto.Drbg

type mode = Open of float (* votes/s *) | Closed of int (* clients *)

type vote = {
  serial : int;
  plan : Voter.plan;
  node : int;
  mutable due : float;       (* open: due time; closed: when the client was ready *)
  mutable sent : float;
  mutable replied : float;
  mutable status : [ `Pending | `Ok | `Bad | `Rejected ];
}

(* Set-ups timed per round; setup_s is the median over all of them. *)
let setup_reps = 3

(* A tick that does no work while replies are still owed: after this
   many in a row the rest of the votes count as lost. *)
let idle_limit = 200_000

let uniform rng = float_of_int (Drbg.int rng (1 lsl 30)) /. float_of_int (1 lsl 30)

(* Distinct serials drawn from [0, n): a partial Fisher-Yates shuffle. *)
let distinct_serials rng ~n ~k =
  let a = Array.init n Fun.id in
  for i = 0 to k - 1 do
    let j = i + Drbg.int rng (n - i) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.sub a 0 k

(* The voters' inputs: who votes, for what, on which part, at which
   node, and (open loop) when. A conditioned Poisson process: [k]
   arrival times uniform on [0, seconds), sorted. *)
let make_votes ~seed ~cfg ~mode ~k ~seconds =
  let rng = Drbg.create ~seed:("perfbench-voters|" ^ seed) in
  let m = cfg.Types.m_options in
  let serials = distinct_serials rng ~n:cfg.Types.n_voters ~k in
  let votes =
    Array.map
      (fun serial ->
         let ballot = Ballot_gen.voter_ballot ~seed ~serial ~m in
         let plan = Voter.make_plan rng ~ballot ~choice:(Drbg.int rng m) in
         let node =
           match Voter.pick_node rng ~nv:cfg.Types.nv ~blacklist:[] with
           | Some n -> n
           | None -> 0
         in
         { serial; plan; node; due = 0.; sent = 0.; replied = 0.; status = `Pending })
      serials
  in
  (match mode with
   | Open _ ->
     let dues = Array.init k (fun _ -> uniform rng *. seconds) in
     Array.sort compare dues;
     Array.iteri (fun i v -> v.due <- dues.(i)) votes
   | Closed _ -> ());
  votes

(* A long-running server has its verification tables built before the
   first voter: force every node's lazily built per-signer tables. *)
let warm (src : Runtime.source) =
  let rng = Drbg.create ~seed:"perfbench-warm" in
  let keys = src.Runtime.sv_keys in
  let signed =
    List.init (Array.length keys) (fun s ->
        let body = Printf.sprintf "warm|%d" s in
        (s, body, Auth.sign ~rng keys.(s) body))
  in
  Array.iter
    (fun k ->
       List.iter (fun (s, body, tag) -> ignore (Auth.verify k ~signer:s body tag : bool)) signed;
       ignore (Auth.verify_batch k signed : bool))
    keys

type server = {
  src : Runtime.source;
  rt : Runtime.t;
  conns : Transport.conn array;
  decs : Frame.decoder array;
  votes : vote array;
}

let build ~seed ~cfg ~mode ~k ~seconds =
  let src = Runtime.source_prf cfg ~seed in
  warm src;
  let rt = Runtime.create src in
  let nv = cfg.Types.nv in
  { src;
    rt;
    conns = Array.init nv (fun node -> Runtime.client_conn rt ~node);
    decs = Array.init nv (fun _ -> Frame.create ());
    votes = make_votes ~seed ~cfg ~mode ~k ~seconds }

type counters = {
  steps : int;
  frames : int;
  bytes : int;
  shed : int;
  dropped : int;
  b : Batcher.stats;
}

let counters rt =
  let s = Runtime.stats rt in
  { steps = s.Runtime.steps; frames = s.Runtime.frames_in; bytes = s.Runtime.bytes_in;
    shed = s.Runtime.votes_shed; dropped = s.Runtime.peer_dropped;
    b = Runtime.batch_stats rt }

(* What one round measured. *)
type round = {
  setups : float list;
  votes : vote array;
  sv : server;
  cfg : Types.config;
  t_start : float;
  t_voted : float;
  t_vsc : float;
  t_done : float;               (* every VC submitted *)
  vote_cpu : float;
  c0 : counters;                (* before voting *)
  c1 : counters;                (* after the last receipt *)
  c2 : counters;                (* after Vote Set Consensus *)
  gc : Measure.gc_delta;
  mux_frames : int;
  lost : int;
  gate : (string * bool) list;
}

let round ~workload ~seed ~seconds ~mode ~k ~r =
  let cfg =
    { Types.default_config with
      Types.n_voters = 2 * k; m_options = 3; nv = 4; fv = 1;
      election_id = Printf.sprintf "perfbench-%s-%s-%d" workload seed r }
  in
  let seed = Printf.sprintf "perfbench|%s|%s|%d" workload seed r in
  (* set-up: repeated, the last one is used *)
  let server = ref None in
  let setups =
    List.init setup_reps (fun _ ->
        let t0 = Measure.now () in
        server := Some (Spans.span "setup" (fun () -> build ~seed ~cfg ~mode ~k ~seconds));
        Measure.now () -. t0)
  in
  let sv = match !server with Some s -> s | None -> assert false in
  let rt = sv.rt and votes = sv.votes in
  let gctx = Runtime.gctx rt in
  Gc.compact ();
  (* --- the client side: the bench's own Frame/Mux/Transport calls -- *)
  let mux_frames = ref 0 in
  let pending = ref 0 in
  let send i ~channel t =
    let v = votes.(i) in
    Spans.span "mux" (fun () ->
        let frame =
          Frame.encode
            (Mux.encode gctx
               (Mux.Client_vote
                  { channel; req = i; serial = v.serial;
                    vote_code = Voter.vote_code v.plan }))
        in
        if Transport.send_string sv.conns.(v.node) frame <> String.length frame then
          failwith "client pipe refused a vote frame");
    incr mux_frames;
    v.sent <- t;
    incr pending
  in
  let on_reply = ref (fun (_ : int) -> ()) in
  let pump () =
    let replies = ref 0 in
    Array.iteri
      (fun node conn ->
         let got =
           Spans.span "mux" (fun () ->
               let bytes = Transport.recv_all conn in
               if bytes = "" then []
               else begin
                 let dec = sv.decs.(node) in
                 Frame.feed dec bytes;
                 let rec pop acc =
                   match Frame.pop dec with
                   | None -> List.rev acc
                   | Some payload ->
                     (match Mux.decode gctx payload with
                      | Some (Mux.Client_reply { req; outcome; channel = _ })
                        when req >= 0 && req < k ->
                        pop ((req, outcome) :: acc)
                      | Some _ | None -> pop acc)
                 in
                 pop []
               end)
         in
         if got <> [] then begin
           let t = Measure.now () in
           List.iter
             (fun (req, outcome) ->
                incr mux_frames;
                let v = votes.(req) in
                if v.status = `Pending then begin
                  decr pending;
                  incr replies;
                  v.replied <- t;
                  (match outcome with
                   | Types.Receipt r when Voter.receipt_valid v.plan r -> v.status <- `Ok
                   | Types.Receipt _ -> v.status <- `Bad
                   | Types.Rejected _ -> v.status <- `Rejected);
                  !on_reply req
                end)
             got
         end)
      sv.conns;
    !replies
  in
  let step () = Spans.span "runtime.step" (fun () -> Runtime.step rt) in
  (* --- voting --------------------------------------------------------- *)
  let c0 = counters rt in
  let cpu0 = Measure.cpu () in
  let t_start = Measure.now () in
  let stalled = ref false in
  let (), gc =
    Measure.gc_span (fun () ->
        match mode with
        | Open _ ->
          Array.iter (fun v -> v.due <- t_start +. v.due) votes;
          let next = ref 0 and idle = ref 0 in
          while (!next < k || !pending > 0) && not !stalled do
            let t = Measure.now () in
            let sent = ref 0 in
            while !next < k && votes.(!next).due <= t do
              send !next ~channel:!next t;
              incr next;
              incr sent
            done;
            let work = step () in
            let replies = pump () in
            if work = 0 && replies = 0 && !sent = 0 then begin
              if !next < k then begin
                let d = votes.(!next).due -. Measure.now () in
                if d > 0. then Spans.span "sleep" (fun () -> Unix.sleepf d)
              end
              else begin
                incr idle;
                if !idle > idle_limit then stalled := true
              end
            end
            else idle := 0
          done
        | Closed clients ->
          let next = ref 0 in
          let channel_of = Array.make k 0 in
          let start_next ~channel ready =
            if !next < k then begin
              let i = !next in
              incr next;
              channel_of.(i) <- channel;
              votes.(i).due <- ready;
              send i ~channel (Measure.now ())
            end
          in
          on_reply := (fun req -> start_next ~channel:channel_of.(req) votes.(req).replied);
          for c = 0 to clients - 1 do
            start_next ~channel:c t_start
          done;
          let idle = ref 0 in
          while !pending > 0 && not !stalled do
            let work = step () in
            let replies = pump () in
            if work = 0 && replies = 0 then begin
              incr idle;
              if !idle > idle_limit then stalled := true
            end
            else idle := 0
          done)
  in
  let t_voted = Array.fold_left (fun acc v -> Float.max acc v.replied) t_start votes in
  let vote_cpu = Measure.cpu () -. cpu0 in
  let c1 = counters rt in
  (* --- Vote Set Consensus -------------------------------------------- *)
  let t_vsc = Measure.now () in
  Spans.span "runtime.end_election" (fun () -> Runtime.end_election rt);
  let nv = cfg.Types.nv in
  let nodes = List.init nv (Runtime.vc_node rt) in
  let all_submitted () = List.for_all (fun n -> Vc_node.phase n = Vc_node.Submitted) nodes in
  while (not (all_submitted ())) && Measure.now () -. t_vsc < Params.vsc_max_s do
    ignore (step () : int)
  done;
  let t_done = Measure.now () in
  let c2 = counters rt in
  (* --- correctness gate ----------------------------------------------- *)
  let receipted = Hashtbl.create k in
  Array.iter (fun v -> if v.status = `Ok then Hashtbl.replace receipted v.serial ()) votes;
  let d0 = Vc_node.decisions (List.hd nodes) in
  let set_matches =
    let ok = ref true in
    Array.iteri
      (fun serial d ->
         match d with
         | Some b -> if b <> Hashtbl.mem receipted serial then ok := false
         | None -> if Hashtbl.mem receipted serial then ok := false)
      d0;
    !ok
  in
  { setups; votes; sv; cfg; t_start; t_voted; t_vsc; t_done; vote_cpu; c0; c1; c2; gc;
    mux_frames = !mux_frames;
    lost = !pending;
    gate =
      [ ("every VC submitted, identical decisions",
         all_submitted () && List.for_all (fun n -> Vc_node.decisions n = d0) nodes);
        ("decided set = receipted serials", set_matches) ] }

let count p votes = Array.fold_left (fun acc v -> if p v then acc + 1 else acc) 0 votes

(* Receipt latency in ms: from the due time in the open loop, from the
   send in the closed loop. *)
let latencies ~mode r =
  let start v = match mode with Open _ -> v.due | Closed _ -> v.sent in
  Array.to_list r.votes
  |> List.filter_map (fun v ->
      if v.status = `Ok then Some ((v.replied -. start v) *. 1e3) else None)

let run ~workload ~seed ~seconds ~mode =
  let traced = !Spans.enabled in
  let rounds = Params.cast_rounds in
  let round_s = seconds /. float_of_int rounds in
  let k =
    max 1
      (match mode with
       | Open rate -> int_of_float (Float.round (rate *. round_s))
       | Closed _ -> int_of_float (Float.round (Params.closed_votes_per_s *. round_s)))
  in
  let rs =
    List.init rounds (fun r -> round ~workload ~seed ~seconds:round_s ~mode ~k ~r)
  in
  if traced then
    List.iteri
      (fun r rd ->
         Array.iteri
           (fun i v ->
              if v.status <> `Pending then begin
                let vote = (r * k) + i in
                let id = Spans.record ~vote "vote" v.due v.replied in
                ignore (Spans.record ~parent:id ~vote "vote.queue" v.due v.sent : int);
                ignore (Spans.record ~parent:id ~vote "vote.flight" v.sent v.replied : int)
              end)
           rd.votes)
      rs;
  let last = List.nth rs (rounds - 1) in
  (* --- kernel probes (traced run only) --------------------------------- *)
  let sum f = List.fold_left (fun acc rd -> acc + f rd) 0 rs in
  let batched = sum (fun rd -> rd.c1.b.Batcher.batched - rd.c0.b.Batcher.batched) in
  let calls = sum (fun rd -> rd.c1.b.Batcher.batch_calls - rd.c0.b.Batcher.batch_calls) in
  let serial = sum (fun rd -> rd.c1.b.Batcher.serial - rd.c0.b.Batcher.serial) in
  let hits = sum (fun rd -> rd.c1.b.Batcher.cache_hits - rd.c0.b.Batcher.cache_hits) in
  let probes_ok, probes =
    if not traced then (true, [])
    else begin
      let cast =
        Array.to_list last.votes
        |> List.filter (fun v -> v.status = `Ok)
        |> List.map (fun v ->
            (v.serial, Voter.vote_code v.plan, Voter.expected_receipt v.plan))
        |> Array.of_list
      in
      let batch =
        if calls = 0 then 1
        else int_of_float (Float.round (float_of_int batched /. float_of_int calls))
      in
      if Array.length cast = 0 then (false, [])
      else
        Probes.run
          { Probes.keys = last.sv.src.Runtime.sv_keys; cfg = last.cfg; votes = cast;
            store_for = last.sv.src.Runtime.sv_store_for; batch }
    end
  in
  (* --- correctness gate ------------------------------------------------ *)
  let ok = sum (fun rd -> count (fun v -> v.status = `Ok) rd.votes) in
  let bad = sum (fun rd -> count (fun v -> v.status = `Bad) rd.votes) in
  let rejected = sum (fun rd -> count (fun v -> v.status = `Rejected) rd.votes) in
  let lost = sum (fun rd -> rd.lost) in
  let gate =
    List.concat_map (fun rd -> rd.gate) rs @ [ ("kernel probes", probes_ok) ]
  in
  let checks = ("receipts valid", bad + rejected + lost = 0) :: gate in
  let failed =
    bad + rejected + lost + List.length (List.filter (fun (_, b) -> not b) gate)
  in
  (* --- metrics ----------------------------------------------------------- *)
  let lat = List.map (latencies ~mode) rs in
  let all_lat = List.concat lat in
  let pct p = Measure.percentile p all_lat in
  let n_ok = float_of_int (max 1 ok) in
  let vote_wall = List.fold_left (fun acc rd -> acc +. (rd.t_voted -. rd.t_start)) 0. rs in
  let vote_cpu = List.fold_left (fun acc rd -> acc +. rd.vote_cpu) 0. rs in
  let close = Measure.median (List.map (fun rd -> rd.t_done -. rd.t_vsc) rs) in
  let e2e =
    [ ("setup_s", Measure.median (List.concat_map (fun rd -> rd.setups) rs));
      ("op_p50_ms", pct 50.);
      (Params.tail_name, pct Params.tail_pct);
      ("ops_per_s", float_of_int ok /. vote_wall);
      ("cpu_ms_per_op", vote_cpu *. 1e3 /. n_ok);
      ("close_s", close) ]
  in
  let layers =
    if not traced then []
    else begin
      let spans_in name pick =
        List.concat_map
          (fun rd ->
             let t0, t1 = pick rd in
             List.filter_map
               (fun (s : Spans.t) ->
                  if s.Spans.name = name && s.Spans.t0 >= t0 && s.Spans.t1 <= t1 then
                    Some ((s.Spans.t1 -. s.Spans.t0) *. 1e3)
                  else None)
               (Spans.all ()))
          rs
      in
      let voting rd = (rd.t_start, rd.t_voted) and closing rd = (rd.t_vsc, rd.t_done) in
      let vote_steps = spans_in "runtime.step" voting in
      let total = List.fold_left ( +. ) 0. in
      let per x = float_of_int x /. n_ok in
      let obl = batched + serial in
      let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
      let covered =
        List.fold_left (fun acc rd -> acc +. Spans.covered ~t0:rd.t_start ~t1:rd.t_done) 0. rs
      in
      let window = List.fold_left (fun acc rd -> acc +. (rd.t_done -. rd.t_start)) 0. rs in
      let gcs f = List.fold_left (fun acc rd -> acc +. f rd.gc) 0. rs in
      [ ("runtime.step_ms_per_receipt", total vote_steps /. n_ok);
        ("runtime.steps_per_receipt", per (sum (fun rd -> rd.c1.steps - rd.c0.steps)));
        ("runtime.step_ms_p99", Measure.percentile 99. vote_steps);
        ("runtime.frames_per_receipt", per (sum (fun rd -> rd.c1.frames - rd.c0.frames)));
        ("runtime.bytes_per_receipt", per (sum (fun rd -> rd.c1.bytes - rd.c0.bytes)));
        ("mailbox.votes_shed", float_of_int (sum (fun rd -> rd.c2.shed - rd.c0.shed)));
        ("mailbox.peer_dropped", float_of_int (sum (fun rd -> rd.c2.dropped - rd.c0.dropped)));
        ("batcher.mean_batch", ratio batched calls);
        ("batcher.batched_share", ratio batched obl);
        ("batcher.obligations_per_receipt", per obl);
        ("batcher.cache_hit_ratio", ratio hits (hits + serial));
        ("mux.client_us_per_frame",
         total (spans_in "mux" voting) *. 1e3
         /. float_of_int (max 1 (sum (fun rd -> rd.mux_frames))));
        ("loadgen.late_ms_p99",
         Measure.percentile 99.
           (List.concat_map
              (fun rd -> Array.to_list (Array.map (fun v -> (v.sent -. v.due) *. 1e3) rd.votes))
              rs));
        ("gc.minor_words_per_receipt", gcs (fun g -> g.Measure.minor_words) /. n_ok);
        ("gc.promoted_words_per_receipt", gcs (fun g -> g.Measure.promoted_words) /. n_ok);
        ("gc.major_collections", gcs (fun g -> float_of_int g.Measure.major_collections));
        ("vsc.steps", float_of_int (sum (fun rd -> rd.c2.steps - rd.c1.steps)));
        ("vsc.frames", float_of_int (sum (fun rd -> rd.c2.frames - rd.c1.frames)));
        ("vsc.bytes", float_of_int (sum (fun rd -> rd.c2.bytes - rd.c1.bytes)));
        ("vsc.step_ms_max", List.fold_left Float.max 0. (spans_in "runtime.step" closing));
        ("trace.uncovered_share", 1. -. (covered /. window));
        ("op.samples", float_of_int (List.length all_lat)) ]
      @ probes
    end
  in
  let human =
    [ ("rounds", float_of_int rounds);
      ("votes_per_round", float_of_int k);
      ("receipts", float_of_int ok);
      ("receipt_p50_ms", pct 50.);
      ("receipt_p99_ms", pct 99.);
      ("receipts_per_s", float_of_int ok /. vote_wall);
      ("cpu_ms_per_receipt", vote_cpu *. 1e3 /. n_ok);
      ("vsc_s", close) ]
    @ List.concat
        (List.mapi
           (fun r rd ->
              let l = List.nth lat r in
              [ (Printf.sprintf "round%d.p50_ms" r, Measure.percentile 50. l);
                (Printf.sprintf "round%d.p90_ms" r, Measure.percentile 90. l);
                (Printf.sprintf "round%d.vsc_s" r, rd.t_done -. rd.t_vsc) ])
           rs)
  in
  { Measure.attempted = (rounds * k) + List.length gate; failed; checks; e2e; layers; human }
