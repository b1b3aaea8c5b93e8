module Types = Ddemos.Types
module Voter_driver = Ddemos.Voter_driver

type params = {
  lg_clients : int;
  lg_seed : string;
  lg_max_steps : int;
}

let default_params =
  { lg_clients = Voter_driver.default_params.Voter_driver.clients;
    lg_seed = Voter_driver.default_params.Voter_driver.seed;
    lg_max_steps = 1_000_000 }

(* A client's connection to one node, with its own frame decoder and
   an outbound buffer so a transport's partial accept never tears a
   frame (sockets accept what their kernel buffer holds). *)
type chan = {
  ch_conn : Transport.conn;
  ch_dec : Frame.decoder;
  ch_out : Buffer.t;
  mutable ch_opos : int;         (* sent prefix of [ch_out] *)
}

let flush_chan ch =
  let len = Buffer.length ch.ch_out - ch.ch_opos in
  if len > 0 then begin
    let data = Buffer.contents ch.ch_out in
    let k = ch.ch_conn.Transport.send data ~pos:ch.ch_opos ~len in
    ch.ch_opos <- ch.ch_opos + k;
    if ch.ch_opos >= Buffer.length ch.ch_out then begin
      Buffer.clear ch.ch_out;
      ch.ch_opos <- 0
    end
  end

(* Drain one channel into the driver: returns the replies processed.
   The Mux channel names the client the reply is for. *)
let pump_chan gctx voters ch =
  let n = ref 0 in
  let rec feed () =
    let bytes = ch.ch_conn.Transport.recv () in
    if bytes <> "" then begin
      Frame.feed ch.ch_dec bytes;
      feed ()
    end
  in
  feed ();
  let rec pop () =
    match Frame.pop ch.ch_dec with
    | None -> ()
    | Some payload ->
      (match Mux.decode gctx payload with
       | Some (Mux.Client_reply { channel; req; outcome }) ->
         incr n;
         Voter_driver.on_reply voters ~client:channel ~req outcome
       | Some _ | None -> ());
      pop ()
  in
  pop ();
  !n

let run ?(params = default_params) ~conn_for ~step ~ballot_for ~nv ~votes () =
  let gctx = Dd_group.Group_ctx.default () in
  let chans = Hashtbl.create 64 in
  let chan_of ~client ~node =
    match Hashtbl.find_opt chans (client, node) with
    | Some ch -> ch
    | None ->
      let ch =
        { ch_conn = conn_for ~client ~node; ch_dec = Frame.create ();
          ch_out = Buffer.create 256; ch_opos = 0 }
      in
      Hashtbl.replace chans (client, node) ch;
      ch
  in
  let send ~client ~node ~req ~serial ~vote_code =
    Buffer.add_string (chan_of ~client ~node).ch_out
      (Frame.encode
         (Mux.encode gctx (Mux.Client_vote { channel = client; req; serial; vote_code })))
  in
  (* time is the step count: a latency is the ticks a vote waited *)
  let steps = ref 0 in
  let voters =
    Voter_driver.create
      { Voter_driver.default_params with
        Voter_driver.clients = params.lg_clients; seed = params.lg_seed }
      ~nv ~ballot_for ~send
      (* no timers: a closed-loop client waits for its reply *)
      ~arm_timeout:(fun ~delay:_ _ -> ())
      ~now:(fun () -> float_of_int !steps) votes
  in
  for c = 0 to Voter_driver.clients voters - 1 do
    Voter_driver.start voters c
  done;
  let stalled = ref 0 in
  while
    (not (Voter_driver.finished voters)) && !steps < params.lg_max_steps && !stalled < 64
  do
    incr steps;
    (* snapshot: replies can open new channels mid-pump *)
    let chs = Hashtbl.fold (fun _ ch acc -> ch :: acc) chans [] in
    List.iter flush_chan chs;
    let server_work = step () in
    let replies = List.fold_left (fun acc ch -> acc + pump_chan gctx voters ch) 0 chs in
    if server_work = 0 && replies = 0 then incr stalled else stalled := 0
  done;
  Voter_driver.summary voters
