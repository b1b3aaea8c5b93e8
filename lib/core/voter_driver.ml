module Drbg = Dd_crypto.Drbg
module Stats = Dd_sim.Stats

type vote_intent = {
  vi_serial : int;
  vi_choice : int;
}

type params = {
  clients : int;
  seed : string;
  patience : float;
  retry_cap : float;
  blacklist_rounds : int;
}

let default_params =
  { clients = 40; seed = "election-seed"; patience = 20.; retry_cap = 8.0;
    blacklist_rounds = 1 }

(* one submission awaiting its reply *)
type pending = {
  client : int;
  plan : Voter.plan;
  node : int;
  sent : float;
  attempt : int;
}

type summary = {
  receipts_ok : int;
  receipts_bad : int;
  rejections : int;
  exhausted : int;
  in_flight : int;
  successes : (int * string) list;
  attempt_counts : int array;
  latencies : Stats.sample_set;
  first_submit : float;
  last_receipt : float;
}

type t = {
  p : params;
  nv : int;
  ballot_for : int -> Types.ballot;
  send : client:int -> node:int -> req:int -> serial:int -> vote_code:string -> unit;
  arm_timeout : delay:float -> (unit -> unit) -> unit;
  now : unit -> float;
  on_finished : unit -> unit;
  rngs : Drbg.t array;
  queues : vote_intent list array;
  blacklists : int list array;
  pending : (int, pending) Hashtbl.t;         (* req -> submission *)
  attempt_hist : (int, int) Hashtbl.t;
  mutable next_req : int;
  mutable done_clients : int;
  mutable s : summary;   (* [in_flight] and [attempt_counts] filled in by [summary] *)
}

let create p ~nv ~ballot_for ~send ~arm_timeout ~now ?(on_finished = fun () -> ()) votes =
  let n = max 1 p.clients in
  let queues = Array.make n [] in
  List.iteri (fun k v -> queues.(k mod n) <- v :: queues.(k mod n)) votes;
  Array.iteri (fun c q -> queues.(c) <- List.rev q) queues;
  { p; nv; ballot_for; send; arm_timeout; now; on_finished;
    rngs = Array.init n (fun c -> Drbg.create ~seed:(Printf.sprintf "client|%s|%d" p.seed c));
    queues;
    blacklists = Array.make n [];
    pending = Hashtbl.create 64;
    attempt_hist = Hashtbl.create 8;
    next_req = 0;
    done_clients = 0;
    s =
      { receipts_ok = 0; receipts_bad = 0; rejections = 0; exhausted = 0; in_flight = 0;
        successes = []; attempt_counts = [||]; latencies = Stats.sample_set ();
        first_submit = infinity; last_receipt = 0. } }

let clients t = Array.length t.queues
let finished t = t.done_clients >= clients t

let retry_delay t c ~attempt =
  Voter.retry_delay ~cap:t.p.retry_cap t.rngs.(c) ~patience:t.p.patience ~attempt

let rec start t c =
  match t.queues.(c) with
  | [] ->
    t.done_clients <- t.done_clients + 1;
    if finished t then t.on_finished ()
  | intent :: rest ->
    t.queues.(c) <- rest;
    t.blacklists.(c) <- [];
    let plan =
      Voter.make_plan ~patience:t.p.patience t.rngs.(c)
        ~ballot:(t.ballot_for intent.vi_serial) ~choice:intent.vi_choice
    in
    submit t c plan ~attempt:1 ~round:1

and submit t c plan ~attempt ~round =
  match Voter.pick_node t.rngs.(c) ~nv:t.nv ~blacklist:t.blacklists.(c) with
  | None ->
    if round < t.p.blacklist_rounds then begin
      (* every node timed out once: forget the blacklist and try the
         whole cluster again after a backoff wait (the cluster may be
         partitioned or crashed-and-recovering, not Byzantine) *)
      t.blacklists.(c) <- [];
      t.arm_timeout ~delay:(retry_delay t c ~attempt)
        (fun () -> submit t c plan ~attempt:(attempt + 1) ~round:(round + 1))
    end else begin
      t.s <- { t.s with exhausted = t.s.exhausted + 1 };
      start t c
    end
  | Some node ->
    t.next_req <- t.next_req + 1;
    let req = t.next_req in
    let now = t.now () in
    if now < t.s.first_submit then t.s <- { t.s with first_submit = now };
    Hashtbl.replace t.pending req { client = c; plan; node; sent = now; attempt };
    t.send ~client:c ~node ~req ~serial:plan.Voter.ballot.Types.serial
      ~vote_code:(Voter.vote_code plan);
    (* [d]-patience with exponential backoff: blacklist and resubmit
       on timeout *)
    t.arm_timeout ~delay:(retry_delay t c ~attempt)
      (fun () ->
         if Hashtbl.mem t.pending req then begin
           Hashtbl.remove t.pending req;
           t.blacklists.(c) <- node :: t.blacklists.(c);
           submit t c plan ~attempt:(attempt + 1) ~round
         end)

let on_reply t ~client ~req outcome =
  match Hashtbl.find_opt t.pending req with
  | None -> ()   (* stale reply after patience expired *)
  | Some sub when sub.client <> client -> ()   (* misrouted reply: drop *)
  | Some sub ->
    Hashtbl.remove t.pending req;
    let c = sub.client and plan = sub.plan in
    (match outcome with
     | Types.Receipt r ->
       if Voter.receipt_valid plan r then begin
         Hashtbl.replace t.attempt_hist sub.attempt
           (1 + Option.value ~default:0 (Hashtbl.find_opt t.attempt_hist sub.attempt));
         let now = t.now () in
         Stats.record t.s.latencies (now -. sub.sent);
         t.s <-
           { t.s with
             receipts_ok = t.s.receipts_ok + 1;
             successes = (plan.Voter.ballot.Types.serial, Voter.vote_code plan) :: t.s.successes;
             last_receipt = Float.max now t.s.last_receipt };
         start t c
       end else begin
         t.s <- { t.s with receipts_bad = t.s.receipts_bad + 1 };
         (* a bad receipt means a malicious responder: blacklist, retry *)
         t.blacklists.(c) <- sub.node :: t.blacklists.(c);
         submit t c plan ~attempt:(sub.attempt + 1) ~round:1
       end
     | Types.Rejected _ ->
       t.s <- { t.s with rejections = t.s.rejections + 1 };
       start t c)

let summary t =
  let max_a = Hashtbl.fold (fun k _ m -> max k m) t.attempt_hist 0 in
  { t.s with
    in_flight = Hashtbl.length t.pending;
    attempt_counts =
      Array.init max_a (fun i ->
          Option.value ~default:0 (Hashtbl.find_opt t.attempt_hist (i + 1))) }
