(* Kernel probes for the traced run: each times one public function of
   the program on the workload's own inputs (its keys, its cast vote
   codes, its ballot stores) and reports the median of [reps] calls in
   microseconds. Each probe also checks its result, so a probe that
   measured a failing call cannot pass the correctness gate. *)

module Types = Ddemos.Types
module Auth = Ddemos.Auth
module Messages = Ddemos.Messages
module Ballot_store = Ddemos.Ballot_store
module Shamir = Dd_vss.Shamir_bytes
module Drbg = Dd_crypto.Drbg

type inputs = {
  keys : Auth.keys array;                  (* the VC clique, EA last *)
  cfg : Types.config;
  votes : (int * string * string) array;   (* serial, cast code, printed receipt *)
  store_for : int -> Ballot_store.t;       (* a fresh store per VC node *)
  batch : int;                             (* batch size to probe verify_batch at *)
}

let reps = 41

(* Median over [reps] samples of one call's time in microseconds; a
   sample times [inner] consecutive calls, so calls far below the
   clock's microsecond resolution still read true. *)
let us_median ?(inner = 1) f =
  Measure.median
    (List.init reps (fun i ->
         let t0 = Measure.now () in
         for j = 0 to inner - 1 do
           f ((i * inner) + j)
         done;
         (Measure.now () -. t0) *. 1e6 /. float_of_int inner))

let run (inp : inputs) =
  let ok = ref true in
  let check b = if not b then ok := false in
  let cfg = inp.cfg in
  let election_id = cfg.Types.election_id in
  let nv = cfg.Types.nv in
  let quorum = nv - cfg.Types.fv in
  let nvotes = Array.length inp.votes in
  let vote i = inp.votes.(i mod nvotes) in
  let body i =
    let serial, code, _ = vote i in
    Messages.endorsement_body ~election_id ~serial ~code
  in
  let rng = Drbg.create ~seed:"perfbench-probe" in
  let signer i = i mod nv in
  let tag i = Auth.sign ~rng inp.keys.(signer i) (body i) in
  let tags = Array.init reps tag in
  let sign_us = us_median (fun i -> ignore (tag i : Auth.tag)) in
  let verifier = inp.keys.(nv - 1) in
  let verify_us =
    us_median (fun i ->
        check (Auth.verify verifier ~signer:(signer i) (body i) tags.(i)))
  in
  let b = max 1 inp.batch in
  let batch_us =
    us_median (fun i ->
        let entries =
          List.init b (fun j ->
              let k = (i + j) mod reps in
              (signer k, body k, tags.(k)))
        in
        check (Auth.verify_batch verifier entries))
    /. float_of_int b
  in
  let ucert i =
    let serial, code, _ = vote i in
    let bd = body i in
    { Messages.u_serial = serial; u_code = code;
      endorsements = List.init quorum (fun s -> (s, Auth.sign ~rng inp.keys.(s) bd)) }
  in
  let ucerts = Array.init reps ucert in
  let ucert_us =
    us_median (fun i ->
        check (Messages.verify_ucert verifier ~election_id ~quorum ucerts.(i)))
  in
  (* cold stores, as a node meets each cast code once on the hot path *)
  let stores = Array.init nv inp.store_for in
  let found = Array.make nvotes None in
  let validate_us =
    us_median ~inner:8 (fun i ->
        let serial, code, _ = vote i in
        let f = Ballot_store.verify_vote_code stores.(0) ~serial ~vote_code:code in
        check (f <> None);
        found.(i mod nvotes) <- f)
  in
  (* the receipt shares of the validated votes, as the quorum holds them *)
  let shares =
    Array.to_list found
    |> List.mapi (fun i f ->
        Option.map
          (fun (part, pos, _) ->
             let serial, _, receipt = vote i in
             ( List.init quorum (fun node ->
                   (Ballot_store.lines stores.(node) ~serial ~part).(pos).Types.receipt_share),
               receipt ))
          f)
    |> List.filter_map Fun.id |> Array.of_list
  in
  check (Array.length shares > 0);
  let reconstruct_us =
    if Array.length shares = 0 then nan
    else
    us_median ~inner:256 (fun i ->
        let sh, receipt = shares.(i mod Array.length shares) in
        check (Dd_crypto.Ct.equal (Shamir.reconstruct ~threshold:quorum sh) receipt))
  in
  ( !ok,
    [ ("auth.sign_us", sign_us);
      ("auth.verify_us", verify_us);
      ("auth.verify_batch_us_per_entry", batch_us);
      ("messages.ucert_verify_us", ucert_us);
      ("ballot_store.validate_us", validate_us);
      ("shamir.reconstruct_us", reconstruct_us) ] )
