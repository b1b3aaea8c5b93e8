module Binary_batch = Dd_consensus.Binary_batch

type t = {
  sv_cfg : Types.config;
  sv_gctx : Dd_group.Group_ctx.t;
  sv_keys : Auth.keys array;
  sv_store_for : int -> Ballot_store.t;
  sv_bb : (Ea.bb_init * (int -> Board.t option)) option;
  sv_verify_share_tags : bool;
  sv_coin : Binary_batch.coin;
  sv_seed : string;
}

let of_setup ?(coin = Binary_batch.Local) ?seed (s : Ea.setup) =
  { sv_cfg = s.Ea.cfg;
    sv_gctx = s.Ea.gctx;
    sv_keys = s.Ea.vc_keys;
    sv_store_for = (fun node -> Ballot_store.materialized s.Ea.vc_init.(node));
    sv_bb = Some (s.Ea.bb_init, fun (_ : int) -> None);
    sv_verify_share_tags = true;
    sv_coin = coin;
    sv_seed = Option.value seed ~default:s.Ea.seed }

let prf ?(scheme = Auth.Schnorr_scheme) ?(coin = Binary_batch.Local) cfg ~seed =
  let gctx = Dd_group.Group_ctx.default () in
  { sv_cfg = cfg;
    sv_gctx = gctx;
    sv_keys =
      Auth.deal_clique ~scheme ~gctx ~seed:("vc-keys|" ^ seed) ~n:(cfg.Types.nv + 1);
    sv_store_for = (fun node -> Ballot_store.virtual_prf ~seed ~cfg ~node);
    sv_bb = None;
    sv_verify_share_tags = false;
    sv_coin = coin;
    sv_seed = seed }

let of_layout ~devices ?(coin = Binary_batch.Local) ?seed (layout : Election_store.layout) =
  let st = layout.Election_store.l_static in
  let cfg = st.Ea.st_cfg in
  let gctx = st.Ea.st_gctx in
  { sv_cfg = cfg;
    sv_gctx = gctx;
    sv_keys = st.Ea.st_vc_keys;
    sv_store_for =
      (fun node ->
         Ballot_store.segmented ~gctx ~cfg
           ~msk_share:st.Ea.st_msk_shares.(node)
           (devices (Election_store.vc_segment node))
           layout.Election_store.l_vc.(node));
    (* each BB node gets its own board, hence its own chunk cache *)
    sv_bb =
      Some
        ( { Ea.hmsk = st.Ea.st_hmsk; Ea.salt_msk = st.Ea.st_salt_msk;
            Ea.bb_ballots = [||] },
          fun (_ : int) ->
            Some
              (Board.segmented gctx
                 (devices Election_store.bb_segment)
                 layout.Election_store.l_bb) );
    sv_verify_share_tags = true;
    sv_coin = coin;
    (* the node RNG seed only drives timers and coin draws, so any
       per-deployment string works *)
    sv_seed = Option.value seed ~default:("serve|" ^ cfg.Types.election_id) }

let vc_env src ?(gen = 0) ?verify_tag ?durable ~now ~election_end ~send_vc ~reply
    ~send_bb i : Vc_node.env =
  { Vc_node.me = i;
    cfg = src.sv_cfg;
    keys = src.sv_keys.(i);
    store = src.sv_store_for i;
    now;
    election_start = 0.;
    election_end;
    send_vc;
    reply;
    send_bb;
    rng =
      Dd_crypto.Drbg.create
        ~seed:
          (if gen = 0 then Printf.sprintf "vc-rng|%s|%d" src.sv_seed i
           else Printf.sprintf "vc-rng|%s|%d|g%d" src.sv_seed i gen);
    consensus_coin = src.sv_coin;
    verify_share_tags = src.sv_verify_share_tags;
    verify_tag;
    durable }
