(** Where a collector cluster's election state comes from, and how a
    collector node's environment is built from it.

    Both execution backends — the simulator ({!Election.run}) and the
    serving runtime ([Dd_serve.Runtime]) — construct their nodes from a
    source, so keys, ballot stores, bulletin-board state and the node
    RNG seeding rule are defined once. A backend contributes only its
    transport (the send/reply closures) and its clock. *)

type t = {
  sv_cfg : Types.config;
  sv_gctx : Dd_group.Group_ctx.t;
  sv_keys : Auth.keys array;           (** VC clique; index nv = EA *)
  sv_store_for : int -> Ballot_store.t;
  sv_bb : (Ea.bb_init * (int -> Board.t option)) option;
      (** BB init + per-node board; [None] runs without BB nodes
          (vote-collection-only runs and modeled bulletin boards) *)
  sv_verify_share_tags : bool;
  sv_coin : Dd_consensus.Binary_batch.coin;
  sv_seed : string;                    (** node RNG seed *)
}

(** Full fidelity from an EA setup (tests, small deployments). The node
    RNG seed defaults to the setup's own seed. *)
val of_setup :
  ?coin:Dd_consensus.Binary_batch.coin -> ?seed:string -> Ea.setup -> t

(** PRF-derived ballots with a real authenticator clique dealt from
    ["vc-keys|<seed>"] (Schnorr by default): the realistic hot path
    without the full EA setup cost. Share tags are modeled away and
    there are no BB nodes. *)
val prf :
  ?scheme:Auth.scheme -> ?coin:Dd_consensus.Binary_batch.coin ->
  Types.config -> seed:string -> t

(** Full cryptography served from an {!Election_store} layout's sealed
    segments (the long-running deployment mode). The sealed static
    state does not retain the EA seed, so the node RNG seed defaults to
    ["serve|<election id>"]. *)
val of_layout :
  devices:(string -> Dd_store.Device.t) ->
  ?coin:Dd_consensus.Binary_batch.coin -> ?seed:string ->
  Election_store.layout -> t

(** [vc_env src i ...] is collector [i]'s environment. Its RNG is
    seeded ["vc-rng|<sv_seed>|<i>"]; generation [gen > 0] (the node's
    [gen]-th cold restart) appends ["|g<gen>"], so a recovered node's
    RNG diverges from its first life's while generation 0 keeps every
    existing transcript. Voting opens at time 0. *)
val vc_env :
  t -> ?gen:int ->
  ?verify_tag:(signer:int -> string -> Auth.tag -> bool) ->
  ?durable:Dd_store.Device.t ->
  now:(unit -> float) ->
  election_end:(unit -> float) ->
  send_vc:(dst:int -> Messages.vc_msg -> unit) ->
  reply:(client:int -> req:int -> Types.vote_outcome -> unit) ->
  send_bb:(dst:int -> Messages.bb_msg -> unit) ->
  int -> Vc_node.env
