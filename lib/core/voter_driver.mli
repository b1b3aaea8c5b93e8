(** The voter population both execution backends drive: [clients]
    closed-loop, [d]-patient voters (paper §III-F, Theorem 1), each
    casting its share of the vote intents one at a time.

    A voter picks a collector uniformly among the ones it has not
    blacklisted, submits, and waits. A valid receipt completes the vote
    and the voter moves on to its next intent. A bad receipt marks the
    collector malicious: it is blacklisted and the vote is resubmitted
    elsewhere at once. A timeout ([d]-patience with exponential backoff,
    {!Voter.retry_delay}) blacklists the silent collector and resubmits.
    When every collector is blacklisted the voter clears its blacklist
    and, after a backoff wait, starts another round; after
    [blacklist_rounds] rounds it abandons the vote (exhausted).

    The backend supplies only the transport ([send]), a timer
    ([arm_timeout]) and a clock ([now]). A backend without timers (the
    serving runtime's closed loop) passes a no-op [arm_timeout]; the
    driver still draws every retry delay at the same point, so per-client
    DRBG streams — and therefore which codes go to which collectors —
    are identical across backends for the same seed and intents. Such a
    backend must keep [blacklist_rounds = 1], since a later round is
    only ever started by a timer. *)

type vote_intent = {
  vi_serial : int;
  vi_choice : int;
}

type params = {
  clients : int;            (** concurrent voters, the paper's "cc" *)
  seed : string;            (** voter [c]'s DRBG is seeded ["client|<seed>|<c>"] *)
  patience : float;         (** the [d] of [d]-patience *)
  retry_cap : float;        (** backoff multiplier cap, see {!Voter.retry_delay} *)
  blacklist_rounds : int;   (** full passes over the cluster before a voter gives up *)
}

(** 40 clients, seed ["election-seed"], patience 20 s, cap 8, one
    blacklist round. *)
val default_params : params

type t

(** Intents are dealt round-robin over the clients in list order, like
    the paper's client threads loading their ballot files.
    [send ~client ~node ~req ~serial ~vote_code] transmits one vote;
    [on_finished] runs once, when the last client runs out of intents. *)
val create :
  params ->
  nv:int ->
  ballot_for:(int -> Types.ballot) ->
  send:(client:int -> node:int -> req:int -> serial:int -> vote_code:string -> unit) ->
  arm_timeout:(delay:float -> (unit -> unit) -> unit) ->
  now:(unit -> float) ->
  ?on_finished:(unit -> unit) ->
  vote_intent list -> t

(** The number of clients (at least 1). *)
val clients : t -> int

(** Client [c] takes up its first intent. *)
val start : t -> int -> unit

(** A collector's answer to request [req]. Stale replies (the request
    already timed out or was answered) and misrouted ones (addressed to
    another client than the one that sent [req]) are dropped. *)
val on_reply : t -> client:int -> req:int -> Types.vote_outcome -> unit

(** Every client has run out of intents. *)
val finished : t -> bool

type summary = {
  receipts_ok : int;
  receipts_bad : int;          (** receipt mismatched the printed one *)
  rejections : int;            (** the collector said no *)
  exhausted : int;             (** every collector blacklisted; vote abandoned *)
  in_flight : int;             (** submitted and still unanswered *)
  successes : (int * string) list;   (** (serial, cast vote code), newest first *)
  attempt_counts : int array;  (** index k: votes receipted on submission k+1 *)
  latencies : Dd_sim.Stats.sample_set;   (** per receipt, submit to receipt *)
  first_submit : float;        (** [infinity] before the first submission *)
  last_receipt : float;        (** [0.] before the first receipt *)
}

val summary : t -> summary
