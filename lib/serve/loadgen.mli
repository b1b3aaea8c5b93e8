(** Closed-loop deterministic load generator for the serving runtime:
    the framed byte channels and the stepping loop around the shared
    voter driver, {!Ddemos.Voter_driver}.

    The simulator's [Election.run] runs the same driver, so a serve run
    and a simulator run with the same seed and vote list cast the same
    codes at the same nodes. That is what makes transcript equivalence
    testable: the backends must agree because their inputs agree
    bit-for-bit.

    Closed loop: each client keeps exactly one vote in flight and
    submits its next one the moment the reply lands (no timeouts).
    Offered load is set by the client count, the paper's Fig.-4
    methodology. Client [c] speaks on Mux channel [c]; a reply on
    another channel than the request's is dropped. *)

type params = {
  lg_clients : int;
  lg_seed : string;
  lg_max_steps : int;     (** driver iterations before declaring a stall *)
}

(** The simulator's defaults: 40 clients, seed "election-seed". *)
val default_params : params

(** [run ~conn_for ~step ~ballot_for ~nv ~votes ()] submits every
    intent and drives the server via [step] until all replies landed
    (or the step budget is spent, or 64 steps in a row did no work;
    votes still [in_flight] then were lost). [conn_for ~client ~node]
    opens (or returns) the byte-stream connection client [client] uses
    to reach VC node [node] — pipes in-process, sockets across them;
    the generator frames, multiplexes and decodes on its own. Latencies
    in the summary are in driver steps. *)
val run :
  ?params:params ->
  conn_for:(client:int -> node:int -> Transport.conn) ->
  step:(unit -> int) ->
  ballot_for:(int -> Ddemos.Types.ballot) ->
  nv:int ->
  votes:Ddemos.Voter_driver.vote_intent list ->
  unit -> Ddemos.Voter_driver.summary
