(* Workload sizes. Each is fixed here, not on the command line, so two
   commits always run the same work for the same seed and duration. *)

(* Independent elections (rounds) per run. The machine's speed
   changes in bursts of a second or more, and one election's close is
   a single burst of work, so a run reports set-up and close times as
   medians over its rounds. *)
let cast_rounds = 5
let lifecycle_rounds = 4

(* cast-open: the offered rate, at most half the open-loop capacity
   of one core (19-36 ms of processor time per receipt, depending on
   the host's load), so queues stay short and the latency is
   processing plus light queueing rather than a backlog. *)
let open_rate = 14.

(* cast-closed: votes cast per second of --seconds, at or below the
   closed loop's throughput (40-85 receipts/s, depending on the host's
   load), so the phase lasts at most about that long while the vote
   count (and so every counter) depends only on the seed. *)
let closed_votes_per_s = 40.

let closed_clients = 64

(* lifecycle: a small full-crypto electorate (EA setup costs 0.13-0.3 s
   per voter), one silent collector, and audit passes per round. *)
let lifecycle_voters = 12
let audit_passes_per_s = 1.

(* Wall-clock budget for one Vote Set Consensus before the gate fails
   the run. *)
let vsc_max_s = 30.

(* The tail percentile reported as an end-to-end metric, over the
   receipts of all rounds (350 on cast-open). Deeper percentiles rest
   on a few arrival clumps and spread too widely between seeds. *)
let tail_pct = 90.
let tail_name = "op_p90_ms"
