(* In-memory span recorder for the traced run. Spans are recorded only
   at the benchmark's own call boundaries (the program under test is
   never instrumented), kept in memory, and written out once at the
   end so the write does not perturb the timed phases.

   A span opened with [span] nests under the innermost open span of
   the driver thread; [record] adds a span with explicit times, used
   for the per-vote spans, which overlap each other and are rebuilt
   after the reply arrives. *)

type t = {
  id : int;
  parent : int;        (* 0: top level *)
  name : string;
  vote : int;          (* vote index for the vote.* spans, else -1 *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let spans : t list ref = ref []
let next_id = ref 0
let open_stack : int list ref = ref []

let now = Unix.gettimeofday

let fresh_id () =
  incr next_id;
  !next_id

let record ?(parent = 0) ?(vote = -1) name t0 t1 =
  let id = fresh_id () in
  if !enabled then spans := { id; parent; name; vote; t0; t1 } :: !spans;
  id

(* Time [f] as span [name] under the innermost open span. Untraced
   runs call [f] directly. *)
let span name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = match !open_stack with p :: _ -> p | [] -> 0 in
    open_stack := id :: !open_stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      open_stack := List.tl !open_stack;
      spans := { id; parent; name; vote = -1; t0; t1 } :: !spans
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let all () = List.rev !spans

(* Total duration of the top-level driver spans inside [t0, t1]. The
   driver is one thread, so its top-level spans never overlap and the
   covered time is their sum. *)
let covered ~t0 ~t1 =
  List.fold_left
    (fun acc s ->
       if s.parent = 0 && s.vote < 0 then
         acc +. Float.max 0. (Float.min s.t1 t1 -. Float.max s.t0 t0)
       else acc)
    0. !spans

(* Chrome trace-event JSON ("X" complete events, microseconds), one
   event per line; vote spans go on their own track (tid 2). *)
let write path =
  let oc = open_out path in
  let base = List.fold_left (fun b s -> Float.min b s.t0) infinity !spans in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
       Printf.fprintf oc
         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\"dur\":%.1f,\
          \"args\":{\"id\":%d,\"parent\":%d%s}}\n"
         (if i = 0 then "" else ",")
         s.name (if s.vote >= 0 then 2 else 1)
         ((s.t0 -. base) *. 1e6) ((s.t1 -. s.t0) *. 1e6) s.id s.parent
         (if s.vote >= 0 then Printf.sprintf ",\"vote\":%d" s.vote else ""))
    (all ());
  output_string oc "]}\n";
  close_out oc
