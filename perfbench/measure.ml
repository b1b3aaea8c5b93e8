(* Clocks, order statistics and process counters shared by the
   workloads, plus the result record every workload fills in. *)

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Nearest-rank percentile of an unsorted sample ([p] in 0..100). *)
let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median xs = percentile 50. xs

(* Peak resident set (VmHWM) of this process, in MiB; falls back to
   the OCaml heap's peak where /proc is not available. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line ->
        (match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
         | Some kb -> Some (float_of_int kb /. 1024.)
         | None -> scan ())
      | exception End_of_file -> None
    in
    let r = scan () in
    close_in ic;
    r
  in
  match (try from_proc () with Sys_error _ -> None) with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

type gc_delta = { minor_words : float; promoted_words : float; major_collections : int }

let gc_span f =
  let a = Gc.quick_stat () in
  let v = f () in
  let b = Gc.quick_stat () in
  ( v,
    { minor_words = b.Gc.minor_words -. a.Gc.minor_words;
      promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
      major_collections = b.Gc.major_collections - a.Gc.major_collections } )

(* What one workload run reports. [e2e] carries the BENCHMARK.json
   end-to-end metrics, [layers] the per-layer ones; [human] repeats
   them under their per-workload names (receipt_p50_ms, vsc_s,
   tally_s, ...) for the readable summary only. *)
type result = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;   (* correctness gate: name, passed *)
  e2e : (string * float) list;
  layers : (string * float) list;
  human : (string * float) list;
}

(* A JSON number with all its digits; non-finite values (an empty
   sample) become null so the reader rejects them. *)
let json_float v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v
