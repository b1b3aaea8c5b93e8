(* One benchmark run of one workload, in this (fresh) process:

     main.exe --workload W --seed S --seconds T --trace 0|1 [--trace-out FILE]

   Prints a readable summary, then one JSON line:
   {"correct", "attempted", "failed", "e2e": {name: value}, "layers": {...}}.
   perfbench/run.py turns that into the benchmark's result line. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload cast-open|cast-closed|lifecycle --seed S \
     --seconds T --trace 0|1 [--trace-out FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref "" and seconds = ref 0. and trace = ref 0 in
  let trace_out = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := v; parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with Some s when s > 0. -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := int_of_string v; parse rest
    | "--trace-out" :: v :: rest -> trace_out := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed = "" || !seconds <= 0. then usage ();
  Spans.enabled := !trace = 1;
  let seed = !seed and seconds = !seconds in
  let r =
    match !workload with
    | "cast-open" -> Cast.run ~workload:"cast-open" ~seed ~seconds ~mode:(Cast.Open Params.open_rate)
    | "cast-closed" ->
      Cast.run ~workload:"cast-closed" ~seed ~seconds ~mode:(Cast.Closed Params.closed_clients)
    | "lifecycle" -> Lifecycle.run ~seed ~seconds
    | _ -> usage ()
  in
  let r =
    { r with Measure.e2e = r.Measure.e2e @ [ ("peak_rss_mb", Measure.peak_rss_mb ()) ];
             layers =
               r.Measure.layers
               @ [ ("fail_share",
                    float_of_int r.Measure.failed /. float_of_int (max 1 r.Measure.attempted)) ] }
  in
  if !trace = 1 && !trace_out <> "" then Spans.write !trace_out;
  let correct = List.for_all snd r.Measure.checks && r.Measure.failed = 0 in
  Printf.printf "workload %s  seed %s  seconds %g  trace %d\n" !workload seed seconds !trace;
  List.iter
    (fun (name, ok) -> Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") name)
    r.Measure.checks;
  List.iter (fun (name, v) -> Printf.printf "  %-36s %14.4f\n" name v)
    (r.Measure.human @ r.Measure.e2e @ r.Measure.layers);
  let obj kvs =
    "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k (Measure.json_float v)) kvs) ^ "}"
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"e2e\":%s,\"layers\":%s}\n"
    correct r.Measure.attempted r.Measure.failed (obj r.Measure.e2e) (obj r.Measure.layers)
