(* R-D1: Domains backend hardware scaling — committed txns/sec on the bank
   workload over real domains, swept over worker counts, written to
   BENCH_D1.json.  All the measurement logic lives in
   [Partstm_workloads.Scaling]; this file only picks the sweep size and the
   output location.  Unlike the other experiments this one measures the
   actual machine, so the JSON records the host's recommended domain count
   and the acceptance checks self-skip on hosts that cannot run the workers
   in parallel. *)

open Partstm_workloads

let output_path (cfg : Bench_config.t) =
  match cfg.Bench_config.csv_dir with
  | Some dir -> Filename.concat dir "BENCH_D1.json"
  | None -> "BENCH_D1.json"

let show_verdict name = function
  | `Passed -> Printf.printf "check %-18s passed\n" name
  | `Failed reason -> Printf.printf "check %-18s FAILED: %s\n" name reason
  | `Skipped reason -> Printf.printf "check %-18s skipped: %s\n" name reason

let run (cfg : Bench_config.t) =
  Bench_config.section "R-D1: domains hardware scaling";
  let config = if cfg.Bench_config.quick then Scaling.quick_config else Scaling.default_config in
  let report = Scaling.run ~progress:(fun line -> Printf.printf "  %s\n%!" line) config in
  print_newline ();
  Partstm_util.Table.print (Scaling.to_table report);
  print_newline ();
  show_verdict "scaling-1-to-4" (Scaling.check_scaling report);
  let path = output_path cfg in
  (match cfg.Bench_config.csv_dir with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | _ -> ());
  Partstm_util.Json.merge_into_file ~path (Scaling.to_json report);
  Printf.printf "(json: %s)\n" path
