module Engine = Resilix_sim.Engine

type outcome = {
  violations : Invariant.violation list;
  decisions : int array;  (** the trace the replay itself recorded *)
  reproduced : bool;
}

let resolve override (r : Repro.t) =
  match override with
  | Some sc -> Ok sc
  | None -> (
      match Scenario.find r.scenario with
      | Some sc -> Ok sc
      | None -> Error (Printf.sprintf "unknown scenario %S" r.scenario))

(* Trailing zeros in a recorded trace are FIFO choices, which is
   exactly what a Scripted policy falls back to when the script runs
   out — dropping them changes nothing. *)
let trim_trailing_zeros a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  Array.sub a 0 !n

(* A scenario that raises is judged as exploration judges it: one
   ["scenario-crash"] violation and no recorded trace. *)
let execute (sc : Scenario.t) (r : Repro.t) ~plan ~decisions =
  match sc.Scenario.run ~seed:r.seed ~policy:(Engine.Scripted decisions) ~plan with
  | report ->
      (Invariant.check ~bound:r.bound report, trim_trailing_zeros report.Scenario.r_decisions)
  | exception exn -> ([ Invariant.crash exn ], [||])

let run ?scenario (r : Repro.t) =
  match resolve scenario r with
  | Error _ as e -> e
  | Ok sc ->
      let violations, decisions = execute sc r ~plan:r.plan ~decisions:r.decisions in
      Ok { violations; decisions; reproduced = Invariant.same_failure violations r.violations }

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let nonzero a = Array.fold_left (fun n d -> if d <> 0 then n + 1 else n) 0 a

(* Strictly decreasing lexicographic measure; every adopted candidate
   shrinks it, so the greedy loop terminates and the result is never
   larger than the input. *)
let measure plan dec = (List.length plan, nonzero dec, Array.length dec)

let shrink ?scenario (r : Repro.t) =
  match resolve scenario r with
  | Error _ as e -> e
  | Ok sc ->
      let target = Invariant.names r.violations in
      let first_violations, first_dec = execute sc r ~plan:r.plan ~decisions:r.decisions in
      if not (Invariant.same_failure first_violations r.violations) then
        Error
          (Printf.sprintf "repro does not reproduce: expected [%s], got [%s]"
             (String.concat ", " target)
             (String.concat ", " (Invariant.names first_violations)))
      else begin
        let cur_plan = ref r.plan in
        let cur_dec = ref first_dec in
        let cur_violations = ref first_violations in
        let adopt plan dec =
          match execute sc r ~plan ~decisions:dec with
          | violations, dec' when Invariant.names violations = target ->
              if measure plan dec' < measure !cur_plan !cur_dec then begin
                cur_plan := plan;
                cur_dec := dec';
                cur_violations := violations;
                true
              end
              else false
          | _ -> false
        in
        let improved = ref true in
        while !improved do
          improved := false;
          (* Pass 1: drop fault-plan entries one at a time.  On
             adoption the entry at [i] is a new, untried one, so [i]
             stays put. *)
          let i = ref 0 in
          while !i < List.length !cur_plan do
            let cand = List.filteri (fun j _ -> j <> !i) !cur_plan in
            if adopt cand !cur_dec then improved := true else incr i
          done;
          (* Pass 2: revert divergent tie-breaks to FIFO.  Cheap
             opening move first — when the failure is not
             schedule-dependent, the all-FIFO (empty) script
             reproduces it and the whole trace collapses in one run. *)
          if Array.length !cur_dec > 0 && adopt !cur_plan [||] then improved := true;
          (* Then one decision at a time.  Zeroing decision [k] may
             change every later choice point, so the re-recorded
             trace is adopted (and judged by the measure), not the
             mutated array. *)
          let k = ref 0 in
          while !k < Array.length !cur_dec do
            (if !cur_dec.(!k) <> 0 then
               let cand = Array.copy !cur_dec in
               cand.(!k) <- 0;
               if adopt !cur_plan cand then improved := true);
            incr k
          done
        done;
        Ok { r with plan = !cur_plan; decisions = !cur_dec; violations = !cur_violations }
      end
