module Span = Resilix_obs.Span

type violation = { v_invariant : string; v_detail : string }

let pp_violation v = Printf.sprintf "%s: %s" v.v_invariant v.v_detail

let names vs = List.sort_uniq compare (List.map (fun v -> v.v_invariant) vs)

let same_failure a b = names a = names b
let crash exn = { v_invariant = "scenario-crash"; v_detail = Printexc.to_string exn }

let check ~bound (r : Scenario.report) =
  let vs = ref [] in
  let add inv detail = vs := { v_invariant = inv; v_detail = detail } :: !vs in
  let open_spans = List.length (Span.open_spans r.Scenario.r_spans) in
  let late = List.length (Span.incomplete ~within:bound r.Scenario.r_spans) in
  if late > 0 then
    add "span-completeness"
      (Printf.sprintf "%d recovery span(s) open or wider than %dus at t=%dus (%d never closed)"
         late bound r.Scenario.r_end_time open_spans)
  else if r.Scenario.r_recoveries < r.Scenario.r_expected_spans then
    add "span-completeness"
      (Printf.sprintf "%d kill(s) applied but only %d recovery span(s) closed"
         r.Scenario.r_expected_spans r.Scenario.r_recoveries);
  if not r.Scenario.r_checksum_ok then
    add "data-integrity" "workload data did not match its generator digest";
  if not r.Scenario.r_endpoints_ok then
    add "endpoint-consistency" "DS naming table disagrees with the kernel process table";
  if not r.Scenario.r_completed then
    add "no-deadlock"
      (Printf.sprintf "workload made no progress by t=%dus" r.Scenario.r_end_time);
  (match r.Scenario.r_storm with
  | None -> ()
  | Some s ->
      (* Every issued request must resolve — completed, mismatched,
         timed out, or failed after retries.  A request that simply
         vanishes is a lost-reply bug in the accept/serve path. *)
      let resolved =
        s.Scenario.s_completed + s.Scenario.s_mismatches + s.Scenario.s_timeouts
        + s.Scenario.s_failed
      in
      if resolved <> s.Scenario.s_requests then
        add "storm-accounting"
          (Printf.sprintf
             "%d request(s) issued but only %d resolved (%d ok, %d mismatch, %d timeout, %d failed)"
             s.Scenario.s_requests resolved s.Scenario.s_completed s.Scenario.s_mismatches
             s.Scenario.s_timeouts s.Scenario.s_failed);
      (* Goodput may dip to zero while the driver is down, but it must
         resume within the recovery bound (plus client retry-backoff
         slack) of the kill.  Quiet stretches elsewhere in the timeline
         are sparse laggards (slow clients dribbling bytes), not
         flatlines — only the gap anchored at the outage is judged. *)
      if s.Scenario.s_outage_at > 0 then begin
        let bins = s.Scenario.s_goodput in
        let ob = s.Scenario.s_outage_at / s.Scenario.s_bin_us in
        let resume = ref None in
        for j = Array.length bins - 1 downto ob + 1 do
          if bins.(j) > 0 then resume := Some j
        done;
        let allowed = bound + 2_000_000 in
        match !resume with
        | Some j ->
            let gap_us = (j * s.Scenario.s_bin_us) - s.Scenario.s_outage_at in
            if gap_us > allowed then
              add "goodput-flatline"
                (Printf.sprintf
                   "goodput flat for %dus after the kill at t=%dus (allowed %dus: recovery \
                    bound %dus + retry slack)"
                   gap_us s.Scenario.s_outage_at allowed bound)
        | None ->
            (* No bytes ever landed after the kill: fine when the storm
               had already drained, a flatline when work remained. *)
            if
              s.Scenario.s_completed < s.Scenario.s_requests
              && r.Scenario.r_end_time - s.Scenario.s_outage_at > allowed
            then
              add "goodput-flatline"
                (Printf.sprintf
                   "no goodput after the kill at t=%dus with %d request(s) unserved"
                   s.Scenario.s_outage_at
                   (s.Scenario.s_requests - s.Scenario.s_completed))
      end);
  List.iter
    (fun (b : Scenario.breaker_row) ->
      (* Each closed episode allows at most [threshold] failures before
         tripping, there are at most [probes + 1] closed episodes, and
         each probe can contribute one more failure. *)
      let allowed = (b.Scenario.b_threshold * (b.Scenario.b_probes + 1)) + b.Scenario.b_probes in
      if b.Scenario.b_failures > allowed then
        add "breaker-bound"
          (Printf.sprintf "%s failed %d time(s); its breaker bounds churn at %d (%d trip(s), %d probe(s))"
             b.Scenario.b_component b.Scenario.b_failures allowed b.Scenario.b_trips
             b.Scenario.b_probes);
      if b.Scenario.b_overdue then
        add "degraded-probe"
          (Printf.sprintf "%s breaker open past its cooldown with no half-open probe at t=%dus"
             b.Scenario.b_component r.Scenario.r_end_time))
    r.Scenario.r_breakers;
  List.rev !vs
