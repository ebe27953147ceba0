(** The properties every exploration run is judged against.

    Four invariants, all drawn from the paper's recovery story:

    - {b span-completeness} — every applied kill is followed by a
      recovery span that closes within [bound] microseconds (the
      reincarnation server always finishes what it starts);
    - {b data-integrity} — data moved by the workload matches its
      generator digest (failure transparency: crashes never corrupt
      payloads);
    - {b endpoint-consistency} — after the run settles, the DS naming
      table maps every target service to exactly the kernel's live
      endpoint (the pub/sub rebind protocol converges);
    - {b no-deadlock} — the workload made progress (no lost-wakeup /
      stuck-IPC schedule exists);
    - {b breaker-bound} — a breaker-guarded component never flaps more
      than its breaker allows (at most [threshold] failures per closed
      episode, one more per half-open probe);
    - {b degraded-probe} — a degraded component is eventually probed: a
      breaker never sits open past its cooldown (plus scheduling
      slack) without a half-open probe attempt.

    Details are deterministic strings of virtual-time values, so equal
    runs produce byte-equal violations. *)

type violation = { v_invariant : string; v_detail : string }

val check : bound:int -> Scenario.report -> violation list
(** All violations of a run's report, in fixed invariant order. *)

val names : violation list -> string list
(** Sorted, deduplicated invariant names — the identity of a failure. *)

val same_failure : violation list -> violation list -> bool
(** Whether two runs failed the same way ({!names} agree) — the
    predicate shrinking preserves. *)

val crash : exn -> violation
(** The ["scenario-crash"] violation of a run that raised [exn]
    instead of reporting: how exploration and replay both judge a
    crashed run. *)

val pp_violation : violation -> string
