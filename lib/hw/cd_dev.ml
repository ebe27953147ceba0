module Engine = Resilix_sim.Engine
module Rng = Resilix_sim.Rng
module Kernel = Resilix_kernel.Kernel

let isr_done = 0x1
let isr_err = 0x8

type disc_state = Blank | In_session | Complete | Ruined

type t = {
  kernel : Resilix_kernel.Kernel.t;
  irq : int;
  rng : Rng.t;
  rate : int;
  gap_timeout : int;
  wedge_prob : float;
  mutable wedged : bool;
  mutable disc : disc_state;
  mutable busy : bool;
  mutable dmah : int;
  mutable len : int;
  mutable isr : int;
  mutable gap_watch : Engine.handle option;
  data : Buffer.t;
}

let disc t = t.disc
let burned t = Buffer.contents t.data
let engine t = Kernel.engine t.kernel

let maybe_wedge t =
  t.isr <- t.isr lor isr_err;
  if Rng.bool t.rng t.wedge_prob then t.wedged <- true

(* The buffer-underrun watchdog: if the session stays open with no
   block completed for gap_timeout, the disc is toast. *)
let arm_gap_watch t =
  (match t.gap_watch with Some h -> Engine.cancel h | None -> ());
  t.gap_watch <-
    Some
      (Engine.schedule (engine t) ~after:t.gap_timeout (fun () ->
           t.gap_watch <- None;
           if t.disc = In_session then begin
             t.disc <- Ruined;
             t.isr <- t.isr lor isr_err;
             Kernel.raise_irq t.kernel t.irq
           end))

let start_session t =
  match t.disc with
  | Blank ->
      t.disc <- In_session;
      arm_gap_watch t
  | In_session | Complete | Ruined -> maybe_wedge t

let finish_session t =
  match t.disc with
  | In_session ->
      (match t.gap_watch with Some h -> Engine.cancel h | None -> ());
      t.gap_watch <- None;
      t.disc <- Complete
  | Blank | Complete | Ruined -> maybe_wedge t

let burn_block t =
  if t.disc <> In_session || t.busy || t.len <= 0 || t.len > 65536 then maybe_wedge t
  else begin
    match Kernel.dma t.kernel ~handle:t.dmah ~off:0 ~op:(`Read t.len) with
    | Error _ -> maybe_wedge t
    | Ok block ->
        t.busy <- true;
        let duration = max 1 (t.len / t.rate) in
        ignore
          (Engine.schedule (engine t) ~after:duration (fun () ->
               t.busy <- false;
               if t.disc = In_session && not t.wedged then begin
                 Buffer.add_bytes t.data block;
                 arm_gap_watch t;
                 t.isr <- t.isr lor isr_done;
                 Kernel.raise_irq t.kernel t.irq
               end))
  end

let handle t ~reg access =
  if t.wedged then (match access with Bus.Read -> Ok 0xFFFF_FFFF | Bus.Write _ -> Ok 0)
  else
    match (reg, access) with
    | 0, Bus.Read -> Ok 0xCDB0
    | 1, Bus.Write 0x01 ->
        start_session t;
        Ok 0
    | 1, Bus.Write 0x02 ->
        finish_session t;
        Ok 0
    | 1, Bus.Write 0x10 ->
        (* Reset stops the laser; an open session is ruined when the
           gap watchdog fires. *)
        t.busy <- false;
        t.isr <- 0;
        Ok 0
    | 1, Bus.Write _ ->
        maybe_wedge t;
        Ok 0
    | 2, Bus.Write v ->
        t.dmah <- v;
        Ok 0
    | 3, Bus.Write v ->
        t.len <- v;
        Ok 0
    | 4, Bus.Write _ ->
        burn_block t;
        Ok 0
    | 5, Bus.Read ->
        Ok
          ((if t.disc = In_session then 1 else 0)
          lor (if t.busy then 2 else 0)
          lor if t.isr land isr_err <> 0 then 8 else 0)
    | 6, Bus.Read -> Ok t.isr
    | 6, Bus.Write v ->
        t.isr <- t.isr land lnot v;
        Ok 0
    | _, Bus.Read -> Ok 0xFFFF_FFFF
    | _, Bus.Write _ ->
        maybe_wedge t;
        Ok 0

let create ~kernel ~bus ~base ~irq ~rng ?(rate_bytes_per_us = 8) ?(gap_timeout = 300_000)
    ?(wedge_prob = 0.0) () =
  let t =
    {
      kernel;
      irq;
      rng;
      rate = rate_bytes_per_us;
      gap_timeout;
      wedge_prob;
      wedged = false;
      disc = Blank;
      busy = false;
      dmah = 0;
      len = 0;
      isr = 0;
      gap_watch = None;
      data = Buffer.create 65536;
    }
  in
  Bus.register bus ~base ~len:7 (handle t);
  t
