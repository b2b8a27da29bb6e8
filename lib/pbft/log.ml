open Types

type entry = {
  seq : seqno;
  mutable pp_view : view;
  mutable batch : Message.batch_item list option;
  mutable nondet : string;
  mutable batch_digest : digest;
  mutable prepares : (replica_id, unit) Hashtbl.t;
  mutable commits : (replica_id, unit) Hashtbl.t;
  mutable prepared : bool;
  mutable committed : bool;
  mutable executed : bool;
  mutable tentatively_executed : bool;
  mutable missing_bodies : digest list;
  mutable pending_replies : (Message.request * string * float) list;
      (** pipelined speculation: (request, result, exec timestamp) buffered
          until the commit certificate lands; always [] in serial mode *)
}

type cached_reply = {
  cr_id : int;
  cr_result : string;
  cr_view : view;
  cr_tentative : bool;
  cr_timestamp : float;
  cr_speculative : bool;
      (** cached by a speculative execution whose commit certificate has
          not landed yet — must never be resent to the client until the
          flush at commit flips it off *)
}

type t = {
  slots : (seqno, entry) Hashtbl.t;
  mutable low : seqno;
  replies : (client_id, cached_reply) Hashtbl.t;
}

let create () = { slots = Hashtbl.create 256; low = 0; replies = Hashtbl.create 64 }
let low_watermark t = t.low

type retired = { orphaned : digest list; still_live : digest -> bool }

let iter_body_digests f e =
  match e.batch with
  | Some items ->
    List.iter (function Message.Digest_of d -> f d.bd_digest | Message.Full _ -> ()) items
  | None -> ()

(* One sorted pass: slots at or below the mark are removed, the rest are
   the live log, and the digests they name protect their bodies. *)
let set_low_watermark t mark =
  t.low <- mark;
  let live = Hashtbl.create 64 in
  let gone = ref [] in
  List.iter
    (fun (seq, e) ->
      if seq <= mark then begin
        Hashtbl.remove t.slots seq;
        gone := e :: !gone
      end
      else iter_body_digests (fun d -> Hashtbl.replace live d ()) e)
    (Util.Sorted_tbl.bindings t.slots);
  let orphaned = ref [] in
  List.iter
    (iter_body_digests (fun d -> if not (Hashtbl.mem live d) then orphaned := d :: !orphaned))
    (List.rev !gone);
  { orphaned = List.rev !orphaned; still_live = Hashtbl.mem live }

let length t = Hashtbl.length t.slots

let fresh_entry seq =
  {
    seq;
    pp_view = -1;
    batch = None;
    nondet = "";
    batch_digest = "";
    prepares = Hashtbl.create 8;
    commits = Hashtbl.create 8;
    prepared = false;
    committed = false;
    executed = false;
    tentatively_executed = false;
    missing_bodies = [];
    pending_replies = [];
  }

let entry t seq =
  match Hashtbl.find_opt t.slots seq with
  | Some e -> e
  | None ->
    let e = fresh_entry seq in
    Hashtbl.add t.slots seq e;
    e

let find t seq = Hashtbl.find_opt t.slots seq
let record_prepare e r = Hashtbl.replace e.prepares r ()
let record_commit e r = Hashtbl.replace e.commits r ()

(* A batch superseded by a later view's proposal takes its votes with it:
   they certified the old digest. *)
let reset_votes e =
  Hashtbl.reset e.prepares;
  Hashtbl.reset e.commits;
  e.prepared <- false;
  e.committed <- false
let prepare_count e = Hashtbl.length e.prepares
let commit_count e = Hashtbl.length e.commits

let entries_between t ~lo ~hi =
  List.filter_map
    (fun (seq, e) -> if seq > lo && seq <= hi then Some e else None)
    (Util.Sorted_tbl.bindings t.slots)

let prepared_above t seq =
  List.filter_map
    (fun (s, e) -> if s > seq && e.prepared then Some e else None)
    (Util.Sorted_tbl.bindings t.slots)

let cached_reply t c = Hashtbl.find_opt t.replies c
let cache_reply t c r = Hashtbl.replace t.replies c r
let drop_client t c = Hashtbl.remove t.replies c
