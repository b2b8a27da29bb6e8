type vote = {
  v_shard : int;
  v_client : int;
  v_rq_id : int;
  v_result : string;
  v_cert : string;
}

type op =
  | Prepare of { tx : int; deadline : float; shards : int list; script : string }
  | Commit of { tx : int; votes : vote list }
  | Abort of { tx : int; reason : string }

let magic = "X2P1"

let encode_op o =
  magic
  ^ Util.Codec.encode
      (fun w o ->
        match o with
        | Prepare { tx; deadline; shards; script } ->
          Util.Codec.W.u8 w 0;
          Util.Codec.W.varint w tx;
          Util.Codec.W.f64 w deadline;
          Util.Codec.W.list w Util.Codec.W.varint shards;
          Util.Codec.W.lstring w script
        | Commit { tx; votes } ->
          Util.Codec.W.u8 w 1;
          Util.Codec.W.varint w tx;
          Util.Codec.W.list w
            (fun w v ->
              Util.Codec.W.varint w v.v_shard;
              Util.Codec.W.varint w v.v_client;
              Util.Codec.W.varint w v.v_rq_id;
              Util.Codec.W.lstring w v.v_result;
              Util.Codec.W.lstring w v.v_cert)
            votes
        | Abort { tx; reason } ->
          Util.Codec.W.u8 w 2;
          Util.Codec.W.varint w tx;
          Util.Codec.W.lstring w reason)
      o

let is_twopc_op s =
  String.length s >= 4 && String.equal (String.sub s 0 4) magic

let decode_op s =
  if not (is_twopc_op s) then None
  else
    match
      Util.Codec.decode
        (fun r ->
          match Util.Codec.R.u8 r with
          | 0 ->
            let tx = Util.Codec.R.varint r in
            let deadline = Util.Codec.R.f64 r in
            let shards = Util.Codec.R.list r Util.Codec.R.varint in
            let script = Util.Codec.R.lstring r in
            Prepare { tx; deadline; shards; script }
          | 1 ->
            let tx = Util.Codec.R.varint r in
            let votes =
              Util.Codec.R.list r (fun r ->
                  let v_shard = Util.Codec.R.varint r in
                  let v_client = Util.Codec.R.varint r in
                  let v_rq_id = Util.Codec.R.varint r in
                  let v_result = Util.Codec.R.lstring r in
                  let v_cert = Util.Codec.R.lstring r in
                  { v_shard; v_client; v_rq_id; v_result; v_cert })
            in
            Commit { tx; votes }
          | _ ->
            let tx = Util.Codec.R.varint r in
            let reason = Util.Codec.R.lstring r in
            Abort { tx; reason })
        (String.sub s 4 (String.length s - 4))
    with
    | op -> Some op
    | exception Util.Codec.R.Truncated -> None

let prepared_prefix tx = Printf.sprintf "2pc-prepared:%d:" tx

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* Process-wide counter, the Pages.bytes_copied idiom. *)
let n_aborts = ref 0

let aborts () = !n_aborts

type prep = {
  p_tx : int;
  p_deadline : float;
  p_shards : int list;
  p_snapshot : Statemgr.Pages.snapshot;
  p_reply : string;
}

let tiny_cost = 1e-6

(* Virtual CPU charge per vote certificate checked at commit. *)
let vote_verify_cost = 1e-4

(* Aborted transaction ids remembered per instance. *)
let max_recent_aborts = 512

let wrap ~verify (inner : Pbft.Service.t) =
  {
    inner with
    Pbft.Service.name = "x2:" ^ inner.Pbft.Service.name;
    make =
      (fun pages ~first_page ->
        let instance = inner.Pbft.Service.make pages ~first_page in
        let prepared = ref None in
        (* Recently aborted transaction ids: point lookups only, FIFO
           eviction — a reordered prepare for an aborted transaction must
           vote abort, not lock the shard. *)
        let aborted : (int, unit) Hashtbl.t = Hashtbl.create 64 in
        let aborted_fifo : int Queue.t = Queue.create () in
        let remember_abort tx =
          if not (Hashtbl.mem aborted tx) then begin
            (Hashtbl.replace aborted tx ())
            [@trustlint.allow
              "2PC ops reach execute only as agreed, ordered requests whose \
               MAC Replica.check_auth verified at intake; the abort set is \
               deterministic replicated bookkeeping, FIFO-bounded by \
               max_recent_aborts"];
            Queue.push tx aborted_fifo;
            if Queue.length aborted_fifo > max_recent_aborts then
              Hashtbl.remove aborted (Queue.pop aborted_fifo)
          end
        in
        let restore p =
          for i = first_page to first_page + inner.Pbft.Service.app_pages - 1 do
            Statemgr.Pages.restore_page pages p.p_snapshot i
          done;
          incr n_aborts
        in
        let abort_reply tx = Printf.sprintf "2pc-aborted:%d" tx in
        (* The deadline is judged only against *agreed* timestamps of
           ordered operations — never a local clock — so all replicas of
           the group expire a transaction at the same sequence number. *)
        let expire_if_due ~timestamp =
          match !prepared with
          | Some p when timestamp > p.p_deadline ->
            restore p;
            remember_abort p.p_tx;
            prepared := None
          | Some _ | None -> ()
        in
        let do_prepare ~tx ~deadline ~shards ~script ~client ~timestamp ~nondet =
          match !prepared with
          | Some p when Int.equal p.p_tx tx -> (p.p_reply, tiny_cost)
          | Some p -> (Printf.sprintf "error:2pc-busy:%d" p.p_tx, tiny_cost)
          | None ->
            if Hashtbl.mem aborted tx then (abort_reply tx, tiny_cost)
            else if timestamp > deadline then begin
              remember_abort tx;
              (Printf.sprintf "2pc-abort:%d:expired" tx, tiny_cost)
            end
            else begin
              let snapshot = Statemgr.Pages.snapshot pages in
              let reply, cost =
                (instance.Pbft.Service.execute ~op:script ~client ~timestamp ~nondet
                   ~readonly:false)
                [@trustlint.allow
                  "the prepare script is the body of an agreed request: \
                   Replica.check_auth verified its MAC and three-phase \
                   agreement fixed its order before execute ran; the page \
                   snapshot keeps it abortable"]
              in
              if has_prefix ~prefix:"error:" reply then begin
                (* The script failed; the database rolled its own
                   statements back, but restore anyway so the page region
                   is bit-identical to never having prepared. *)
                let p =
                  { p_tx = tx; p_deadline = deadline; p_shards = shards;
                    p_snapshot = snapshot; p_reply = "" }
                in
                restore p;
                remember_abort tx;
                (Printf.sprintf "2pc-abort:%d:%s" tx reply, cost)
              end
              else begin
                let p_reply = prepared_prefix tx ^ reply in
                (prepared :=
                   Some
                     { p_tx = tx; p_deadline = deadline; p_shards = shards;
                       p_snapshot = snapshot; p_reply })
                [@trustlint.allow
                  "records the prepare lock for an agreed, MAC-verified \
                   request; released only by an agreed commit (vote \
                   certificates re-checked by [verify]), an agreed abort, or \
                   the agreed deadline"];
                (p_reply, cost)
              end
            end
        in
        let do_commit ~tx ~votes =
          match !prepared with
          | Some p when Int.equal p.p_tx tx ->
            let vote_for s = List.find_opt (fun v -> Int.equal v.v_shard s) votes in
            let vote_ok v =
              has_prefix ~prefix:(prepared_prefix tx) v.v_result
              && verify ~shard:v.v_shard ~client:v.v_client ~rq_id:v.v_rq_id
                   ~result:v.v_result ~cert:v.v_cert
            in
            let all_ok =
              List.for_all
                (fun s -> match vote_for s with Some v -> vote_ok v | None -> false)
                p.p_shards
            in
            let cost = float_of_int (List.length p.p_shards) *. vote_verify_cost in
            if all_ok then begin
              prepared := None;
              (Printf.sprintf "2pc-committed:%d" tx, cost)
            end
            else begin
              (* Byzantine or confused coordinator: refuse, stay
                 prepared — the agreed deadline bounds the lock. *)
              (Printf.sprintf "error:2pc-bad-certificate:%d" tx, cost)
            end
          | Some _ | None ->
            if Hashtbl.mem aborted tx then (Printf.sprintf "error:2pc-aborted:%d" tx, tiny_cost)
            else (Printf.sprintf "error:2pc-unknown-tx:%d" tx, tiny_cost)
        in
        let do_abort ~tx =
          (match !prepared with
          | Some p when Int.equal p.p_tx tx ->
            restore p;
            prepared := None
          | Some _ | None -> ());
          (* Remember even never-seen ids: an abort ordered before its
             prepare must still win. *)
          remember_abort tx;
          (abort_reply tx, tiny_cost)
        in
        {
          instance with
          Pbft.Service.execute =
            (fun ~op ~client ~timestamp ~nondet ~readonly ->
              match decode_op op with
              | Some _ when readonly ->
                (* Phase transitions must be agreed; a fast-path 2PC op
                   would run at each replica independently. *)
                ("error:2pc-requires-ordering", tiny_cost)
              | Some (Prepare { tx; deadline; shards; script }) ->
                expire_if_due ~timestamp;
                do_prepare ~tx ~deadline ~shards ~script ~client ~timestamp ~nondet
              | Some (Commit { tx; votes }) ->
                expire_if_due ~timestamp;
                do_commit ~tx ~votes
              | Some (Abort { tx; reason = _ }) ->
                expire_if_due ~timestamp;
                do_abort ~tx
              | None ->
                if not readonly then expire_if_due ~timestamp;
                (match !prepared with
                | Some _ -> ("error:shard-busy", tiny_cost)
                | None ->
                  instance.Pbft.Service.execute ~op ~client ~timestamp ~nondet ~readonly));
        });
    classify_readonly =
      (fun op -> (not (is_twopc_op op)) && inner.Pbft.Service.classify_readonly op);
  }
