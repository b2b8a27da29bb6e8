open Types
module W = Util.Codec.W
module R = Util.Codec.R

type auth =
  | No_auth
  | Signed of string
  | Authenticated of Crypto.Authenticator.t

type request = {
  rq_client : client_id;
  rq_id : int;
  rq_op : string;
  rq_readonly : bool;
  rq_timestamp : float;
}

type batch_item =
  | Full of request
  | Digest_of of { bd_client : client_id; bd_id : int; bd_digest : digest; bd_readonly : bool }

type prepared_info = {
  pi_view : view;
  pi_seq : seqno;
  pi_digest : digest;
  pi_batch : batch_item list;
}

type payload =
  | Request_msg of request
  | Pre_prepare of { pp_view : view; pp_seq : seqno; pp_batch : batch_item list; pp_nondet : string }
  | Prepare of { p_view : view; p_seq : seqno; p_digest : digest; p_replica : replica_id }
  | Commit of { c_view : view; c_seq : seqno; c_digest : digest; c_replica : replica_id }
  | Reply of {
      r_view : view;
      r_client : client_id;
      r_id : int;
      r_replica : replica_id;
      r_result : string;
      r_tentative : bool;
      r_partial : string option;
    }
  | Checkpoint_msg of { ck_seq : seqno; ck_digest : digest; ck_replica : replica_id }
  | View_change of {
      vc_new_view : view;
      vc_stable_seq : seqno;
      vc_stable_digest : digest;
      vc_prepared : prepared_info list;
      vc_replica : replica_id;
    }
  | New_view of {
      nv_view : view;
      nv_view_change_digests : (replica_id * digest) list;
      nv_pre_prepares : (seqno * batch_item list) list;
    }
  | Session_key of { sk_sender : int; sk_target : replica_id; sk_key_box : string }
  | Join_request of { j_addr : int; j_pubkey : string; j_nonce : string }
  | Join_challenge of { jc_replica : replica_id; jc_addr : int; jc_nonce : string }
  | Join_response of { jr_addr : int; jr_proof : string; jr_pubkey : string; jr_idbuf : string }
  | Join_reply of { jl_replica : replica_id; jl_client : client_id; jl_ok : bool }
  | Leave_msg of { lv_client : client_id }
  | Fetch_meta of { fm_seq : seqno; fm_replica : replica_id }
  | State_meta of { sm_seq : seqno; sm_replica : replica_id; sm_leaves : digest list }
  | Fetch_pages of { fp_seq : seqno; fp_pages : int list; fp_replica : replica_id }
  | State_pages of { sp_seq : seqno; sp_replica : replica_id; sp_pages : (int * string) list }
  | Fetch_body of { fb_digest : digest; fb_replica : replica_id }
  | Body of { b_request : request }
  | Fetch_entry of { fe_seq : seqno; fe_replica : replica_id }
  | Entry of { en_seq : seqno; en_view : view; en_batch : batch_item list; en_nondet : string }
  | Status of { st_replica : replica_id; st_view : view; st_last_exec : seqno }
  | Key_request of { kq_replica : replica_id }

type t = { payload : payload; auth : auth }

(* --- request --- *)

let enc_request w r =
  W.varint w r.rq_client;
  W.varint w r.rq_id;
  W.lstring w r.rq_op;
  W.bool w r.rq_readonly;
  W.f64 w r.rq_timestamp

let dec_request r =
  let rq_client = R.varint r in
  let rq_id = R.varint r in
  let rq_op = R.lstring r in
  let rq_readonly = R.bool r in
  let rq_timestamp = R.f64 r in
  { rq_client; rq_id; rq_op; rq_readonly; rq_timestamp }

let enc_batch_item w = function
  | Full rq ->
    W.u8 w 0;
    enc_request w rq
  | Digest_of d ->
    W.u8 w 1;
    W.varint w d.bd_client;
    W.varint w d.bd_id;
    W.lstring w d.bd_digest;
    W.bool w d.bd_readonly

let dec_batch_item r =
  match R.u8 r with
  | 0 -> Full (dec_request r)
  | 1 ->
    let bd_client = R.varint r in
    let bd_id = R.varint r in
    let bd_digest = R.lstring r in
    let bd_readonly = R.bool r in
    Digest_of { bd_client; bd_id; bd_digest; bd_readonly }
  | _ -> raise R.Truncated

let enc_prepared_info w pi =
  W.varint w pi.pi_view;
  W.varint w pi.pi_seq;
  W.lstring w pi.pi_digest;
  W.list w enc_batch_item pi.pi_batch

let dec_prepared_info r =
  let pi_view = R.varint r in
  let pi_seq = R.varint r in
  let pi_digest = R.lstring r in
  let pi_batch = R.list r dec_batch_item in
  { pi_view; pi_seq; pi_digest; pi_batch }

(* --- payload --- *)

let enc_payload w = function
  | Request_msg rq ->
    W.u8 w 1;
    enc_request w rq
  | Pre_prepare p ->
    W.u8 w 2;
    W.varint w p.pp_view;
    W.varint w p.pp_seq;
    W.list w enc_batch_item p.pp_batch;
    W.lstring w p.pp_nondet
  | Prepare p ->
    W.u8 w 3;
    W.varint w p.p_view;
    W.varint w p.p_seq;
    W.lstring w p.p_digest;
    W.varint w p.p_replica
  | Commit c ->
    W.u8 w 4;
    W.varint w c.c_view;
    W.varint w c.c_seq;
    W.lstring w c.c_digest;
    W.varint w c.c_replica
  | Reply rp ->
    W.u8 w 5;
    W.varint w rp.r_view;
    W.varint w rp.r_client;
    W.varint w rp.r_id;
    W.varint w rp.r_replica;
    W.lstring w rp.r_result;
    W.bool w rp.r_tentative;
    W.option w W.lstring rp.r_partial
  | Checkpoint_msg c ->
    W.u8 w 6;
    W.varint w c.ck_seq;
    W.lstring w c.ck_digest;
    W.varint w c.ck_replica
  | View_change vc ->
    W.u8 w 7;
    W.varint w vc.vc_new_view;
    W.varint w vc.vc_stable_seq;
    W.lstring w vc.vc_stable_digest;
    W.list w enc_prepared_info vc.vc_prepared;
    W.varint w vc.vc_replica
  | New_view nv ->
    W.u8 w 8;
    W.varint w nv.nv_view;
    W.list w
      (fun w (id, d) ->
        W.varint w id;
        W.lstring w d)
      nv.nv_view_change_digests;
    W.list w
      (fun w (seq, batch) ->
        W.varint w seq;
        W.list w enc_batch_item batch)
      nv.nv_pre_prepares
  | Session_key sk ->
    W.u8 w 9;
    W.varint w sk.sk_sender;
    W.varint w sk.sk_target;
    W.lstring w sk.sk_key_box
  | Join_request j ->
    W.u8 w 10;
    W.varint w j.j_addr;
    W.lstring w j.j_pubkey;
    W.lstring w j.j_nonce
  | Join_challenge jc ->
    W.u8 w 11;
    W.varint w jc.jc_replica;
    W.varint w jc.jc_addr;
    W.lstring w jc.jc_nonce
  | Join_response jr ->
    W.u8 w 12;
    W.varint w jr.jr_addr;
    W.lstring w jr.jr_proof;
    W.lstring w jr.jr_pubkey;
    W.lstring w jr.jr_idbuf
  | Join_reply jl ->
    W.u8 w 13;
    W.varint w jl.jl_replica;
    W.varint w jl.jl_client;
    W.bool w jl.jl_ok
  | Leave_msg l ->
    W.u8 w 14;
    W.varint w l.lv_client
  | Fetch_meta f ->
    W.u8 w 15;
    W.varint w f.fm_seq;
    W.varint w f.fm_replica
  | State_meta s ->
    W.u8 w 16;
    W.varint w s.sm_seq;
    W.varint w s.sm_replica;
    W.list w W.lstring s.sm_leaves
  | Fetch_pages f ->
    W.u8 w 17;
    W.varint w f.fp_seq;
    W.list w W.varint f.fp_pages;
    W.varint w f.fp_replica
  | State_pages s ->
    W.u8 w 18;
    W.varint w s.sp_seq;
    W.varint w s.sp_replica;
    W.list w
      (fun w (i, p) ->
        W.varint w i;
        W.lstring w p)
      s.sp_pages
  | Fetch_body f ->
    W.u8 w 19;
    W.lstring w f.fb_digest;
    W.varint w f.fb_replica
  | Body b ->
    W.u8 w 20;
    enc_request w b.b_request
  | Fetch_entry f ->
    W.u8 w 21;
    W.varint w f.fe_seq;
    W.varint w f.fe_replica
  | Entry e ->
    W.u8 w 22;
    W.varint w e.en_seq;
    W.varint w e.en_view;
    W.list w enc_batch_item e.en_batch;
    W.lstring w e.en_nondet
  | Status st ->
    W.u8 w 23;
    W.varint w st.st_replica;
    W.varint w st.st_view;
    W.varint w st.st_last_exec
  | Key_request kq ->
    W.u8 w 24;
    W.varint w kq.kq_replica

let dec_payload r =
  match R.u8 r with
  | 1 -> Request_msg (dec_request r)
  | 2 ->
    let pp_view = R.varint r in
    let pp_seq = R.varint r in
    let pp_batch = R.list r dec_batch_item in
    let pp_nondet = R.lstring r in
    Pre_prepare { pp_view; pp_seq; pp_batch; pp_nondet }
  | 3 ->
    let p_view = R.varint r in
    let p_seq = R.varint r in
    let p_digest = R.lstring r in
    let p_replica = R.varint r in
    Prepare { p_view; p_seq; p_digest; p_replica }
  | 4 ->
    let c_view = R.varint r in
    let c_seq = R.varint r in
    let c_digest = R.lstring r in
    let c_replica = R.varint r in
    Commit { c_view; c_seq; c_digest; c_replica }
  | 5 ->
    let r_view = R.varint r in
    let r_client = R.varint r in
    let r_id = R.varint r in
    let r_replica = R.varint r in
    let r_result = R.lstring r in
    let r_tentative = R.bool r in
    let r_partial = R.option r R.lstring in
    Reply { r_view; r_client; r_id; r_replica; r_result; r_tentative; r_partial }
  | 6 ->
    let ck_seq = R.varint r in
    let ck_digest = R.lstring r in
    let ck_replica = R.varint r in
    Checkpoint_msg { ck_seq; ck_digest; ck_replica }
  | 7 ->
    let vc_new_view = R.varint r in
    let vc_stable_seq = R.varint r in
    let vc_stable_digest = R.lstring r in
    let vc_prepared = R.list r dec_prepared_info in
    let vc_replica = R.varint r in
    View_change { vc_new_view; vc_stable_seq; vc_stable_digest; vc_prepared; vc_replica }
  | 8 ->
    let nv_view = R.varint r in
    let nv_view_change_digests =
      R.list r (fun r ->
          let id = R.varint r in
          let d = R.lstring r in
          (id, d))
    in
    let nv_pre_prepares =
      R.list r (fun r ->
          let seq = R.varint r in
          let batch = R.list r dec_batch_item in
          (seq, batch))
    in
    New_view { nv_view; nv_view_change_digests; nv_pre_prepares }
  | 9 ->
    let sk_sender = R.varint r in
    let sk_target = R.varint r in
    let sk_key_box = R.lstring r in
    Session_key { sk_sender; sk_target; sk_key_box }
  | 10 ->
    let j_addr = R.varint r in
    let j_pubkey = R.lstring r in
    let j_nonce = R.lstring r in
    Join_request { j_addr; j_pubkey; j_nonce }
  | 11 ->
    let jc_replica = R.varint r in
    let jc_addr = R.varint r in
    let jc_nonce = R.lstring r in
    Join_challenge { jc_replica; jc_addr; jc_nonce }
  | 12 ->
    let jr_addr = R.varint r in
    let jr_proof = R.lstring r in
    let jr_pubkey = R.lstring r in
    let jr_idbuf = R.lstring r in
    Join_response { jr_addr; jr_proof; jr_pubkey; jr_idbuf }
  | 13 ->
    let jl_replica = R.varint r in
    let jl_client = R.varint r in
    let jl_ok = R.bool r in
    Join_reply { jl_replica; jl_client; jl_ok }
  | 14 -> Leave_msg { lv_client = R.varint r }
  | 15 ->
    let fm_seq = R.varint r in
    let fm_replica = R.varint r in
    Fetch_meta { fm_seq; fm_replica }
  | 16 ->
    let sm_seq = R.varint r in
    let sm_replica = R.varint r in
    let sm_leaves = R.list r R.lstring in
    State_meta { sm_seq; sm_replica; sm_leaves }
  | 17 ->
    let fp_seq = R.varint r in
    let fp_pages = R.list r R.varint in
    let fp_replica = R.varint r in
    Fetch_pages { fp_seq; fp_pages; fp_replica }
  | 18 ->
    let sp_seq = R.varint r in
    let sp_replica = R.varint r in
    let sp_pages =
      R.list r (fun r ->
          let i = R.varint r in
          let p = R.lstring r in
          (i, p))
    in
    State_pages { sp_seq; sp_replica; sp_pages }
  | 19 ->
    let fb_digest = R.lstring r in
    let fb_replica = R.varint r in
    Fetch_body { fb_digest; fb_replica }
  | 20 -> Body { b_request = dec_request r }
  | 21 ->
    let fe_seq = R.varint r in
    let fe_replica = R.varint r in
    Fetch_entry { fe_seq; fe_replica }
  | 22 ->
    let en_seq = R.varint r in
    let en_view = R.varint r in
    let en_batch = R.list r dec_batch_item in
    let en_nondet = R.lstring r in
    Entry { en_seq; en_view; en_batch; en_nondet }
  | 23 ->
    let st_replica = R.varint r in
    let st_view = R.varint r in
    let st_last_exec = R.varint r in
    Status { st_replica; st_view; st_last_exec }
  | 24 -> Key_request { kq_replica = R.varint r }
  | _ -> raise R.Truncated

let enc_auth w = function
  | No_auth -> W.u8 w 0
  | Signed s ->
    W.u8 w 1;
    W.lstring w s
  | Authenticated a ->
    W.u8 w 2;
    Crypto.Authenticator.encode w a

let dec_auth r =
  match R.u8 r with
  | 0 -> No_auth
  | 1 -> Signed (R.lstring r)
  | 2 -> Authenticated (Crypto.Authenticator.decode r)
  | _ -> raise R.Truncated

let payload_bytes p = Util.Codec.encode enc_payload p

let encode_wire ~payload_bytes:pb auth =
  let w = W.create ~capacity:(String.length pb + 96) () in
  W.lstring w pb;
  enc_auth w auth;
  W.contents w

let encode t = encode_wire ~payload_bytes:(payload_bytes t.payload) t.auth

type framed = { msg : t; payload_bytes : string; mac_keys : (int * Crypto.Mac.key) list }
type Simnet.Net.note += Framed of framed

let decode_framed s =
  match
    Util.Codec.decode
      (fun r ->
        let pb = R.lstring r in
        let auth = dec_auth r in
        let payload = Util.Codec.decode dec_payload pb in
        { msg = { payload; auth }; payload_bytes = pb; mac_keys = [] })
      s
  with
  | f -> Some f
  | exception R.Truncated -> None

let decode s = Option.map (fun f -> f.msg) (decode_framed s)

(* The sender's note, when the net delivered its exact bytes: a multicast
   then costs one encode and no decode at all, and every receiver shares
   the sender's message, request records included, which keeps
   [request_digest] below hitting across nodes. *)
let received net wire =
  match Simnet.Net.note net with
  | Some (Framed f) -> Some f
  | Some _ | None -> decode_framed wire

let digest_of_payload p = Crypto.Sha256.digest (payload_bytes p)

(* request → digest, direct-mapped on (client, id) and confirmed by
   physical equality. The same request body is digested at ≥6 sites per
   request lifetime (batching, pre-prepare handling, entry replay); the
   receivers of a noted datagram share the sender's physical record, so
   they hash it once between them. Every entry is a pure
   function of its request, so a hit returns what a fresh computation
   would, whatever ran before in the process. Single-domain. *)
let rq_digest_slots = 4096
let rq_digest_cache : (request * digest) option array = Array.make rq_digest_slots None

let request_digest rq =
  let idx = ((rq.rq_client * 0x9e3779b1) lxor rq.rq_id) land (rq_digest_slots - 1) in
  match Array.unsafe_get rq_digest_cache idx with
  (* Pointer equality on purpose: a miss on an equal-but-distinct request
     record only costs a recompute of the same digest. *)
  | Some (r, d) when ((r == rq) [@detlint.allow physical_eq]) -> d
  | _ ->
    let d = Crypto.Sha256.digest ("req|" ^ Util.Codec.encode enc_request rq) in
    Array.unsafe_set rq_digest_cache idx (Some (rq, d));
    d

let batch_item_digest = function
  | Full rq -> request_digest rq
  | Digest_of d -> d.bd_digest

let batch_item_client_id = function
  | Full rq -> (rq.rq_client, rq.rq_id)
  | Digest_of d -> (d.bd_client, d.bd_id)

let batch_digest items =
  Crypto.Sha256.digest ("batch|" ^ String.concat "" (List.map batch_item_digest items))

let label = function
  | Request_msg _ -> "request"
  | Pre_prepare _ -> "pre-prepare"
  | Prepare _ -> "prepare"
  | Commit _ -> "commit"
  | Reply _ -> "reply"
  | Checkpoint_msg _ -> "checkpoint"
  | View_change _ -> "view-change"
  | New_view _ -> "new-view"
  | Session_key _ -> "session-key"
  | Join_request _ -> "join-request"
  | Join_challenge _ -> "join-challenge"
  | Join_response _ -> "join-response"
  | Join_reply _ -> "join-reply"
  | Leave_msg _ -> "leave"
  | Fetch_meta _ -> "fetch-meta"
  | State_meta _ -> "state-meta"
  | Fetch_pages _ -> "fetch-pages"
  | State_pages _ -> "state-pages"
  | Fetch_body _ -> "fetch-body"
  | Body _ -> "body"
  | Fetch_entry _ -> "fetch-entry"
  | Entry _ -> "entry"
  | Status _ -> "status"
  | Key_request _ -> "key-request"

let describe = function
  | Request_msg rq -> Printf.sprintf "client=%d id=%d%s" rq.rq_client rq.rq_id
                        (if rq.rq_readonly then " ro" else "")
  | Pre_prepare p -> Printf.sprintf "v=%d n=%d batch=%d" p.pp_view p.pp_seq (List.length p.pp_batch)
  | Prepare p -> Printf.sprintf "v=%d n=%d from=%d" p.p_view p.p_seq p.p_replica
  | Commit c -> Printf.sprintf "v=%d n=%d from=%d" c.c_view c.c_seq c.c_replica
  | Reply rp ->
    Printf.sprintf "client=%d id=%d from=%d%s" rp.r_client rp.r_id rp.r_replica
      (if rp.r_tentative then " tentative" else "")
  | Checkpoint_msg c -> Printf.sprintf "n=%d from=%d" c.ck_seq c.ck_replica
  | View_change vc -> Printf.sprintf "to-view=%d stable=%d from=%d" vc.vc_new_view vc.vc_stable_seq vc.vc_replica
  | New_view nv -> Printf.sprintf "v=%d repropose=%d" nv.nv_view (List.length nv.nv_pre_prepares)
  | Session_key sk -> Printf.sprintf "sender=%d target=%d" sk.sk_sender sk.sk_target
  | Join_request j -> Printf.sprintf "addr=%d" j.j_addr
  | Join_challenge jc -> Printf.sprintf "from=%d addr=%d" jc.jc_replica jc.jc_addr
  | Join_response jr -> Printf.sprintf "addr=%d" jr.jr_addr
  | Join_reply jl -> Printf.sprintf "from=%d client=%d ok=%b" jl.jl_replica jl.jl_client jl.jl_ok
  | Leave_msg l -> Printf.sprintf "client=%d" l.lv_client
  | Fetch_meta f -> Printf.sprintf "n=%d from=%d" f.fm_seq f.fm_replica
  | State_meta s -> Printf.sprintf "n=%d leaves=%d" s.sm_seq (List.length s.sm_leaves)
  | Fetch_pages f -> Printf.sprintf "n=%d pages=%d" f.fp_seq (List.length f.fp_pages)
  | State_pages s -> Printf.sprintf "n=%d pages=%d" s.sp_seq (List.length s.sp_pages)
  | Fetch_body f -> Printf.sprintf "digest=%s from=%d" (Util.Hexdump.short f.fb_digest) f.fb_replica
  | Body b -> Printf.sprintf "client=%d id=%d" b.b_request.rq_client b.b_request.rq_id
  | Fetch_entry f -> Printf.sprintf "n=%d from=%d" f.fe_seq f.fe_replica
  | Entry e -> Printf.sprintf "n=%d v=%d batch=%d" e.en_seq e.en_view (List.length e.en_batch)
  | Status st -> Printf.sprintf "from=%d v=%d le=%d" st.st_replica st.st_view st.st_last_exec
  | Key_request kq -> Printf.sprintf "from=%d" kq.kq_replica
