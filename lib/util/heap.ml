type 'a entry = { prio : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { data = [||]; len = 0; next_seq = 0 }
let size t = t.len

let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow t e =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nd = Array.make ncap e in
    Array.blit t.data 0 nd 0 t.len;
    t.data <- nd
  end

let push t prio value =
  let e = { prio; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  grow t e;
  t.data.(t.len) <- e;
  t.len <- t.len + 1;
  (* Sift up. *)
  let i = ref (t.len - 1) in
  while !i > 0 && less t.data.(!i) t.data.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    let tmp = t.data.(p) in
    t.data.(p) <- t.data.(!i);
    t.data.(!i) <- tmp;
    i := p
  done

let peek t = if t.len = 0 then None else Some (t.data.(0).prio, t.data.(0).value)

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.data.(0) <- t.data.(t.len);
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.len && less t.data.(l) t.data.(!smallest) then smallest := l;
        if r < t.len && less t.data.(r) t.data.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = t.data.(!smallest) in
          t.data.(!smallest) <- t.data.(!i);
          t.data.(!i) <- tmp;
          i := !smallest
        end
      done
    end;
    Some (top.prio, top.value)
  end
