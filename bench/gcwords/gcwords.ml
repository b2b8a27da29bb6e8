(* Words allocated by [f], minor plus straight to the major heap, after
   one warm-up call (which prepares MAC keys, say). [Gc.minor] flushes
   the domain's count of direct major allocations into [Gc.quick_stat];
   without it a block over [Max_young_wosize] reads as free. Read with
   [Gc.minor_words] and [Gc.quick_stat], not [Gc.counters]. *)
let allocated f =
  f ();
  let measure f =
    Gc.minor ();
    let m0 = Gc.minor_words () and s0 = Gc.quick_stat () in
    f ();
    Gc.minor ();
    let s1 = Gc.quick_stat () and m1 = Gc.minor_words () in
    m1 -. m0 +. (s1.major_words -. s1.promoted_words) -. (s0.major_words -. s0.promoted_words)
  in
  measure f -. measure ignore
