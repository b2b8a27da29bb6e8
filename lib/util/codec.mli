(** Binary wire codec.

    All PBFT protocol messages, database pages and journal records are
    serialized through this module so that message sizes — which feed the
    network bandwidth model — are concrete and stable. Integers are
    little-endian fixed width except where [varint] is used. *)

(** {1 Writer} *)

module W : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int64 -> unit
  val int_as_u64 : t -> int -> unit
  val f64 : t -> float -> unit
  val varint : t -> int -> unit
  val bool : t -> bool -> unit

  val string : t -> string -> unit
  (** Raw string contents, no length prefix. *)

  val lstring : t -> string -> unit

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** Varint count followed by each element. *)

  val option : t -> (t -> 'a -> unit) -> 'a option -> unit

  val contents : t -> string

  val contents_padded : t -> int -> string
  (** [contents_padded w n]: the contents followed by zero bytes up to
      [n] bytes in all (one allocation — a page image in one step).
      Raises [Invalid_argument] if the contents are longer than [n]. *)
end

(** {1 Reader} *)

module R : sig
  type t

  exception Truncated
  (** Raised when a read runs past the end of the buffer; a malformed or
      maliciously short message surfaces as this exception and is treated
      by receivers as an authentication failure. *)

  val of_string : string -> t
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int64
  val int_of_u64 : t -> int
  val f64 : t -> float
  val varint : t -> int
  val bool : t -> bool
  val string : t -> int -> string
  val lstring : t -> string

  val skip : t -> int -> unit
  (** Step over [n] bytes without copying them. *)

  val list : t -> (t -> 'a) -> 'a list
  val option : t -> (t -> 'a) -> 'a option
end

val encode : (W.t -> 'a -> unit) -> 'a -> string
(** [encode enc v] runs [enc] on a fresh writer and returns the buffer. *)

val decode : (R.t -> 'a) -> string -> 'a
(** [decode dec s] decodes the full string, raising [R.Truncated] if the
    value does not consume the buffer exactly. *)
