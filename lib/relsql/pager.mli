(** Page cache and transaction manager over the VFS.

    The database file is an array of 4096-byte pages. Page 0 is the
    header (magic, page count, freelist head, catalog root). All reads
    and writes go through the cache; the first modification of a page
    inside a transaction journals its original image, giving SQLite-style
    rollback-journal ACID (§3.2). Each original is kept once: with a
    journal it lives only in the journal file, appended from the page
    view, and {!rollback} replays the file as crash recovery does;
    without one (no-ACID mode) it is copied into memory for {!rollback},
    writes land directly and only crash consistency is lost — the
    configuration the paper's §4.2 compares against. *)

type t

exception Corrupt of string

val page_size : int
(** 4096 bytes. *)

val open_pager : Vfs.t -> t
(** Opens (creating/initializing if empty) and — if a hot journal is
    present — runs crash recovery by rolling the journal back. *)

val read_page : t -> int -> string
(** A private copy of the page image (pages past the end of the file read
    as zeros). Records an application page touch. *)

val view_page : t -> int -> string
(** The page image borrowed from the VFS ([Vfs.file.view]): no copy when
    the file is the PBFT state region. Touches the page exactly like
    {!read_page}. The view is valid only until the next {!write_page},
    {!allocate_page}, {!free_page}, {!commit} or {!rollback}; read it
    and drop it, copying out anything that must outlive that. *)

val view_page_quiet : t -> int -> string
(** Like {!view_page} but without recording an application page touch —
    for callers that inspect a page and only sometimes do real work with
    it (charge it explicitly with {!touch_page} when they do). *)

val touch_page : t -> int -> unit
(** Record an application page touch for accounting (idempotent within a
    counter window). *)

val write_page : t -> int -> string -> unit
(** Must be inside a transaction. *)

val allocate_page : t -> int
(** Fresh page number (reuses freed pages). Must be inside a transaction.
    Header changes (page count / freelist / catalog root) are deferred:
    one header image is written at {!commit}, not per allocation. *)

val free_page : t -> int -> unit
val page_count : t -> int

val catalog_root : t -> int
val set_catalog_root : t -> int -> unit

val begin_txn : t -> unit
val in_txn : t -> bool
val commit : t -> unit
(** Deferred header write (if any), journal sync, page write-back, main
    sync, journal reset. *)

val rollback : t -> unit
(** Restores every page written in the transaction to its original:
    from the journal file, or from memory in no-ACID mode; then resets
    the journal. *)

val refresh : t -> unit
(** Re-read the header from the file — required after an external agent
    (PBFT state transfer) rewrites the underlying region. Must be called
    outside any transaction. *)

val pages_touched : t -> int
(** Distinct pages read or written since the counter was last taken. *)

val take_pages_touched : t -> int
