(** A string-keyed memo table that domains may fill concurrently.

    Schema-level tables (a view's [recProc] entries, {!View.recproc})
    live in values shared by every worker domain and are filled on
    first use.  The table is an immutable map behind an
    [Atomic]: readers take no lock, and a fill publishes a new map by
    compare-and-set.  Two domains racing on one key both compute it;
    the first publication wins and both callers get the winner, so a
    table's contents never depend on who raced.  [compute] must be
    deterministic. *)

type 'a t

val create : unit -> 'a t

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a
(** The value stored for the key, computing and publishing it first if
    there is none. *)

val length : 'a t -> int
(** Keys filled so far. *)
