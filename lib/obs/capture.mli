(** Replayable workload capture: one JSONL record per answered query.

    [secview query --capture] and [secview serve --capture] append one
    record per request; [secview replay] re-executes them (against
    {!Secview.Pipeline} or a live server) and byte-compares each
    answer against the captured [digest].  Schema (version field
    first, so readers can reject future formats cheaply):

    {v
    {"v":2,"rid":S,"verb":"query"|"update","group":S,"doc":S|null,
     "query":S,"bind":{…},"index":B,"engine":"plan"|"interp",
     "status":S,"results":N,"digest":S,"latency_ms":F}
    v}

    Version 1 files (no [verb] field — everything was a query) read
    back fine; the writer always emits version 2.

    For queries, [digest] is the MD5 hex of the rendered result lines
    joined with ["\n"] — the same rendering the CLI prints and the
    server puts in its ["results"] reply field, so a replay digest
    match means the byte-identical answer.  For updates, [query] holds
    the update's concrete syntax, [results] the target count, and
    [digest] the MD5 hex of the {e resulting document}'s serialization
    — a replay digest match means the replayed write produced the
    byte-identical document version. *)

type record = {
  c_rid : string;
  c_verb : string;  (** ["query"] or ["update"] *)
  c_group : string;
  c_doc : string option;  (** catalog doc name; [None] = requester default *)
  c_query : string;  (** query text, or the update's concrete syntax *)
  c_bind : (string * string) list;
  c_index : bool;
  c_engine : string;
  c_status : string;  (** ["ok"] or ["denied_empty"] *)
  c_results : int;
  c_digest : string;
  c_latency_ms : float;
}

val digest : string list -> string
(** MD5 hex of the rendered result lines, joined with ["\n"]. *)

val to_json : record -> Json.t
val of_json : Json.t -> (record, string) result

val of_request : Request.t -> record option
(** The replay record of a request: [None] unless it has a
    {!Request.t.digest} — only answered queries (fast-path denials
    included) and admitted writes are replayable; a failed query or a
    refused write changed nothing.  The status is ["ok"] or
    ["denied_empty"] (a late answer is still the answer). *)

(** {2 Writing} *)

type t
(** A capture sink: an open file plus a mutex serializing concurrent
    server workers.  Every record is flushed on write. *)

val open_file : string -> t
(** Opens in append mode (creating the file if needed), so several
    process runs pointed at the same path build one workload — the
    way a mixed read/write capture is assembled from the CLI. *)

val write : t -> record -> unit
val close : t -> unit

(** {2 Reading} *)

val read_file : string -> (record list, string) result
(** Parse a capture file; the error carries [file:line]. *)
