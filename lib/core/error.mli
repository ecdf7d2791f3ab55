(** The engine's typed error vocabulary.

    Every way a secure-query request can fail — at the library, CLI or
    server layer — is one constructor here, so the mapping onto wire
    error codes ({!to_code}, the closed vocabulary of
    [Sserver.Protocol]) and process exit codes ({!exit_code}) lives in
    one place instead of scattered [try … with] clauses.
    {!Pipeline.Session.answer} returns [(_, t) result]; layers above wrap or
    rethrow as {!E}. *)

type t =
  | Parse_error of {
      position : int;
      message : string;
    }  (** query text did not parse (byte offset, reason) *)
  | Unbound_variable of string
      (** a [$var] the environment does not bind was evaluated *)
  | Unknown_group of {
      group : string;
      known : string list;
    }  (** no such user group; [known] lists the configured ones *)
  | Unknown_doc of {
      doc : string option;
      known : string list;
    }
      (** no such catalog document ([doc = None]: the request named
          none and the catalog holds several) *)
  | Unsupported of string
      (** the view/query combination is outside the supported
          fragment (e.g. recursive view without a height) *)
  | Update_denied of string
      (** an update's target set escapes the group's accessible
          region, or the group holds no write grant for the edge —
          rejected atomically, nothing applied *)
  | Invalid_update of string
      (** the update is malformed independent of policy: target
          matches nothing, content violates the DTD, root deletion *)
  | Timeout of string  (** a deadline cut the evaluation off *)
  | Overloaded of string  (** admission queue full — try again *)
  | Draining  (** server is shutting down *)
  | No_session  (** protocol: query before [hello] *)
  | Bad_request of string  (** protocol: malformed request *)
  | Internal of string  (** anything else, pre-rendered *)

exception E of t
(** For layers that want exceptions; registered with
    [Printexc.register_printer]. *)

val to_string : t -> string
(** Human-readable message (no code prefix). *)

val to_code : t -> string
(** The wire error code, matching the [Sserver.Protocol] constants
    ([query_error], [update_denied], [invalid_update],
    [unknown_group], [unknown_document], [timeout], [overloaded],
    [draining], [no_session], [bad_request]). *)

val exit_code : t -> int
(** CLI exit status: 3 for {!Timeout}, 2 otherwise. *)

val parse_query : string -> (Sxpath.Ast.path, t) result
(** Query text parsed, or {!Parse_error} with the parser's byte offset
    and reason: the one way every surface (CLI verbs, server requests)
    reports a malformed query. *)
