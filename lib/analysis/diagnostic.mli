(** Diagnostics for the static-analysis layer.

    A diagnostic is a stable code (["SV001"], …), a severity, a
    subject locating it in the policy/view/query it was found in, and
    a human message.  Codes are contracts: tests and downstream
    tooling match on them, so a code is never reused for a different
    condition.  See DESIGN.md, "Static analysis layer", for the code
    registry. *)

type severity =
  | Error  (** the artifact is broken; the CLI exits non-zero *)
  | Warning  (** almost certainly a mistake, but nothing will crash *)
  | Info  (** a fact worth knowing; often an intentional pattern *)

type subject =
  | Annotation of string * string
      (** a policy annotation [ann(parent, child)] *)
  | Element of string  (** an element type of a DTD *)
  | Sigma of string * string  (** a view annotation [σ(parent, child)] *)
  | Query of string  (** a query, by name or by its printed form *)
  | Groups of string * string
      (** a pair of user groups, for cross-group comparisons *)
  | General

type t = {
  code : string;
  severity : severity;
  subject : subject;
  message : string;
}

val make : code:string -> severity:severity -> ?subject:subject -> string -> t

val severity_label : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val subject_label : subject -> string
(** [ann(a, b)], [element a], [sigma(a, b)], [query q],
    [groups(a, b)], or [""]. *)

val errors : t list -> t list
val has_errors : t list -> bool

val by_severity : t list -> t list
(** Stable sort, most severe first. *)

val pp : Format.formatter -> t -> unit
(** Human rendering: [error\[SV002\] ann(a, b): message]. *)

val to_line : t -> string
(** Machine rendering, one record per line, tab-separated:
    [CODE<TAB>SEVERITY<TAB>SUBJECT<TAB>MESSAGE] — stable for scripts
    and CI annotations. *)

val pp_report : Format.formatter -> t list -> unit
(** All diagnostics (most severe first) followed by a summary line;
    prints nothing for an empty list. *)
