(** A minimal JSON value, serializer and parser.

    Just enough for the metrics dump, the bench results file, the
    audit log and the server's line-delimited protocol — no
    dependency.  Serialization is deterministic: object fields are
    emitted in construction order.  An integral float below [1e15]
    prints without a fraction (["%.0f"]), which keeps golden tests and
    diffs stable; any other float prints with the fewest of 15, 16 or
    17 significant digits (["%.15g"], ["%.16g"], ["%.17g"]) that read
    back to the same float, so a span timestamp in microseconds since
    boot keeps its sub-microsecond digits.  The parser accepts
    standard JSON: numbers without a fraction or exponent that fit in
    [int] become [Int], everything else numeric becomes [Float]; [\u]
    escapes (including surrogate pairs) decode to UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering with full string escaping. *)

val to_buffer : Buffer.t -> t -> unit
(** {!to_string}'s text, appended to the buffer. *)

val to_channel : out_channel -> t -> unit

val of_string : string -> (t, string) result
(** Parse one complete JSON value (leading/trailing whitespace
    allowed; anything else after the value is an error).  The error
    string carries the byte offset.  Arrays and objects nest at most
    512 deep: a deeper opening bracket is an error at its offset
    (["at offset N: nesting deeper than 512"]), so a hostile line
    costs neither deep recursion nor memory.  Strings are copied a run
    at a time — one [String.sub] for a string without escapes — and
    the input is read in place, without an allocation per
    character. *)

(** {1 Accessors}

    Structure-probing helpers for protocol decoding; all total. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val to_string_opt : t -> string option
val to_int_opt : t -> int option

val to_float_opt : t -> float option
(** [Int]s widen to float. *)

val to_bool_opt : t -> bool option
