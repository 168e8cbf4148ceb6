(** The repo's one JSON codec. The wire protocol ([Pmw_server.Protocol]),
    the write-ahead journal and epoch snapshots, the trace reader
    ({!Trace.load}), the JSONL trace sink ({!Telemetry.event_to_json}) and
    the metrics snapshot ({!Metrics.to_json}) all print and parse through
    it, so the rules below hold for every JSON byte the system writes:

    - {b Floats}: finite values print as [%.17g], which round-trips every
      double; NaN and ±∞, which JSON cannot spell, print as the strings
      ["nan"], ["inf"] and ["-inf"], and {!to_float} maps them back.
    - {b Integers} travel as JSON numbers, i.e. doubles, so only the range
      [±2^53] is exact. {!to_int} accepts a number that is integral and
      within that range, and nothing else.
    - {b Strings}: the double quote, the backslash and the control bytes
      are escaped ([\n], [\r], [\t], otherwise [\u00XX]); every other
      byte is written as is. The parser accepts the full JSON escape set,
      [\b \f \/ \uXXXX] included (surrogate pairs decode to UTF-8), and
      rejects any other escape.

    The parser never raises: any input, valid or not, maps to [Ok] or a
    structured [Error]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** {1 Printing} *)

val to_string : t -> string
(** Compact and single-line: no whitespace between tokens. *)

val escape_into : Buffer.t -> string -> unit
(** The string escape table, without the surrounding quotes — for writers
    that stream a known layout straight into a buffer. *)

val add_string : Buffer.t -> string -> unit
(** A quoted, escaped JSON string. *)

val num_to_string : float -> string
(** The float rule: [%.17g], or a quoted ["nan"] / ["inf"] / ["-inf"]. *)

(** {1 Parsing} *)

val of_string : string -> (t, string) result
(** Whole-string parse: trailing non-whitespace bytes are an error. *)

(** {1 Reading values} *)

val to_float : t -> float option
(** A number, or one of the strings ["nan"], ["inf"], ["-inf"]. *)

val to_int : t -> int option
(** A number that is integral and within [±2^53]. *)

val to_str : t -> string option

val field : (string * t) list -> string -> (t -> 'a option) -> 'a option
(** [field fields name read]: the object field [name], when present and
    readable by [read]. *)

val to_list : (t -> 'a option) -> t -> 'a list option
(** [to_list elt (Arr items)] when [elt] reads every item; [None] for any
    other value or any unreadable item. *)
