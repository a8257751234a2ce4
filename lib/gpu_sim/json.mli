(** JSON documents: the one writer behind every machine-readable output
    (profiler reports, Chrome traces, search trajectories, serving
    metrics and the [BENCH_*.json] files).

    Emitters build a {!t} and call {!to_string}; every format decision
    — escaping, number format, non-finite handling, line layout — is
    made here and nowhere else. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members print in list order *)

(** [to_string v] — [v] as JSON text, ending in a newline.
    - Floats print as [%.6g]; [nan] and the infinities print as [null].
    - Strings escape the double quote, the backslash, newline, tab and
      carriage return, and every other control character as [\u00XX].
    - Layout: each member of the top-level object (the first one right
      after the opening brace), and each element of an array whose
      elements are all objects, starts a line; everything else is
      compact. *)
val to_string : t -> string
