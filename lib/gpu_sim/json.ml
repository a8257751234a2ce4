type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* [top]: [v] is the whole document, whose members each start a line. *)
let rec add b ~top v =
  match v with
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f when Float.is_finite f -> Printf.bprintf b "%.6g" f
  | Null | Float _ -> Buffer.add_string b "null"
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Arr xs ->
    let lines = List.for_all (function Obj _ -> true | _ -> false) xs in
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        if lines then Buffer.add_char b '\n';
        add b ~top:false x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_string b (if top then ",\n" else ",");
        add b ~top:false (Str k);
        Buffer.add_char b ':';
        add b ~top:false x)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 4096 in
  add b ~top:true v;
  Buffer.add_char b '\n';
  Buffer.contents b
