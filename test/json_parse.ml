(* A minimal JSON reader shared by the test suites (the repo has no JSON
   dependency): reads what {!Gpu_sim.Json.to_string} writes back into a
   [Gpu_sim.Json.t], keeping member order. A number with a fraction or an
   exponent reads as [Float], any other as [Int]. *)

module J = Gpu_sim.Json

exception Bad_json of string

let parse (s : string) : J.t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> incr pos; skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n
       && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "bad literal"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        (match peek () with
        | '"' -> Buffer.add_char buf '"'; incr pos
        | '\\' -> Buffer.add_char buf '\\'; incr pos
        | '/' -> Buffer.add_char buf '/'; incr pos
        | 'n' -> Buffer.add_char buf '\n'; incr pos
        | 't' -> Buffer.add_char buf '\t'; incr pos
        | 'r' -> Buffer.add_char buf '\r'; incr pos
        | 'b' -> Buffer.add_char buf '\b'; incr pos
        | 'f' -> Buffer.add_char buf '\012'; incr pos
        | 'u' ->
          let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
          Buffer.add_char buf (Char.chr (code land 0xff));
          pos := !pos + 5
        | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
        go ()
      | c when Char.code c < 0x20 -> fail "unescaped control character"
      | c -> Buffer.add_char buf c; incr pos; go ()
    in
    go ();
    Buffer.contents buf
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then (incr pos; J.Obj [])
      else
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          expect ':';
          let v = parse_value () in
          skip_ws ();
          if peek () = ',' then (incr pos; members ((key, v) :: acc))
          else (expect '}'; List.rev ((key, v) :: acc))
        in
        J.Obj (members [])
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then (incr pos; J.Arr [])
      else
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          if peek () = ',' then (incr pos; elems (v :: acc))
          else (expect ']'; List.rev (v :: acc))
        in
        J.Arr (elems [])
    | '"' -> J.Str (parse_string ())
    | 't' -> literal "true" (J.Bool true)
    | 'f' -> literal "false" (J.Bool false)
    | 'n' -> literal "null" J.Null
    | '-' | '0' .. '9' ->
      let start = !pos in
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && num_char s.[!pos] do incr pos done;
      let lexeme = String.sub s start (!pos - start) in
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lexeme then
        J.Float (float_of_string lexeme)
      else J.Int (int_of_string lexeme)
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

let member key = function
  | J.Obj kvs -> (
    match List.assoc_opt key kvs with
    | Some v -> v
    | None -> raise (Bad_json ("missing key " ^ key)))
  | _ -> raise (Bad_json ("not an object looking up " ^ key))

let has_member key = function
  | J.Obj kvs -> List.mem_assoc key kvs
  | _ -> false

let str_of = function J.Str s -> s | _ -> raise (Bad_json "expected string")

let num_of = function
  | J.Int n -> float_of_int n
  | J.Float f -> f
  | _ -> raise (Bad_json "expected number")

let arr_of = function J.Arr l -> l | _ -> raise (Bad_json "expected array")
