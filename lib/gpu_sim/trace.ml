type event =
  { name : string
  ; cat : string
  ; ph : char  (* 'X' complete, 'i' instant *)
  ; ts : int
  ; dur : int  (* meaningful for 'X' only *)
  ; pid : int
  ; tid : int
  ; args : (string * Json.t) list
  }

type t =
  { mutable clock : int
  ; mutable events : event list  (* newest first *)
  ; mutable count : int
  }

let create () = { clock = 0; events = []; count = 0 }
let now t = t.clock
let num_events t = t.count

let push t e =
  t.events <- e :: t.events;
  t.count <- t.count + 1

let complete t ~name ~cat ~pid ~tid ~dur ?(args = []) () =
  push t { name; cat; ph = 'X'; ts = t.clock; dur; pid; tid; args };
  t.clock <- t.clock + dur

let instant t ~name ~cat ~pid ~tid ?(args = []) () =
  push t { name; cat; ph = 'i'; ts = t.clock; dur = 0; pid; tid; args }

(* Deterministic parallel merge: [src] recorded a contiguous block range
   that sequentially follows everything already in [dst], so shifting
   [src]'s virtual timestamps by [dst]'s final clock and appending
   reproduces the single-domain trace byte for byte. *)
let merge_into dst src =
  let shift = dst.clock in
  List.iter
    (fun e -> push dst { e with ts = e.ts + shift })
    (List.rev src.events);
  dst.clock <- shift + src.clock

let event_json e =
  let opt cond kv = if cond then [ kv ] else [] in
  Json.Obj
    ([ ("name", Json.Str e.name)
     ; ("cat", Json.Str e.cat)
     ; ("ph", Json.Str (String.make 1 e.ph))
     ; ("ts", Json.Int e.ts)
     ]
    @ opt (e.ph = 'X') ("dur", Json.Int e.dur)
    @ opt (e.ph = 'i') ("s", Json.Str "t")
    @ [ ("pid", Json.Int e.pid); ("tid", Json.Int e.tid) ]
    @ opt (e.args <> []) ("args", Json.Obj e.args))

(* Metadata records naming each block (process) and warp lane (thread),
   so the trace UI shows "block 0 / warp 1" instead of bare ids. *)
let metadata_events events =
  let pids = Hashtbl.create 8 and lanes = Hashtbl.create 8 in
  List.iter
    (fun e ->
      Hashtbl.replace pids e.pid ();
      Hashtbl.replace lanes (e.pid, e.tid) ())
    events;
  let sorted_pids = List.sort compare (Hashtbl.fold (fun k () a -> k :: a) pids []) in
  let sorted_lanes = List.sort compare (Hashtbl.fold (fun k () a -> k :: a) lanes []) in
  List.map
    (fun pid ->
      { name = "process_name"
      ; cat = "__metadata"
      ; ph = 'M'
      ; ts = 0
      ; dur = 0
      ; pid
      ; tid = 0
      ; args = [ ("name", Json.Str (Printf.sprintf "block %d" pid)) ]
      })
    sorted_pids
  @ List.map
      (fun (pid, tid) ->
        { name = "thread_name"
        ; cat = "__metadata"
        ; ph = 'M'
        ; ts = 0
        ; dur = 0
        ; pid
        ; tid
        ; args = [ ("name", Json.Str (Printf.sprintf "warp %d" tid)) ]
        })
      sorted_lanes

let to_chrome_string t =
  let events = List.rev t.events in
  Json.to_string
    (Json.Obj
       [ ("displayTimeUnit", Json.Str "ns")
       ; ( "traceEvents"
         , Json.Arr (List.map event_json (metadata_events events @ events)) )
       ])
