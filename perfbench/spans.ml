(* In-memory span recorder for the traced run.

   A span is one call into a layer, timed from the benchmark's side of
   the public API: name, start, end, the span that encloses it and the
   operation it belongs to.  Spans are kept in memory and written once
   at the end, so recording costs two clock reads and one array store.
   A disabled recorder runs the callee directly. *)

type span = {
  name : string;
  op : int;  (** operation id; spans of one operation share it *)
  parent : int;  (** index of the enclosing span, -1 at the top *)
  start : float;
  stop : float;
}

type t = {
  enabled : bool;
  t0 : float;
  mutable spans : span array;
  mutable n : int;
  mutable stack : int list;
}

let now = Unix.gettimeofday
let dummy = { name = ""; op = -1; parent = -1; start = 0.0; stop = 0.0 }

let create ~enabled =
  { enabled; t0 = now (); spans = Array.make 256 dummy; n = 0; stack = [] }

let enabled t = t.enabled
let count t = t.n

let reserve t =
  if t.n = Array.length t.spans then begin
    let a = Array.make (2 * t.n) dummy in
    Array.blit t.spans 0 a 0 t.n;
    t.spans <- a
  end;
  let id = t.n in
  t.n <- t.n + 1;
  id

(* [with_span t ~op name f] runs [f ()] inside a span named [name]. *)
let with_span t ~op name f =
  if not t.enabled then f ()
  else begin
    let id = reserve t in
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        t.spans.(id) <- { name; op; parent; start; stop = now () };
        t.stack <- List.tl t.stack)
      f
  end

let iter t f =
  for i = 0 to t.n - 1 do
    f t.spans.(i)
  done

(* Self time per span name: a span's duration minus the part of it its
   child spans cover.  Children of one span never overlap (the
   recorder is single-threaded and properly nested). *)
let self_times t =
  let child = Array.make t.n 0.0 in
  iter t (fun s ->
      if s.parent >= 0 then
        child.(s.parent) <- child.(s.parent) +. (s.stop -. s.start));
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      if i < t.n then begin
        let self = s.stop -. s.start -. child.(i) in
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name) in
        Hashtbl.replace tbl s.name (prev +. self)
      end)
    t.spans;
  tbl

let to_json t : Xdp_util.Jsonw.t =
  let module J = Xdp_util.Jsonw in
  let l = ref [] in
  for i = t.n - 1 downto 0 do
    let s = t.spans.(i) in
    l :=
      J.Obj
        [
          ("id", J.Int i);
          ("name", J.Str s.name);
          ("op", J.Int s.op);
          ("parent", J.Int s.parent);
          ("start_us", J.Fixed ((s.start -. t.t0) *. 1e6, 1));
          ("end_us", J.Fixed ((s.stop -. t.t0) *. 1e6, 1));
        ]
      :: !l
  done;
  J.Arr !l
