(* Host-time spans recorded around the benchmark's calls into each layer.

   A span has a name, a start and end (monotonic nanoseconds), the span
   that encloses it and the collection it belongs to. Spans are kept in
   growable in-memory arrays and written out once, when the run ends.
   A layer's self time is its span's duration minus the part covered by
   its child spans; the root span of each collection is named
   [collection] and its own self time is the benchmark's glue between
   layer calls. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  on : bool;
  mutable n : int;
  mutable name : string array;
  mutable coll : int array;
  mutable parent : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable open_ : int;  (** innermost open span, -1 at top level *)
  mutable current : int;  (** collection id of the open root span *)
}

let create ~on =
  {
    on;
    n = 0;
    name = [||];
    coll = [||];
    parent = [||];
    t0 = [||];
    t1 = [||];
    open_ = -1;
    current = -1;
  }

let grow t =
  let cap = max 64 (2 * Array.length t.t0) in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- ext t.name "";
  t.coll <- ext t.coll 0;
  t.parent <- ext t.parent 0;
  t.t0 <- ext t.t0 0;
  t.t1 <- ext t.t1 0

let span t name f =
  if not t.on then f ()
  else begin
    if t.n = Array.length t.t0 then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- name;
    t.coll.(i) <- t.current;
    t.parent.(i) <- t.open_;
    t.open_ <- i;
    t.t0.(i) <- now_ns ();
    let close () =
      t.t1.(i) <- now_ns ();
      t.open_ <- t.parent.(i)
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let root = "collection"

let collection t id f =
  if not t.on then f ()
  else begin
    t.current <- id;
    span t root f
  end

let count t = t.n

let dur t i = t.t1.(i) - t.t0.(i)

(* Self time of every span, in nanoseconds. *)
let self_ns t =
  let self = Array.init t.n (dur t) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - dur t i
  done;
  self

(* Total self time per span name, in seconds. *)
let self_by_name t =
  let self = self_ns t in
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let prev = Option.value ~default:0 (Hashtbl.find_opt tbl t.name.(i)) in
    Hashtbl.replace tbl t.name.(i) (prev + self.(i))
  done;
  fun name ->
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl name)) *. 1e-9

(* Per-collection identity: the layer self times of a collection sum to
   its root span, up to the root's own self time (the unattributed glue).
   Returns the worst unattributed share over all collections and whether
   every collection is within [rel] of its span (plus [abs_ns] slack for
   clock granularity on very short collections). *)
let identity t ~rel ~abs_ns =
  let self = self_ns t in
  let worst = ref 0.0 and ok = ref true in
  for i = 0 to t.n - 1 do
    if t.parent.(i) < 0 && t.name.(i) = root then begin
      let d = dur t i in
      let glue = self.(i) in
      if d > 0 then
        worst := Float.max !worst (float_of_int glue /. float_of_int d);
      if float_of_int glue > (rel *. float_of_int d) +. float_of_int abs_ns
      then ok := false
    end
  done;
  (!worst, !ok)

let write_csv t path =
  let oc = open_out path in
  output_string oc "id,name,collection,parent,start_ns,end_ns,self_ns\n";
  let self = self_ns t in
  let base = if t.n > 0 then t.t0.(0) else 0 in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d,%s,%d,%d,%d,%d,%d\n" i t.name.(i) t.coll.(i)
      t.parent.(i) (t.t0.(i) - base) (t.t1.(i) - base) self.(i)
  done;
  close_out oc
