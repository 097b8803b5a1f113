(** Heap verification: canonical snapshots and post-collection checks.

    A collection is correct iff the object graph reachable from the roots
    after the cycle is isomorphic to the one before it, all live objects
    were copied exactly once, and the new space is contiguously compacted.
    The snapshot is a canonical (BFS-ordered) serialization of the
    reachable subgraph, so isomorphism reduces to structural equality. *)

type snapshot
(** A canonical serialization of the reachable subgraph, as one flat int
    stream. Objects are numbered by BFS discovery order from the roots
    (in root-slot order, then pointer-slot order), so the numbering
    depends only on graph shape, never on addresses. For each object, in
    that order, the stream holds:

    {v π  δ  child_0 ... child_(π-1)  data_0 ... data_(δ-1) v}

    where each child is the target's canonical id, or [-1] for a null
    pointer. Alongside the stream the snapshot keeps the canonical id
    per root slot ([-1] for a null root), the object count and the total
    live words (sum of object footprints). Two snapshots are equal iff
    the graphs are isomorphic with equal data. *)

val snapshot : Heap.t -> snapshot
(** Canonical serialization of the graph reachable from the heap's roots.
    Canonical ids are kept in a flat array over the current space's
    [\[base, free)]; an address outside that range (a root into the other
    space, a corrupted pointer) is numbered through a small fallback
    table, so any reachable address is serialized. *)

val object_count : snapshot -> int
(** Number of reachable objects. *)

val equal_snapshot : snapshot -> snapshot -> bool

val pp_snapshot : Format.formatter -> snapshot -> unit

type failure =
  | Graph_mismatch of string
  | Not_compacted of string
  | Bad_state of { obj : int; state : Header.state }
  | Undecodable_header of { obj : int; word : int }
      (** the header carries the invalid state tag 3 — only possible via
          corruption; surfaced as a failure rather than an exception so
          fault campaigns can count it as a detection *)
  | Dangling_pointer of { obj : int; slot : int; target : int }
  | Misaligned_pointer of { obj : int; slot : int; target : int }
      (** the pointer lands inside the space but not on an object start
          (e.g. a corrupted low bit sliding into a neighbour's body) *)

val pp_failure : Format.formatter -> failure -> unit

val check_space : Heap.t -> (unit, failure) result
(** The wall-to-wall structural half of {!check_collection}: the current
    space parses as a contiguous sequence of Black objects ending at
    [free], with every non-null pointer targeting an object start of the
    space. Both passes walk the space in address order, so the failure
    reported is the lowest-addressed one: the first malformed header in
    the parse, else the first bad pointer slot of the lowest object. Useful on its own when the graph changed during collection
    (concurrent mode), making a whole-snapshot comparison inapplicable.
    Defensive against arbitrarily corrupted words: it returns [Error]
    rather than raising, and {!check_collection} only takes its snapshot
    after this check passes, so the BFS never reads a misparsed frame. *)

val check_collection : pre:snapshot -> Heap.t -> (unit, failure) result
(** [check_collection ~pre heap] validates the heap {i after} a collection
    cycle (the copies live in the now-current space): graph isomorphic to
    [pre], space wall-to-wall well-formed Black objects, no pointer into
    the other (from-) space, total live words preserved — checked in
    that order: {!check_space} first, then isomorphism, then live words.
    The post-collection graph is compared against [pre]'s stream as its
    BFS proceeds; only on a mismatch is a full snapshot taken, to name
    the object counts in the {!Graph_mismatch} message. *)
