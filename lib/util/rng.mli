(** Deterministic, splittable pseudo-random number generator.

    The simulator and the workload generators must be fully deterministic:
    a given seed always produces the same object graph and hence the same
    cycle counts. The stdlib [Random] module is avoided because its state
    is global and its algorithm may change between compiler releases.
    This is a SplitMix64 generator (Steele, Lea & Flood, OOPSLA 2014):
    64-bit state, one mix per draw, cheap [split] for independent
    substreams. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a generator from an arbitrary integer seed. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val state : t -> int64
(** Raw generator state, for checkpointing. *)

val set_state : t -> int64 -> unit
(** Reinstate a captured state; the stream replays exactly from it. *)

val split : t -> t
(** [split t] advances [t] and returns a statistically independent
    generator; use it to give substreams to subcomponents so that adding
    draws in one component does not perturb another. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val geometric : t -> p:float -> int
(** [geometric t ~p] draws from a geometric distribution with success
    probability [p] (support 0, 1, 2, ...; mean [(1-p)/p]).
    [p] must be in (0, 1]. *)

type zipf = private float array
(** A Zipf sampler: the cumulative weight table of one [(n, s)] pair.
    Entry [k] is the harmonic partial sum [1/1^s + ... + 1/(k+1)^s],
    accumulated in rank order. *)

val zipf_table : n:int -> s:float -> zipf
(** [zipf_table ~n ~s] builds the sampler for ranks [\[0, n)] and
    exponent [s] — O(n) once, instead of on every draw. [n] must be
    positive. *)

val zipf_draw : t -> zipf -> int
(** [zipf_draw t z] draws a rank from [z] by harmonic-sum inversion in
    O(log n). It consumes exactly one {!float} draw (none when [n = 1])
    and returns exactly what {!zipf} returns from the same state. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] draws a rank in [\[0, n)] from a Zipf distribution with
    exponent [s]: the one-shot form of [zipf_draw t (zipf_table ~n ~s)].
    Used to model hot shared objects (a few objects referenced by many);
    callers drawing repeatedly from one distribution should build the
    table once. *)
