(** Continuous-data front-end: Section 1.1's rounding remark as an API.

    The paper's mechanisms need a finite universe, but real data is
    continuous; the paper notes that rounding points to a grid of size
    [(d/α)^{O(d)}] costs at most a constant factor in error. This module
    performs that rounding: given raw records (feature vectors in the unit
    ball, plus optional labels) and a target accuracy [alpha], it chooses a
    grid resolution with per-axis spacing ~[alpha] (so the rounding
    displacement of any point is at most [~alpha] — at most an [O(alpha)]
    perturbation of any 1-Lipschitz loss), builds the universe, and snaps
    every record to it. *)

type spec = {
  dim : int;
  labeled : bool;  (** whether records carry labels in [\[-1, 1\]] *)
  levels : int;  (** grid levels per axis actually chosen *)
  label_levels : int;  (** label grid (1 when unlabeled) *)
}

val plan : alpha:float -> dim:int -> labeled:bool -> ?max_universe:int -> unit -> spec
(** Choose the grid so that {!rounding_error} [<= alpha]: the feature grid
    is a ball cover with cell diagonal [<= alpha/√2] and the label grid has
    half-spacing [<= alpha/√2], each capped so the universe stays within
    [max_universe] (default [2^18]) — when the cap binds, the coarser
    grid's {!rounding_error} honestly exceeds [alpha].
    @raise Invalid_argument for [alpha] outside (0,1) or [dim <= 0]. *)

val universe_of_spec : spec -> Universe.t

val rounding_error : spec -> float
(** The worst-case Euclidean displacement of {!ingest}'s snapping under this
    spec (half the grid diagonal plus half the label spacing). *)

val ingest :
  alpha:float ->
  ?max_universe:int ->
  features:Pmw_linalg.Vec.t array ->
  ?labels:float array ->
  unit ->
  Universe.t * Dataset.t
(** Build the universe via {!plan} and snap every record to its nearest
    element ({!Universe.nearest}: the lowest index on a tie, through the
    universe's k-d index, so [n] records cost one [O(|X| log |X|)] build plus
    a few leaves each rather than [n·|X|] distances). Features are clipped
    to the unit ball and labels to [\[-1, 1\]] first (outliers must not
    blow up sensitivities). @raise Invalid_argument on empty input or
    mismatched lengths. *)
