(** Synthetic workload generators.

    The paper has no datasets (it is a theory paper); these generators create
    the populations the experiment harness draws from. Continuous samples are
    snapped to the finite universe by nearest-neighbor rounding
    ({!Universe.nearest}: a k-d index lookup, the lowest index on a tie),
    implementing the Section 1.1 remark that data can be rounded to a finite
    universe at the cost of a constant factor in error. Drawing [n] rows
    costs [O(|X| log |X|)] once for the index plus a few leaves per row, not
    [O(n |X|)]. *)

val linear_regression :
  universe:Universe.t ->
  theta_star:Pmw_linalg.Vec.t ->
  noise:float ->
  n:int ->
  Pmw_rng.Rng.t ->
  Dataset.t
(** Rows are universe feature vectors chosen uniformly, relabeled with
    [y = ⟨θ*, x⟩ + N(0, noise²)] and snapped back to the nearest universe
    element — so the planted regression signal survives discretization.
    Requires a labeled universe. *)

val logistic_classification :
  universe:Universe.t ->
  theta_star:Pmw_linalg.Vec.t ->
  margin:float ->
  n:int ->
  Pmw_rng.Rng.t ->
  Dataset.t
(** Labels [±1] with [Pr(y = 1) = logistic(margin · ⟨θ*, x⟩)]; rows snapped to
    the nearest universe element. *)

val zipf_histogram : universe:Universe.t -> s:float -> Pmw_rng.Rng.t -> Histogram.t
(** A skewed population: mass proportional to [rank^{-s}] under a random
    permutation of the universe. [s = 0] is uniform; larger [s] concentrates
    mass — the regime where MW converges in few updates. *)

val cluster_histogram :
  universe:Universe.t -> centers:int -> spread:float -> Pmw_rng.Rng.t -> Histogram.t
(** Mixture of [centers] Gaussians (in point space) evaluated on the universe
    elements: mass ∝ Σ_c exp(-dist(x, center_c)² / 2·spread²). *)

val random_unit_vector : dim:int -> Pmw_rng.Rng.t -> Pmw_linalg.Vec.t
(** Uniform direction on the unit sphere — used to plant [θ*]. *)
