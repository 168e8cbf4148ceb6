(* The k-d index behind [nearest]: a complete binary tree over the
   (features, label) coordinates, stored in heap order. Internal node [k]
   (children [2k+1], [2k+2]) splits on coordinate [axis.(k)] at [split.(k)]:
   its left subtree holds the points whose coordinate is [<= split] (or NaN),
   its right subtree those [>= split]. Leaf [j] (heap id [internal + j])
   holds [order.(bounds.(j)) .. order.(bounds.(j+1) - 1)], at most
   [leaf_size] universe indices. *)
type index = {
  order : int array;
  internal : int;
  axis : int array;
  split : float array;
  bounds : int array;
}

type t = { name : string; dim : int; points : Point.t array; index : index option Atomic.t }

let of_points ~name points =
  if Array.length points = 0 then invalid_arg "Universe.of_points: empty universe";
  let dim = Point.dim points.(0) in
  Array.iter
    (fun p -> if Point.dim p <> dim then invalid_arg "Universe.of_points: mixed dimensions")
    points;
  { name; dim; points; index = Atomic.make None }

let name t = t.name
let size t = Array.length t.points
let dim t = t.dim

let get t i =
  if i < 0 || i >= size t then invalid_arg "Universe.get: index out of range";
  t.points.(i)

let log_size t = log (float_of_int (size t))
let points t = t.points

let fold t ~init ~f =
  let acc = ref init in
  Array.iteri (fun i p -> acc := f !acc i p) t.points;
  !acc

let iter t ~f = Array.iteri f t.points

let leaf_size = 8

(* Coordinate [a] of a point: a feature, or the label when [a = dim]. *)
let coord (p : Point.t) a = if a < Array.length p.features then p.features.(a) else p.label

let build t =
  let n = Array.length t.points in
  let leaves = ref 1 in
  while n > leaf_size * !leaves do
    leaves := 2 * !leaves
  done;
  let internal = !leaves - 1 in
  let order = Array.init n Fun.id in
  let axis = Array.make internal 0 and split = Array.make internal 0. in
  let bounds = Array.make (!leaves + 1) n in
  let key a s = coord t.points.(order.(s)) a in
  let swap i j =
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  in
  (* Reorder [order.(lo .. hi-1)] so that slot [m] holds the element of rank
     [m - lo] on axis [a] (in [Float.compare]'s order), with no greater key
     before it and no smaller one after. Three-way partitions keep the grids'
     many equal coordinates linear. *)
  let rec select a lo hi m =
    if hi - lo > 1 then begin
      let pivot = key a (lo + ((hi - lo) / 2)) in
      let lt = ref lo and i = ref lo and gt = ref (hi - 1) in
      while !i <= !gt do
        let c = Float.compare (key a !i) pivot in
        if c < 0 then begin
          swap !lt !i;
          incr lt;
          incr i
        end
        else if c > 0 then begin
          swap !i !gt;
          decr gt
        end
        else incr i
      done;
      if m < !lt then select a lo !lt m else if m > !gt then select a (!gt + 1) hi m
    end
  in
  let widest lo hi =
    let best = ref 0 and best_spread = ref neg_infinity in
    for a = 0 to t.dim do
      let lo_v = ref infinity and hi_v = ref neg_infinity in
      for s = lo to hi - 1 do
        let v = key a s in
        if v < !lo_v then lo_v := v;
        if v > !hi_v then hi_v := v
      done;
      if !hi_v -. !lo_v > !best_spread then begin
        best := a;
        best_spread := !hi_v -. !lo_v
      end
    done;
    !best
  in
  let rec node k lo hi =
    if k >= internal then bounds.(k - internal) <- lo
    else begin
      let a = widest lo hi and mid = lo + ((hi - lo) / 2) in
      select a lo hi mid;
      axis.(k) <- a;
      split.(k) <- key a mid;
      node ((2 * k) + 1) lo mid;
      node ((2 * k) + 2) mid hi
    end
  in
  node 0 0 n;
  { order; internal; axis; split; bounds }

(* Built on first use; two domains racing here build equal indexes. *)
let index t =
  match Atomic.get t.index with
  | Some ix -> ix
  | None ->
      let ix = build t in
      Atomic.set t.index (Some ix);
      ix

(* A lower bound on the computed [Point.dist] from the query to any point
   across a split [gap] away on one axis: the relative margin absorbs the
   distance's rounding, the absolute one squares that underflow to zero. *)
let lower_bound gap = (gap *. (1. -. 1e-9)) -. 1e-150

(* Depth-first over the heap-ordered tree without a stack: [from] is the
   child just returned from, or -1 when arriving from above. No closure
   captures a local, so every float stays unboxed and a call allocates
   nothing. *)
let nearest t (p : Point.t) =
  if Point.dim p <> t.dim then invalid_arg "Universe.nearest: dimension mismatch";
  let ix = index t in
  let pts = t.points and qf = p.features and ql = p.label and dim = t.dim in
  let best = ref (-1) and best_d = ref infinity in
  let k = ref 0 and from = ref (-1) and fin = ref false in
  while not !fin do
    let up =
      if !k >= ix.internal then begin
        let j = !k - ix.internal in
        for s = ix.bounds.(j) to ix.bounds.(j + 1) - 1 do
          let i = ix.order.(s) in
          let x = pts.(i) in
          let xf = x.features in
          (* Point.dist's operations in its order: bit-equal distances *)
          let acc = ref 0. in
          for c = 0 to dim - 1 do
            let dc = qf.(c) -. xf.(c) in
            acc := !acc +. (dc *. dc)
          done;
          let dv = sqrt !acc and dl = ql -. x.label in
          let d = sqrt ((dv *. dv) +. (dl *. dl)) in
          if d < !best_d || (d = !best_d && i < !best) then begin
            best := i;
            best_d := d
          end
        done;
        true
      end
      else begin
        let a = ix.axis.(!k) and sp = ix.split.(!k) in
        let qc = if a < dim then qf.(a) else ql in
        let near = if qc < sp then (2 * !k) + 1 else (2 * !k) + 2 in
        if !from < 0 then begin
          k := near;
          false
        end
        else if !from = near && not (lower_bound (Float.abs (qc -. sp)) > !best_d) then begin
          from := -1;
          k := (4 * !k) + 3 - near;
          false
        end
        else true
      end
    in
    if up then
      if !k = 0 then fin := true
      else begin
        from := !k;
        k := (!k - 1) / 2
      end
  done;
  (* no finite distance (a NaN or overflowing query): index 0, as a scan's *)
  if !best < 0 then 0 else !best

let max_feature_norm t = Array.fold_left (fun acc p -> Float.max acc (Point.norm p)) 0. t.points

let check_d d =
  if d <= 0 then invalid_arg "Universe: dimension must be positive";
  if d > 20 then invalid_arg "Universe: hypercube dimension too large (universe would not fit in memory)"

let hypercube_features d scale =
  let coord = scale /. sqrt (float_of_int d) in
  Array.init (1 lsl d) (fun code ->
      Array.init d (fun j -> if (code lsr j) land 1 = 1 then coord else -.coord))

let hypercube ~d ?(scale = 1.) () =
  check_d d;
  let features = hypercube_features d scale in
  of_points
    ~name:(Printf.sprintf "hypercube(d=%d,scale=%g)" d scale)
    (Array.map Point.make features)

let labeled_hypercube ~d ?(scale = 1.) ~labels () =
  check_d d;
  if Array.length labels = 0 then invalid_arg "Universe.labeled_hypercube: no labels";
  let features = hypercube_features d scale in
  let pts =
    Array.concat
      (Array.to_list
         (Array.map (fun label -> Array.map (fun x -> Point.make ~label x) features) labels))
  in
  of_points ~name:(Printf.sprintf "labeled_hypercube(d=%d,labels=%d)" d (Array.length labels)) pts

let axis_grid levels lo hi =
  if levels < 2 then invalid_arg "Universe: grid needs at least 2 levels";
  Array.init levels (fun i -> lo +. ((hi -. lo) *. float_of_int i /. float_of_int (levels - 1)))

let grid_features d levels radius =
  let coord_bound = radius /. sqrt (float_of_int d) in
  let axis = axis_grid levels (-.coord_bound) coord_bound in
  let total = int_of_float (float_of_int levels ** float_of_int d) in
  if total > 1 lsl 22 then invalid_arg "Universe: grid universe too large";
  Array.init total (fun code ->
      let rest = ref code in
      Array.init d (fun _ ->
          let v = axis.(!rest mod levels) in
          rest := !rest / levels;
          v))

let grid_ball ~d ~levels ?(radius = 1.) () =
  check_d d;
  let features = grid_features d levels radius in
  of_points
    ~name:(Printf.sprintf "grid_ball(d=%d,levels=%d,r=%g)" d levels radius)
    (Array.map Point.make features)

let cover_features d levels radius =
  let axis = axis_grid levels (-.radius) radius in
  let total = int_of_float (float_of_int levels ** float_of_int d) in
  if total > 1 lsl 22 then invalid_arg "Universe: grid universe too large";
  let kept = ref [] in
  for code = total - 1 downto 0 do
    let rest = ref code in
    let p =
      Array.init d (fun _ ->
          let v = axis.(!rest mod levels) in
          rest := !rest / levels;
          v)
    in
    (* tolerance keeps boundary points that land on the sphere numerically *)
    if Pmw_linalg.Vec.norm2 p <= radius +. 1e-12 then kept := p :: !kept
  done;
  if !kept = [] then [| Array.make d 0. |] else Array.of_list !kept

let ball_cover ~d ~levels ?(radius = 1.) () =
  check_d d;
  let features = cover_features d levels radius in
  of_points
    ~name:(Printf.sprintf "ball_cover(d=%d,levels=%d,r=%g)" d levels radius)
    (Array.map Point.make features)

let ball_cover_labeled ~d ~levels ~label_levels ?(radius = 1.) ?(label_bound = 1.) () =
  check_d d;
  if label_levels < 2 then invalid_arg "Universe.ball_cover_labeled: label_levels < 2";
  let features = cover_features d levels radius in
  let labels = axis_grid label_levels (-.label_bound) label_bound in
  let pts =
    Array.concat
      (Array.to_list
         (Array.map (fun label -> Array.map (fun x -> Point.make ~label x) features) labels))
  in
  of_points
    ~name:
      (Printf.sprintf "ball_cover_labeled(d=%d,levels=%d,labels=%d)" d levels label_levels)
    pts

let regression_grid ~d ~levels ~label_levels ?(radius = 1.) ?(label_bound = 1.) () =
  check_d d;
  if label_levels < 2 then invalid_arg "Universe.regression_grid: label_levels < 2";
  let features = grid_features d levels radius in
  let labels = axis_grid label_levels (-.label_bound) label_bound in
  let pts =
    Array.concat
      (Array.to_list
         (Array.map (fun label -> Array.map (fun x -> Point.make ~label x) features) labels))
  in
  of_points
    ~name:(Printf.sprintf "regression_grid(d=%d,levels=%d,labels=%d)" d levels label_levels)
    pts
