(* Certified fast-path predicates (the "filtered kernel" front end).

   Each predicate first evaluates a float-interval enclosure of the
   exact expression ({!Interval}); when the enclosure excludes zero the
   sign is certified and no exact arithmetic runs. Otherwise we fall
   back to the exact rational computation — so every answer is exact,
   and the exact kernel ([CHC_KERNEL=exact]) remains a drop-in oracle.

   The fused predicates ([sign_of_dot_minus], the cross-product signs)
   are the point of this module: they enclose the whole expression
   without materializing intermediate [Q] values, which is where the
   exact path burns its time (cross-multiplied denominators grow with
   every add). Fallbacks are counted per predicate class ({!Kernel})
   and, when the profiler is on, wrapped in a "filter.fallback" span so
   E12 shows exactly where exact arithmetic still fires. *)

module I = Interval

let fallback_span = "filter.fallback"


(* Count the fallback and run the exact path, under a span when the
   profiler is recording (the off path stays a branch). *)
let[@inline] slow pred f =
  Kernel.fallback pred;
  if Obs.Prof.enabled () then Obs.Prof.with_span fallback_span f else f ()

let sign q =
  if not (Kernel.filtered ()) then Q.sign q
  else
    match I.sign (Q.enclosure q) with
    | Some s -> Kernel.hit Kernel.Sign; s
    | None -> slow Kernel.Sign (fun () -> Q.sign q)

(* [Q.compare] already carries the filtered big-operand fast path (and
   its telemetry); re-exported here so call sites can name the filtered
   kernel explicitly. *)
let compare = Q.compare

let exact_dot_minus a p b =
  let acc = ref (Q.neg b) in
  for i = 0 to Array.length a - 1 do
    acc := Q.add !acc (Q.mul a.(i) p.(i))
  done;
  Q.sign !acc

(* sign(a . p - b) without building the intermediate rationals. *)
let sign_of_dot_minus a p b =
  if not (Kernel.filtered ()) then exact_dot_minus a p b
  else begin
    let acc = ref (I.neg (Q.enclosure b)) in
    for i = 0 to Array.length a - 1 do
      acc := I.add !acc (I.mul (Q.enclosure a.(i)) (Q.enclosure p.(i)))
    done;
    match I.sign !acc with
    | Some s -> Kernel.hit Kernel.Dot; s
    | None -> slow Kernel.Dot (fun () -> exact_dot_minus a p b)
  end

let exact_cross2 o a b =
  Q.sign
    (Q.sub
       (Q.mul (Q.sub a.(0) o.(0)) (Q.sub b.(1) o.(1)))
       (Q.mul (Q.sub a.(1) o.(1)) (Q.sub b.(0) o.(0))))

(* sign((a - o) x (b - o)) — the 2-d orientation test. *)
let sign_cross2 o a b =
  if not (Kernel.filtered ()) then exact_cross2 o a b
  else begin
    let o0 = Q.enclosure o.(0) and o1 = Q.enclosure o.(1) in
    let iv =
      I.sub
        (I.mul (I.sub (Q.enclosure a.(0)) o0) (I.sub (Q.enclosure b.(1)) o1))
        (I.mul (I.sub (Q.enclosure a.(1)) o1) (I.sub (Q.enclosure b.(0)) o0))
    in
    match I.sign iv with
    | Some s -> Kernel.hit Kernel.Cross; s
    | None -> slow Kernel.Cross (fun () -> exact_cross2 o a b)
  end

let exact_cross2o u v =
  Q.sign (Q.sub (Q.mul u.(0) v.(1)) (Q.mul u.(1) v.(0)))

(* sign(u x v) for edge vectors already based at the origin. *)
let sign_cross2o u v =
  if not (Kernel.filtered ()) then exact_cross2o u v
  else begin
    let iv =
      I.sub
        (I.mul (Q.enclosure u.(0)) (Q.enclosure v.(1)))
        (I.mul (Q.enclosure u.(1)) (Q.enclosure v.(0)))
    in
    match I.sign iv with
    | Some s -> Kernel.hit Kernel.Cross; s
    | None -> slow Kernel.Cross (fun () -> exact_cross2o u v)
  end

(* Pivot desirability for exact Gaussian elimination: fewer bits in the
   pivot means smaller intermediate growth. Deterministic and cheap;
   used by Linsys only to *choose* among exactly-nonzero candidates, so
   the (unique) reduced echelon form is unchanged. *)
let pivot_cost q = Bigint.num_bits q.Q.num + Bigint.num_bits q.Q.den

(* Expose hit/fallback telemetry through the metrics registry. *)
let () =
  Obs.Metrics.register_collector (fun () ->
      List.concat_map
        (fun (pred, s) ->
           [ { Obs.Metrics.metric = "chc_filter_hits_total";
               labels = [ ("pred", pred) ];
               value = Obs.Metrics.Counter s.Kernel.hits };
             { Obs.Metrics.metric = "chc_filter_fallbacks_total";
               labels = [ ("pred", pred) ];
               value = Obs.Metrics.Counter s.Kernel.fallbacks } ])
        (Kernel.stats ()))
