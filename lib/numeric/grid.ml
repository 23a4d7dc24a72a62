(* Common-denominator grids: the lcm scaling that hull constructions
   apply to their points, one grid per call. *)

module B = Bigint

module Dens = Hashtbl.Make (struct
    type t = B.t

    let equal = B.equal
    let hash = B.hash
  end)

(* The distinct denominators are keyed in a hash table, which then
   maps each to its cofactor l / den, so scaling a coordinate is one
   lookup and one multiplication (no per-coordinate gcd reduction as
   in [Q.mul]). A list would do for a handful of denominators, but the
   vertex sums of a d=3 Minkowski pair can carry thousands: 1,444
   points with about 3,700 distinct denominators in the golden
   corpus's n7-f1-d3 lag:0,1 seed-1 recovery run. *)
let scale_points pts =
  let cof = Dens.create 16 in
  List.iter
    (fun (p : Q.t array) ->
       Array.iter
         (fun (q : Q.t) ->
            let d = q.Q.den in
            if not (B.equal d B.one || Dens.mem cof d) then Dens.add cof d d)
         p)
    pts;
  let l = Dens.fold (fun d _ acc -> B.mul (B.div acc (B.gcd acc d)) d) cof B.one in
  Dens.filter_map_inplace (fun d _ -> Some (B.div l d)) cof;
  let scaled =
    List.map
      (fun (p : Q.t array) ->
         Array.map
           (fun (q : Q.t) ->
              let d = q.Q.den in
              if B.equal d B.one then
                if B.equal l B.one then q else Q.of_bigint (B.mul q.Q.num l)
              else Q.of_bigint (B.mul q.Q.num (Dens.find cof d)))
           p)
      pts
  in
  (scaled, l)

(* Enclosure-cache size and evictions, the named-cache treatment Memo
   tables get. *)
let () =
  Obs.Metrics.register_collector (fun () ->
      let e_inserts, e_evictions = Q.enclosure_cache_stats () in
      [ { Obs.Metrics.metric = "chc_cache_inserts_total";
          labels = [ ("cache", "enclosure") ];
          value = Obs.Metrics.Counter e_inserts };
        { Obs.Metrics.metric = "chc_cache_evictions_total";
          labels = [ ("cache", "enclosure") ];
          value = Obs.Metrics.Counter e_evictions } ])
